(* Tests for the latency-breakdown reconstruction and trace exporters:
   the components-sum-to-sojourn invariant across queue models and
   preemption mechanisms, conservation/busy-fraction invariants for every
   built-in system, and schema validation of the Chrome-trace export. *)

module Server = Repro_runtime.Server
module Sls = Repro_runtime.Sls_server
module Systems = Repro_runtime.Systems
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Tracing = Repro_runtime.Tracing
module Breakdown = Repro_runtime.Breakdown
module Trace_export = Repro_runtime.Trace_export
module Costs = Repro_hw.Costs
module Mechanism = Repro_hw.Mechanism
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival

let eps = 1e-9

let cswitch_cost_ns (config : Config.t) =
  Costs.ns_of config.Config.costs config.Config.costs.Costs.context_switch_cycles

(* Capacity must cover the chattiest system end to end: a 5 us quantum
   preempts a long ycsb-a request about 20 times, each preemption records
   several events, and a wrapped ring drops the Arrived entries that anchor
   every lifecycle. *)
let traced_run ?(n = 800) ?(rate = 150_000.0) config =
  let tracer = Tracing.create ~capacity:(n * 320) () in
  let s =
    Server.run ~config ~mix:Repro_workload.Presets.ycsb_a
      ~arrival:(Arrival.Poisson { rate_rps = rate })
      ~n_requests:n ~tracer ()
  in
  (s, tracer)

let check_all breakdowns ~ctx =
  if breakdowns = [] then Alcotest.failf "%s: no complete lifecycles reconstructed" ctx;
  List.iter
    (fun b ->
      match Breakdown.check b with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" ctx msg)
    breakdowns;
  List.iter
    (fun (b : Breakdown.request_breakdown) ->
      if b.components.Breakdown.other_ns <> 0 then
        Alcotest.failf "%s: request %d has %dns unattributed" ctx b.request
          b.components.Breakdown.other_ns)
    breakdowns

(* The acceptance criterion: components sum to the measured sojourn for
   every request, across both queue models and every mechanism. *)
let test_sum_to_sojourn_all_mechanisms () =
  let mechanisms =
    [
      Mechanism.No_preempt;
      Mechanism.Rdtsc_probe;
      Mechanism.Ipi;
      Mechanism.Linux_ipi;
      Mechanism.Uipi;
      Mechanism.Cache_line;
      Mechanism.Model_lateness { sigma_ns = 500.0 };
    ]
  in
  List.iter
    (fun queue_model ->
      List.iter
        (fun mechanism ->
          let config =
            { (Systems.concord ~n_workers:4 ()) with Config.queue_model; mechanism }
          in
          let _, tracer = traced_run config in
          let breakdowns =
            Breakdown.of_trace ~cswitch_cost_ns:(cswitch_cost_ns config) tracer
          in
          let ctx =
            Printf.sprintf "%s/%s"
              (match queue_model with Config.Single_queue -> "SQ" | Config.Jbsq k -> Printf.sprintf "JBSQ(%d)" k)
              (Mechanism.name mechanism)
          in
          check_all breakdowns ~ctx)
        mechanisms)
    [ Config.Single_queue; Config.Jbsq 2 ]

(* Conservation and busy-fraction invariants for every built-in system. *)
let test_builtin_system_invariants () =
  List.iter
    (fun name ->
      let make = Option.get (Systems.by_name name) in
      let config = make ~n_workers:4 () in
      let s, tracer = traced_run config in
      Alcotest.(check int)
        (name ^ ": every arrival exactly once completed-or-censored") 800
        (s.Metrics.completed + s.Metrics.censored);
      if s.Metrics.worker_busy_frac > 1.0 +. eps then
        Alcotest.failf "%s: worker_busy_frac %f > 1" name s.Metrics.worker_busy_frac;
      if s.Metrics.dispatcher_busy_frac +. s.Metrics.dispatcher_app_frac > 1.0 +. eps then
        Alcotest.failf "%s: dispatcher fractions %f + %f > 1" name
          s.Metrics.dispatcher_busy_frac s.Metrics.dispatcher_app_frac;
      Alcotest.(check int) (name ^ ": no negative idle gaps") 0 s.Metrics.negative_idle_gaps;
      check_all
        (Breakdown.of_trace ~cswitch_cost_ns:(cswitch_cost_ns config) tracer)
        ~ctx:name)
    Systems.all_names

let test_sls_breakdown () =
  let tracer = Tracing.create ~capacity:65_536 () in
  let config = Sls.concord_sls ~n_workers:2 ~quantum_ns:2_000 () in
  let (_ : Metrics.summary) =
    Sls.run ~config
      ~mix:(Mix.of_dist ~name:"f" (Repro_workload.Service_dist.Fixed 20_000.0))
      ~arrival:(Arrival.Poisson { rate_rps = 80_000.0 })
      ~n_requests:400 ~tracer ()
  in
  let cswitch = Costs.ns_of config.Sls.costs config.Sls.costs.Costs.context_switch_cycles in
  let breakdowns = Breakdown.of_trace ~cswitch_cost_ns:cswitch tracer in
  check_all breakdowns ~ctx:"concord-sls";
  (* 20 us of service under a 2 us quantum: preemption overhead must show. *)
  let some_preempt =
    List.exists
      (fun (b : Breakdown.request_breakdown) -> b.components.Breakdown.preempt_ns > 0)
      breakdowns
  in
  Alcotest.(check bool) "preemption overhead attributed" true some_preempt

(* A hand-built lifecycle with every component known exactly. *)
let test_worked_example () =
  let e time_ns kind = { Tracing.time_ns; request = 7; kind } in
  let entries =
    [
      e 0 (Tracing.Arrived { service_ns = 1_000 });
      e 100 (Tracing.Admitted { central_depth = 1; op_ns = 100 });
      e 200 (Tracing.Dispatched { worker = 0; central_depth = 0; local_depth = 0; op_ns = 50 });
      e 200 (Tracing.Delivered { worker = 0 });
      (* handoff 150 contains one 100ns context switch *)
      e 350 (Tracing.Started { worker = 0 });
      (* runs 600ns of progress in 700ns of wall time: 100ns instrumentation *)
      e 1_050 (Tracing.Preempted { worker = 0; progress_ns = 600 });
      (* notification + switch-out + requeue op: 100ns cswitch carved, 150 preempt *)
      e 1_300 (Tracing.Requeued { queue_depth = 1 });
      e 1_400 (Tracing.Dispatched { worker = 1; central_depth = 0; local_depth = 1; op_ns = 40 });
      e 1_500 (Tracing.Delivered { worker = 1 });
      e 1_650 (Tracing.Resumed { worker = 1; progress_ns = 600 });
      (* remaining 400ns of progress in 450ns of wall time *)
      e 2_100 (Tracing.Completed { worker = 1 });
    ]
  in
  match Breakdown.of_entries ~cswitch_cost_ns:100 entries with
  | [ b ] ->
    (match Breakdown.check b with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg);
    let c = b.Breakdown.components in
    Alcotest.(check int) "sojourn" 2_100 b.Breakdown.sojourn_ns;
    Alcotest.(check int) "ingress" 100 c.Breakdown.ingress_ns;
    (* Admitted->Dispatched (100) + Requeued->Dispatched (100) *)
    Alcotest.(check int) "central" 200 c.Breakdown.central_ns;
    (* both Dispatched->Delivered intervals: 0 + 100 *)
    Alcotest.(check int) "local" 100 c.Breakdown.local_ns;
    (* (150 - 100 cswitch) + (150 - 100 cswitch) *)
    Alcotest.(check int) "handoff" 100 c.Breakdown.handoff_ns;
    (* two delivery switches + one carved out of the preemption interval *)
    Alcotest.(check int) "cswitch" 300 c.Breakdown.cswitch_ns;
    Alcotest.(check int) "service" 1_000 c.Breakdown.service_ns;
    (* (700 - 600) + (450 - 400) *)
    Alcotest.(check int) "instr" 150 c.Breakdown.instr_ns;
    (* 250 preempt interval minus the carved context switch *)
    Alcotest.(check int) "preempt" 150 c.Breakdown.preempt_ns;
    Alcotest.(check int) "other" 0 c.Breakdown.other_ns;
    Alcotest.(check int) "preemptions" 1 b.Breakdown.preemptions;
    Alcotest.(check int) "final worker" 1 b.Breakdown.final_worker
  | l -> Alcotest.failf "expected one breakdown, got %d" (List.length l)

let test_incomplete_lifecycles_skipped () =
  let e request time_ns kind = { Tracing.time_ns; request; kind } in
  let entries =
    [
      e 1 0 (Tracing.Arrived { service_ns = 100 });
      (* request 1 never completes; request 2 is missing its arrival *)
      e 2 50 (Tracing.Started { worker = 0 });
      e 2 150 (Tracing.Completed { worker = 0 });
    ]
  in
  Alcotest.(check int) "only full Arrived..Completed lifecycles" 0
    (List.length (Breakdown.of_entries entries))

(* --- exporters ------------------------------------------------------- *)

let test_chrome_export_validates () =
  let _, tracer = traced_run (Systems.concord ~n_workers:2 ()) ~n:400 in
  let json = Trace_export.tracer_to_chrome_json tracer in
  match Trace_export.validate_chrome_json json with
  | Ok n -> Alcotest.(check bool) "non-empty traceEvents" true (n > 0)
  | Error msg -> Alcotest.fail msg

let test_chrome_validation_rejects_garbage () =
  let bad s =
    match Trace_export.validate_chrome_json s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "not JSON" true (bad "not json at all");
  Alcotest.(check bool) "wrong shape" true (bad "[1,2,3]");
  Alcotest.(check bool) "no traceEvents" true (bad "{\"a\":1}");
  Alcotest.(check bool) "empty traceEvents" true (bad "{\"traceEvents\":[]}");
  Alcotest.(check bool) "event missing ph" true
    (bad "{\"traceEvents\":[{\"ts\":0,\"pid\":1}]}");
  Alcotest.(check bool) "minimal valid doc accepted" true
    (match
       Trace_export.validate_chrome_json
         "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0.5,\"pid\":1,\"tid\":0}]}"
     with
    | Ok 1 -> true
    | _ -> false)

let test_csv_export_row_count () =
  let _, tracer = traced_run (Systems.concord ~n_workers:2 ()) ~n:200 in
  let entries = Tracing.entries tracer in
  let csv = Trace_export.tracer_events_to_csv tracer in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + one row per event" (1 + List.length entries)
    (List.length lines);
  (match lines with
  | header :: _ ->
    Alcotest.(check string) "header"
      "time_ns,request,kind,worker,progress_ns,queue_depth,local_depth,op_ns" header
  | [] -> Alcotest.fail "empty csv")

let test_breakdown_csv () =
  let _, tracer = traced_run (Systems.concord ~n_workers:2 ()) ~n:200 in
  let breakdowns = Breakdown.of_trace tracer in
  let csv = Breakdown.to_csv breakdowns in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "header + one row per request" (1 + List.length breakdowns)
    (List.length lines)

let test_attribution_table () =
  let rows =
    Breakdown.run_systems ~systems:[ "concord"; "shinjuku" ] ~n_requests:600 ()
  in
  Alcotest.(check int) "one row per system" 2 (List.length rows);
  List.iter
    (fun (r : Breakdown.attribution_row) ->
      Alcotest.(check bool) (r.system ^ " attributed requests") true (r.n > 0);
      Alcotest.(check bool) (r.system ^ " positive sojourn") true (r.mean_sojourn_ns > 0.0))
    rows;
  let rendered = Breakdown.render_attribution rows in
  Alcotest.(check bool) "table mentions both systems" true
    (Astring_contains.contains rendered "concord"
    && Astring_contains.contains rendered "shinjuku")

let test_attribution_rejects_unknown_system () =
  (* An unknown name fails with the message every front end gives for
     one, instead of leaving its row out of the table. *)
  let expected =
    match Concord.configure ~system:"nosuch" () with
    | Error e -> e
    | Ok _ -> Alcotest.fail "nosuch configured"
  in
  Alcotest.check_raises "unknown system" (Invalid_argument expected) (fun () ->
      ignore (Breakdown.run_systems ~systems:[ "concord"; "nosuch" ] ~n_requests:200 ()))

let suite =
  [
    Alcotest.test_case "components sum to sojourn (SQ/JBSQ x mechanisms)" `Slow
      test_sum_to_sojourn_all_mechanisms;
    Alcotest.test_case "built-in system invariants" `Slow test_builtin_system_invariants;
    Alcotest.test_case "sls breakdown" `Quick test_sls_breakdown;
    Alcotest.test_case "worked example attribution" `Quick test_worked_example;
    Alcotest.test_case "incomplete lifecycles skipped" `Quick test_incomplete_lifecycles_skipped;
    Alcotest.test_case "chrome export validates" `Quick test_chrome_export_validates;
    Alcotest.test_case "chrome validation rejects garbage" `Quick
      test_chrome_validation_rejects_garbage;
    Alcotest.test_case "events CSV shape" `Quick test_csv_export_row_count;
    Alcotest.test_case "breakdown CSV shape" `Quick test_breakdown_csv;
    Alcotest.test_case "per-system attribution table" `Quick test_attribution_table;
    Alcotest.test_case "attribution rejects an unknown system" `Quick
      test_attribution_rejects_unknown_system;
  ]
