(* Unit tests for the runtime's building blocks: requests, policies,
   bounded local queues, configuration, metrics. *)

module Request = Repro_runtime.Request
module Policy = Repro_runtime.Policy
module Local_queue = Repro_runtime.Local_queue
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Systems = Repro_runtime.Systems
module Mix = Repro_workload.Mix

let profile ?(class_id = 0) ?(service_ns = 1_000) ?(locks = [||]) () =
  { Mix.class_id; service_ns; lock_windows = locks; probe_spacing_ns = 0.0 }

let request ?(id = 0) ?(arrival_ns = 0) ?class_id ?service_ns ?locks () =
  Request.create ~id ~arrival_ns ~profile:(profile ?class_id ?service_ns ?locks ())

(* --- request ----------------------------------------------------------- *)

let test_request_lifecycle () =
  let r = request ~service_ns:2_000 () in
  Alcotest.(check int) "remaining" 2_000 (Request.remaining_ns r);
  Alcotest.(check bool) "not complete" false (Request.is_complete r);
  r.Request.done_ns <- 500;
  Alcotest.(check int) "remaining after progress" 1_500 (Request.remaining_ns r);
  r.Request.completion_ns <- 10_000;
  Alcotest.(check int) "sojourn" 10_000 (Request.sojourn_ns r);
  Alcotest.(check (float 1e-9)) "slowdown" 5.0 (Request.slowdown r)

let test_defer_outside_window () =
  let r = request ~service_ns:1_000 ~locks:[| (200, 400) |] () in
  Alcotest.(check int) "before window" 100 (Request.defer_past_locks r 100);
  Alcotest.(check int) "after window" 500 (Request.defer_past_locks r 500)

let test_defer_inside_window () =
  let r = request ~service_ns:1_000 ~locks:[| (200, 400); (600, 700) |] () in
  Alcotest.(check int) "deferred to window end" 400 (Request.defer_past_locks r 250);
  Alcotest.(check int) "second window" 700 (Request.defer_past_locks r 600);
  Alcotest.(check int) "window start is inside" 400 (Request.defer_past_locks r 200)

let test_defer_clamps_to_service () =
  let r = request ~service_ns:1_000 ~locks:[| (900, 5_000) |] () in
  Alcotest.(check int) "clamped" 1_000 (Request.defer_past_locks r 950)

let test_sojourn_requires_completion () =
  let r = request () in
  Alcotest.check_raises "incomplete sojourn"
    (Invalid_argument "Request.sojourn_ns: not complete") (fun () ->
      ignore (Request.sojourn_ns r))

(* --- policy ------------------------------------------------------------- *)

let ids q ~worker =
  let rec go acc =
    match Policy.pop q ~worker with
    | None -> List.rev acc
    | Some r -> go (r.Request.id :: acc)
  in
  go []

let test_fcfs_order () =
  let q = Policy.create Policy.Fcfs in
  List.iter (fun id -> Policy.push_new q (request ~id ())) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "fcfs order" [ 1; 2; 3 ] (ids q ~worker:0)

let test_fcfs_preempted_to_tail () =
  let q = Policy.create Policy.Fcfs in
  Policy.push_new q (request ~id:1 ());
  let preempted = request ~id:9 () in
  preempted.Request.started <- true;
  Policy.push_preempted q preempted;
  Policy.push_new q (request ~id:2 ());
  Alcotest.(check (list int)) "preempted behind head" [ 1; 9; 2 ] (ids q ~worker:0)

let test_srpt_order () =
  let q = Policy.create Policy.Srpt in
  Policy.push_new q (request ~id:1 ~service_ns:5_000 ());
  Policy.push_new q (request ~id:2 ~service_ns:1_000 ());
  let started = request ~id:3 ~service_ns:9_000 () in
  started.Request.started <- true;
  started.Request.done_ns <- 8_900;
  (* 100ns remaining *)
  Policy.push_preempted q started;
  Alcotest.(check (list int)) "least remaining first" [ 3; 2; 1 ] (ids q ~worker:0)

let test_locality_prefers_last_worker () =
  let q = Policy.create Policy.Locality_fcfs in
  let a = request ~id:1 () and b = request ~id:2 () in
  b.Request.last_worker <- 4;
  Policy.push_new q a;
  Policy.push_preempted q b;
  (match Policy.pop q ~worker:4 with
  | Some r -> Alcotest.(check int) "worker 4 gets its request" 2 r.Request.id
  | None -> Alcotest.fail "empty");
  match Policy.pop q ~worker:4 with
  | Some r -> Alcotest.(check int) "then the head" 1 r.Request.id
  | None -> Alcotest.fail "empty"

(* The dispatcher probes for a steal candidate on every pick, so the probes
   must answer from the fresh requests alone, whatever the backlog. Each
   backlog below holds 32,768 started requests, and the deepest has
   [started] cleared after its push (the server never does that): a probe
   that walks the backlog finds it, while the FCFS fresh sublist and the
   rank queues' fresh heap never held it. *)
let test_pop_not_started () =
  let q = Policy.create Policy.Fcfs in
  let started = request ~id:1 () in
  started.Request.started <- true;
  Policy.push_preempted q started;
  Policy.push_new q (request ~id:2 ());
  Alcotest.(check bool) "has fresh" true (Policy.has_not_started q);
  (match Policy.pop_not_started q with
  | Some r -> Alcotest.(check int) "skips started head" 2 r.Request.id
  | None -> Alcotest.fail "found none");
  Alcotest.(check bool) "only started left" false (Policy.has_not_started q);
  Alcotest.(check int) "started request still queued" 1 (Policy.length q);
  let depth = 32_768 in
  List.iter
    (fun kind ->
      let name = Policy.kind_name kind in
      let q = Policy.create kind in
      let backlog =
        Array.init depth (fun i ->
            let r = request ~id:(i + 1) () in
            r.Request.started <- true;
            r)
      in
      Array.iter (Policy.push_preempted q) backlog;
      backlog.(depth - 1).Request.started <- false;
      Alcotest.(check bool) (name ^ ": backlog claims no fresh work") false
        (Policy.has_not_started q);
      Alcotest.(check bool) (name ^ ": backlog yields no steal candidate") true
        (Policy.pop_not_started q = None);
      Policy.push_new q (request ~id:0 ());
      (match Policy.pop_not_started q with
      | Some r -> Alcotest.(check int) (name ^ ": steals the fresh request") 0 r.Request.id
      | None -> Alcotest.failf "%s: the fresh request was not found" name);
      Alcotest.(check bool) (name ^ ": none fresh left") false (Policy.has_not_started q);
      Alcotest.(check int) (name ^ ": backlog intact") depth (Policy.length q))
    [
      Policy.Fcfs;
      Policy.Locality_fcfs;
      Policy.Srpt;
      Policy.Srpt_noisy { sigma = 1.0 };
      Policy.Srpt_kv { means_ns = [| 1_000 |] };
      Policy.Gittins
        (Repro_workload.Gittins.of_dist
           (Repro_workload.Service_dist.Exponential { mean_ns = 5_000.0 }));
    ]

let prop_policy_conserves =
  let gittins =
    Policy.Gittins
      (Repro_workload.Gittins.of_dist
         (Repro_workload.Service_dist.Exponential { mean_ns = 5_000.0 }))
  in
  QCheck.Test.make ~count:200 ~name:"every policy pops each pushed request exactly once"
    QCheck.(pair (int_range 0 4) (list_of_size (Gen.int_range 0 30) (int_range 1 10_000)))
    (fun (kind_idx, services) ->
      let kind =
        List.nth
          [
            Policy.Fcfs;
            Policy.Srpt;
            Policy.Locality_fcfs;
            Policy.Srpt_noisy { sigma = 1.0 };
            gittins;
          ]
          kind_idx
      in
      let q = Policy.create kind in
      List.iteri (fun id s -> Policy.push_new q (request ~id ~service_ns:s ())) services;
      let popped = ids q ~worker:0 in
      List.sort compare popped = List.init (List.length services) (fun i -> i))

(* A rank queue answers emptiness from each heap's next key, [max_int] when
   the heap is empty, so a rank of [max_int] must not get in: the pushes
   refuse it and leave the queue as it was. A rank one below is fine. *)
let test_rank_max_int_refused () =
  let refused = Invalid_argument "Policy: a request's rank is max_int" in
  let q = Policy.create Policy.Srpt in
  Alcotest.check_raises "fresh rank max_int" refused (fun () ->
      Policy.push_new q (request ~id:1 ~service_ns:max_int ()));
  let started = request ~id:2 ~service_ns:max_int () in
  started.Request.started <- true;
  Alcotest.check_raises "preempted rank max_int" refused (fun () ->
      Policy.push_preempted q started);
  Alcotest.(check bool) "still empty" true (Policy.is_empty q && Policy.pop q ~worker:0 = None);
  Policy.push_new q (request ~id:3 ~service_ns:(max_int - 1) ());
  Alcotest.(check bool) "no longer empty" false (Policy.is_empty q);
  Alcotest.(check (list int)) "rank max_int - 1 pops" [ 3 ] (ids q ~worker:0)

(* Over random pushes and pops of both kinds, [is_empty], [has_not_started]
   and [length] agree with counts of the fresh and the preempted requests
   queued, under SRPT and under Gittins (where every fresh request has the
   same rank). *)
let prop_rank_queue_reads =
  let gittins =
    Policy.Gittins
      (Repro_workload.Gittins.of_dist
         (Repro_workload.Service_dist.Exponential { mean_ns = 5_000.0 }))
  in
  QCheck.Test.make ~count:200 ~name:"rank queue emptiness reads agree with its contents"
    QCheck.(
      pair bool (list_of_size (Gen.int_range 0 40) (pair (int_range 0 3) (int_range 1 10_000))))
    (fun (use_gittins, ops) ->
      let q = Policy.create (if use_gittins then gittins else Policy.Srpt) in
      let fresh = ref 0 and started = ref 0 in
      let agrees () =
        Policy.is_empty q = (!fresh + !started = 0)
        && Policy.has_not_started q = (!fresh > 0)
        && Policy.length q = !fresh + !started
      in
      List.for_all
        (fun (op, s) ->
          (match op with
          | 0 ->
            Policy.push_new q (request ~id:s ~service_ns:s ());
            incr fresh
          | 1 ->
            let r = request ~id:s ~service_ns:(s + 10) () in
            r.Request.started <- true;
            r.Request.done_ns <- 10;
            Policy.push_preempted q r;
            incr started
          | 2 -> (
            match Policy.pop q ~worker:0 with
            | Some r -> if r.Request.started then decr started else decr fresh
            | None -> ())
          | _ -> if Policy.pop_not_started q <> None then decr fresh);
          agrees ())
        ops)

(* --- local queue --------------------------------------------------------- *)

let test_local_queue_fifo () =
  let q = Local_queue.create ~capacity:3 in
  List.iter (fun id -> Local_queue.push q (request ~id ())) [ 1; 2; 3 ];
  Alcotest.(check bool) "full" true (Local_queue.is_full q);
  let order =
    List.init 3 (fun _ ->
        match Local_queue.pop q with Some r -> r.Request.id | None -> -1)
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] order;
  Alcotest.(check bool) "empty" true (Local_queue.is_empty q)

let test_local_queue_bounds () =
  let q = Local_queue.create ~capacity:1 in
  Local_queue.push q (request ());
  Alcotest.check_raises "overflow" (Invalid_argument "Local_queue.push: queue full")
    (fun () -> Local_queue.push q (request ()))

let test_local_queue_zero_capacity () =
  let q = Local_queue.create ~capacity:0 in
  Alcotest.(check bool) "always full" true (Local_queue.is_full q);
  Alcotest.(check bool) "pop empty" true (Local_queue.pop q = None)

let test_local_queue_wraparound () =
  let q = Local_queue.create ~capacity:2 in
  for round = 0 to 9 do
    Local_queue.push q (request ~id:round ());
    match Local_queue.pop q with
    | Some r -> Alcotest.(check int) "wrap fifo" round r.Request.id
    | None -> Alcotest.fail "pop"
  done

(* --- config ---------------------------------------------------------------- *)

let test_config_validation () =
  let ok = Systems.concord () in
  Config.validate ok;
  Alcotest.check_raises "no workers" (Invalid_argument "Config: need at least one worker")
    (fun () -> Config.validate { ok with Config.n_workers = 0 });
  Alcotest.check_raises "bad quantum" (Invalid_argument "Config: quantum must be positive")
    (fun () -> Config.validate { ok with Config.quantum_ns = 0 });
  Alcotest.check_raises "bad depth" (Invalid_argument "Config: JBSQ depth must be >= 1")
    (fun () -> Config.validate { ok with Config.queue_model = Config.Jbsq 0 })

let test_jbsq_depth () =
  Alcotest.(check int) "SQ depth 1" 1 (Config.jbsq_depth (Systems.shinjuku ()));
  Alcotest.(check int) "concord depth 2" 2 (Config.jbsq_depth (Systems.concord ()))

let test_system_presets () =
  List.iter
    (fun name ->
      match Systems.by_name name with
      | Some make -> Config.validate (make ())
      | None -> Alcotest.failf "missing system %s" name)
    Systems.all_names;
  let shinjuku = Systems.shinjuku () in
  Alcotest.(check bool) "shinjuku is SQ" true
    (shinjuku.Config.queue_model = Config.Single_queue);
  Alcotest.(check bool) "shinjuku no steal" false shinjuku.Config.dispatcher_steals;
  let concord = Systems.concord () in
  Alcotest.(check bool) "concord steals" true concord.Config.dispatcher_steals;
  Alcotest.(check bool) "concord JBSQ(2)" true (concord.Config.queue_model = Config.Jbsq 2)

(* --- metrics ----------------------------------------------------------------- *)

let completed_request ?class_id ~id ~arrival_ns ~service_ns ~completion_ns () =
  let r = request ~id ~arrival_ns ?class_id ~service_ns () in
  r.Request.completion_ns <- completion_ns;
  r

let test_metrics_warmup_cutoff () =
  let m = Metrics.create ~warmup_before:5 ~n_classes:1 in
  for id = 0 to 9 do
    Metrics.record_completion m
      (completed_request ~id ~arrival_ns:0 ~service_ns:100 ~completion_ns:200 ())
  done;
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:1_000 ~n_workers:1 ~class_names:[| "c" |]
  in
  Alcotest.(check int) "all completions counted" 10 s.Metrics.completed;
  Alcotest.(check int) "warmup excluded from samples" 5 s.Metrics.measured

let test_metrics_censoring () =
  let m = Metrics.create ~warmup_before:0 ~n_classes:1 in
  Metrics.record_censored m (request ~id:0 ~arrival_ns:0 ~service_ns:100 ()) ~now_ns:10_000;
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:10_000 ~n_workers:1 ~class_names:[| "c" |]
  in
  Alcotest.(check int) "censored counted" 1 s.Metrics.censored;
  Alcotest.(check int) "censored measured separately" 1 s.Metrics.measured_censored;
  (* Regression: censored requests used to leak into [measured] via the
     shared slowdown sample pool; they are not completions. *)
  Alcotest.(check int) "censored not measured as completion" 0 s.Metrics.measured;
  Alcotest.(check (float 1e-6)) "lower-bound slowdown recorded" 100.0 s.Metrics.p999_slowdown

let test_metrics_percentiles () =
  let m = Metrics.create ~warmup_before:0 ~n_classes:2 in
  (* 9 fast requests in class 0, one slow one in class 1 *)
  for id = 0 to 8 do
    Metrics.record_completion m
      (completed_request ~id ~arrival_ns:0 ~service_ns:100 ~completion_ns:100 ())
  done;
  (* class_id out of range exercises the per-class guard *)
  let slow =
    completed_request ~class_id:7 ~id:9 ~arrival_ns:0 ~service_ns:100 ~completion_ns:1_000 ()
  in
  Metrics.record_completion m slow;
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:1_000 ~n_workers:1
      ~class_names:[| "fast"; "slow" |]
  in
  Alcotest.(check (float 1e-6)) "p50" 1.0 s.Metrics.p50_slowdown;
  Alcotest.(check (float 1e-6)) "p99.9 is the max" 10.0 s.Metrics.p999_slowdown

let test_negative_idle_gap_counter () =
  let m = Metrics.create ~warmup_before:0 ~n_classes:1 in
  Metrics.record_idle_gap m (-5);
  Metrics.record_idle_gap m 10;
  Metrics.record_idle_gap m (-1);
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:1_000 ~n_workers:1 ~class_names:[| "c" |]
  in
  Alcotest.(check int) "negative gaps counted, not dropped" 2 s.Metrics.negative_idle_gaps;
  Alcotest.(check (float 1e-6)) "distribution keeps only valid gaps" 10.0
    s.Metrics.median_idle_gap_ns

let test_goodput_single_completion () =
  (* Regression: with exactly one measured completion the goodput used to be
     divided by the whole run span (including warmup and drain), reporting a
     near-zero goodput for short runs. It must span the request's sojourn. *)
  let m = Metrics.create ~warmup_before:1 ~n_classes:1 in
  Metrics.record_completion m
    (completed_request ~id:0 ~arrival_ns:0 ~service_ns:100 ~completion_ns:500 ());
  Metrics.record_completion m
    (completed_request ~id:1 ~arrival_ns:1_000 ~service_ns:100 ~completion_ns:2_000 ());
  let s =
    Metrics.summarize m ~offered_rps:1.0 ~span_ns:500_000_000 ~n_workers:1
      ~class_names:[| "c" |]
  in
  Alcotest.(check int) "one measured completion" 1 s.Metrics.measured;
  (* 1 completion over its own 1000ns sojourn = 1e6 rps. *)
  Alcotest.(check (float 1.0)) "goodput spans the measured sojourn" 1e6 s.Metrics.goodput_rps

let test_ingress_batch_cost () =
  let module Costs = Repro_hw.Costs in
  let d = Costs.default in
  (* Default 150-cycle ingress: marginal is the historical 40% = 60. *)
  Alcotest.(check int) "marginal at default" 60 (Costs.ingress_batch_marginal_cycles d);
  Alcotest.(check int) "batch of one pays full price" d.Costs.disp_ingress_cycles
    (Costs.ingress_batch_cost_cycles d ~batch:1);
  Alcotest.(check int) "batch of three" (150 + (2 * 60))
    (Costs.ingress_batch_cost_cycles d ~batch:3);
  (* Regression: tiny ingress costs used to truncate the marginal to 0,
     making arbitrarily large batches free. *)
  let tiny = { d with Costs.disp_ingress_cycles = 1 } in
  Alcotest.(check bool) "marginal never truncates to 0" true
    (Costs.ingress_batch_marginal_cycles tiny >= 1);
  Alcotest.(check bool) "large batches are never free" true
    (Costs.ingress_batch_cost_cycles tiny ~batch:100 > Costs.ingress_batch_cost_cycles tiny ~batch:1);
  (* Zero-cost model stays zero-cost. *)
  Alcotest.(check int) "zero-overhead batches stay free" 0
    (Costs.ingress_batch_cost_cycles Costs.zero_overhead ~batch:8)

let suite =
  [
    Alcotest.test_case "request lifecycle" `Quick test_request_lifecycle;
    Alcotest.test_case "lock deferral: outside windows" `Quick test_defer_outside_window;
    Alcotest.test_case "lock deferral: inside windows" `Quick test_defer_inside_window;
    Alcotest.test_case "lock deferral clamps to service" `Quick test_defer_clamps_to_service;
    Alcotest.test_case "sojourn requires completion" `Quick test_sojourn_requires_completion;
    Alcotest.test_case "FCFS order" `Quick test_fcfs_order;
    Alcotest.test_case "FCFS re-enqueues preempted at tail" `Quick test_fcfs_preempted_to_tail;
    Alcotest.test_case "SRPT least-remaining order" `Quick test_srpt_order;
    Alcotest.test_case "locality prefers last worker" `Quick test_locality_prefers_last_worker;
    Alcotest.test_case "dispatcher steals only fresh requests" `Quick test_pop_not_started;
    Alcotest.test_case "rank queues refuse a max_int rank" `Quick test_rank_max_int_refused;
    QCheck_alcotest.to_alcotest prop_rank_queue_reads;
    QCheck_alcotest.to_alcotest prop_policy_conserves;
    Alcotest.test_case "local queue FIFO" `Quick test_local_queue_fifo;
    Alcotest.test_case "local queue bounds" `Quick test_local_queue_bounds;
    Alcotest.test_case "local queue zero capacity" `Quick test_local_queue_zero_capacity;
    Alcotest.test_case "local queue wraparound" `Quick test_local_queue_wraparound;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "jbsq depth" `Quick test_jbsq_depth;
    Alcotest.test_case "system presets" `Quick test_system_presets;
    Alcotest.test_case "metrics warmup cutoff" `Quick test_metrics_warmup_cutoff;
    Alcotest.test_case "metrics censoring" `Quick test_metrics_censoring;
    Alcotest.test_case "metrics percentiles" `Quick test_metrics_percentiles;
    Alcotest.test_case "negative idle gaps are counted" `Quick test_negative_idle_gap_counter;
    Alcotest.test_case "goodput with one measured completion" `Quick
      test_goodput_single_completion;
    Alcotest.test_case "batched ingress cost never truncates" `Quick test_ingress_batch_cost;
  ]
