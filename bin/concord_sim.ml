(* concord-sim: command-line driver for the Concord reproduction.

   Subcommands:
     list                      enumerate figures, systems, workloads
     figure <id> [--full]     regenerate one paper figure/ablation
     table1                    regenerate Table 1
     sweep ...                 load-sweep a system on a workload
     run ...                   one load point with a detailed summary *)

open Cmdliner

let print_figure fig = print_endline (Concord.Figure.render fig)

(* ---- list ---------------------------------------------------------- *)

let list_cmd =
  let action () =
    print_endline "figures:";
    List.iter (fun (id, _) -> Printf.printf "  %s\n" id) Concord.Figures.all;
    print_endline "  table1";
    print_endline "systems:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Concord.Systems.all_names;
    print_endline "workloads:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) Concord.Presets.all;
    print_endline "  leveldb[:zipf=A]";
    print_endline "  leveldb-zippydb[:zipf=A]"
  in
  Cmd.v (Cmd.info "list" ~doc:"List available figures, systems and workloads.")
    Term.(const action $ const ())

(* ---- figure -------------------------------------------------------- *)

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at full scale (4x the requests per point).")

let figure_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Figure id (see list).")
  in
  let csv_flag =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an aligned table.")
  in
  let action id full csv =
    let scale = if full then Concord.Figures.Full else Concord.Figures.Quick in
    if String.equal id "table1" then print_endline (Concord.Table1.render (Concord.Table1.rows ()))
    else begin
      match Concord.Figures.by_id id with
      | Some make ->
        let fig = make ~scale () in
        if csv then print_string (Concord.Figure.to_csv fig) else print_figure fig
      | None ->
        prerr_endline ("unknown figure id: " ^ id);
        exit 1
    end
  in
  Cmd.v (Cmd.info "figure" ~doc:"Regenerate one figure or table from the paper.")
    Term.(const action $ id $ full_flag $ csv_flag)

(* ---- table1 --------------------------------------------------------- *)

let table1_cmd =
  let action () = print_endline (Concord.Table1.render (Concord.Table1.rows ())) in
  Cmd.v (Cmd.info "table1" ~doc:"Regenerate Table 1 (instrumentation overhead/timeliness).")
    Term.(const action $ const ())

(* ---- shared options -------------------------------------------------- *)

let system_arg =
  Arg.(value & opt string "concord" & info [ "system"; "s" ] ~docv:"SYSTEM" ~doc:"System preset.")

let workload_arg =
  Arg.(
    value & opt string "ycsb-a" & info [ "workload"; "w" ] ~docv:"WORKLOAD" ~doc:"Workload name.")

let quantum_arg =
  Arg.(value & opt float 5.0 & info [ "quantum"; "q" ] ~docv:"US" ~doc:"Scheduling quantum (us).")

let workers_arg =
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc:"Worker threads.")

let requests_arg =
  Arg.(value & opt int 60_000 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Arrivals per point.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let central_policy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "policy"; "p" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf "Central-queue scheduling policy: %s (overrides the preset's)."
             Concord.Policy.spec_syntax))

let resolve ?policy ~system ~workload ~quantum ~workers () =
  match Concord.configure ~system ?n_workers:workers ~quantum_us:quantum () with
  | Error e ->
    prerr_endline e;
    exit 1
  | Ok config -> (
    match Concord.workload workload with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok mix -> (
      match policy with
      | None -> (config, mix)
      | Some spec -> (
        match Concord.with_policy config ~spec ~mix with
        | Error e ->
          prerr_endline e;
          exit 1
        | Ok config -> (config, mix))))

(* Every --rate flag is in kRps. A rate the run entry points would reject
   (NaN, infinite, not positive, or so small that the mean gap overflows)
   is an ordinary error, reported with the library's message. *)
let rate_rps_of_krps krps =
  let rate_rps = krps *. 1e3 in
  match Concord.Arrival.validate (Concord.Arrival.Poisson { rate_rps }) with
  | () -> rate_rps
  | exception Invalid_argument e ->
    prerr_endline e;
    exit 1

(* ---- sweep ----------------------------------------------------------- *)

let sweep_cmd =
  let points_arg =
    Arg.(value & opt int 10 & info [ "points" ] ~docv:"N" ~doc:"Sweep points.")
  in
  let action system workload quantum workers policy points n_requests seed =
    let config, mix = resolve ?policy ~system ~workload ~quantum ~workers () in
    let sweep = Concord.sweep ~config ~mix ~points ~n_requests ~seed () in
    Printf.printf "%s on %s\n" (Concord.Config.describe config) sweep.Concord.Sweep.workload;
    print_endline Concord.Metrics.summary_header;
    List.iter
      (fun (p : Concord.Sweep.point) ->
        print_endline (Concord.Metrics.summary_row p.summary))
      sweep.Concord.Sweep.points;
    match Concord.max_load_under_slo sweep with
    | Some rate -> Printf.printf "max load under 50x p99.9 slowdown: %.1f kRps\n" (rate /. 1e3)
    | None -> print_endline "SLO violated at every load point"
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Run a load sweep and report the SLO crossing.")
    Term.(
      const action $ system_arg $ workload_arg $ quantum_arg $ workers_arg
      $ central_policy_arg $ points_arg $ requests_arg $ seed_arg)

(* ---- run -------------------------------------------------------------- *)

let run_cmd =
  let rate_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "rate"; "r" ] ~docv:"KRPS" ~doc:"Offered load in kRps.")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Export the request-lifecycle trace as Chrome trace-event JSON (Perfetto).")
  in
  let breakdown_flag =
    Arg.(
      value & flag
      & info [ "breakdown" ] ~doc:"Print the per-request latency-breakdown percentile table.")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the summary: every arrival completed or censored, non-zero goodput. \
             Non-zero exit on failure.")
  in
  let action system workload quantum workers policy rate n_requests seed trace_file breakdown
      check =
    let config, mix = resolve ?policy ~system ~workload ~quantum ~workers () in
    let tracer =
      if trace_file <> None || breakdown then
        Some (Repro_runtime.Tracing.create ~capacity:(max 65_536 (n_requests * 64)) ())
      else None
    in
    let s =
      Concord.run ~config ~mix ~rate_rps:(rate_rps_of_krps rate) ~n_requests ~seed ?tracer ()
    in
    Printf.printf "%s\n" (Concord.Config.describe config);
    Printf.printf "workload: %s, offered %.1f kRps\n" mix.Concord.Mix.name rate;
    print_endline Concord.Metrics.summary_header;
    print_endline (Concord.Metrics.summary_row s);
    Printf.printf
      "dispatcher: %.1f%% dispatching + %.1f%% stolen app work; worker busy %.1f%%\n"
      (100. *. s.Concord.Metrics.dispatcher_busy_frac)
      (100. *. s.Concord.Metrics.dispatcher_app_frac)
      (100. *. s.Concord.Metrics.worker_busy_frac);
    Array.iter
      (fun (name, count, p999) ->
        if count > 0 then Printf.printf "  class %-10s n=%-8d p99.9 slowdown=%.2f\n" name count p999)
      s.Concord.Metrics.per_class;
    Option.iter
      (fun tracer ->
        let cswitch =
          Repro_hw.Costs.ns_of config.Concord.Config.costs
            config.Concord.Config.costs.Repro_hw.Costs.context_switch_cycles
        in
        if breakdown then
          print_string
            (Repro_runtime.Breakdown.render
               (Repro_runtime.Breakdown.of_trace ~cswitch_cost_ns:cswitch tracer));
        Option.iter
          (fun path ->
            Repro_runtime.Trace_export.write_file ~path
              (Repro_runtime.Trace_export.tracer_to_chrome_json
                 tracer);
            Printf.printf "trace written to %s (open in ui.perfetto.dev)\n" path)
          trace_file)
      tracer;
    if check then begin
      let failures = ref 0 in
      if s.Concord.Metrics.completed + s.Concord.Metrics.censored <> n_requests then begin
        Printf.eprintf "check: %d completed + %d censored <> %d arrivals\n"
          s.Concord.Metrics.completed s.Concord.Metrics.censored n_requests;
        incr failures
      end;
      if s.Concord.Metrics.completed = 0 then begin
        prerr_endline "check: nothing completed";
        incr failures
      end;
      if not (s.Concord.Metrics.goodput_rps > 0.0) then begin
        Printf.eprintf "check: non-positive goodput %f\n" s.Concord.Metrics.goodput_rps;
        incr failures
      end;
      if !failures > 0 then exit 1
      else
        Printf.printf "check: conservation holds (%d completed, %d censored)\n"
          s.Concord.Metrics.completed s.Concord.Metrics.censored
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one load point and print a detailed summary.")
    Term.(
      const action $ system_arg $ workload_arg $ quantum_arg $ workers_arg
      $ central_policy_arg $ rate_arg $ requests_arg $ seed_arg $ trace_file_arg
      $ breakdown_flag $ check_flag)

(* ---- replicate (6) ----------------------------------------------------- *)

let replicate_cmd =
  let instances_arg =
    Arg.(value & opt int 2 & info [ "instances" ] ~docv:"K" ~doc:"Replica count.")
  in
  let rate_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "rate"; "r" ] ~docv:"KRPS" ~doc:"Total offered load in kRps.")
  in
  let action system workload quantum workers instances rate n_requests seed =
    let config, mix = resolve ~system ~workload ~quantum ~workers () in
    let s =
      Repro_cluster.Replication.run ~instances ~config ~mix ~rate_rps:(rate_rps_of_krps rate)
        ~n_requests ~seed ()
    in
    Printf.printf "%d x { %s }\n" instances (Concord.Config.describe config);
    Printf.printf "total %.1f kRps -> goodput %.1f kRps, p50 %.2f, p99 %.2f, p99.9 %.2f\n"
      (s.Repro_cluster.Replication.offered_rps /. 1e3)
      (s.Repro_cluster.Replication.goodput_rps /. 1e3)
      s.Repro_cluster.Replication.p50_slowdown s.Repro_cluster.Replication.p99_slowdown
      s.Repro_cluster.Replication.p999_slowdown
  in
  Cmd.v
    (Cmd.info "replicate" ~doc:"Run K single-dispatcher replicas with disjoint workers (6).")
    Term.(
      const action $ system_arg $ workload_arg $ quantum_arg $ workers_arg $ instances_arg
      $ rate_arg $ requests_arg $ seed_arg)

(* ---- raft (replicated tier) -------------------------------------------- *)

let raft_mix workload =
  (* the study's canonical workload is a fixed-size op; accept
     [fixed:US] alongside the preset names *)
  match String.index_opt workload ':' with
  | Some i when String.sub workload 0 i = "fixed" -> (
    match float_of_string_opt (String.sub workload (i + 1) (String.length workload - i - 1)) with
    | Some us when us > 0.0 ->
      Ok
        (Concord.Mix.of_dist
           ~name:(Printf.sprintf "fixed-%gus" us)
           (Repro_workload.Service_dist.Fixed (us *. 1e3)))
    | _ -> Error (Printf.sprintf "bad fixed workload spec: %s (want fixed:US)" workload))
  | _ -> Concord.workload workload

let raft_capacity_rps (raft : Repro_raft.Raft.t) mix =
  let module Raft = Repro_raft.Raft in
  let total_workers =
    Array.fold_left
      (fun acc (s : Repro_cluster.Cluster.instance_spec) -> acc + s.config.Concord.Config.n_workers)
      0 raft.Raft.specs
  in
  (* Each write adds a durable append at the leader and an AppendEntries
     mini at every follower on top of its own service time; capacity is
     aggregate work, so fold that in or the default load point melts the
     leader. *)
  let costs = raft.Raft.specs.(0).config.Concord.Config.costs in
  let nodes = Array.length raft.Raft.specs in
  let consensus_ns =
    float_of_int
      (Repro_hw.Costs.ns_of costs raft.Raft.log_write_cycles
      + ((nodes - 1) * Repro_hw.Costs.ns_of costs raft.Raft.follower_ae_cycles))
  in
  let eff_service_ns =
    Concord.Mix.mean_service_ns mix +. (raft.Raft.write_ratio *. consensus_ns)
  in
  float_of_int total_workers /. eff_service_ns *. 1e9

(* The cluster command's choice of discrete-event engine (single-point
   runs only; sweeps parallelize across points with --jobs instead). *)
let engine_arg =
  Arg.(
    value & opt string "seq"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Simulation engine: seq (shared clock), par (conservative time-window parallel \
           engine, one domain per server instance) or par:N (N domains). Models without \
           lookahead (rtt 0, hedging) degrade to seq with a warning.")

let parse_engine spec =
  match Repro_engine.Par_sim.of_string spec with
  | Ok e -> e
  | Error e ->
    prerr_endline e;
    exit 1

let raft_cmd =
  let module Raft = Repro_raft.Raft in
  let module Lb_policy = Repro_cluster.Lb_policy in
  let policy_arg =
    Arg.(
      value & opt_all string []
      & info [ "policy"; "p" ] ~docv:"POLICY"
          ~doc:
            (Printf.sprintf
               "Lease-read routing policy (%s, default po2c) or per-member central-queue \
                policy (%s); repeatable to set both."
               (String.concat ", " Lb_policy.all_names)
               Concord.Policy.spec_syntax))
  in
  let nodes_arg =
    Arg.(value & opt int 3 & info [ "nodes" ] ~docv:"K" ~doc:"Raft group members.")
  in
  let rtt_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "rtt-cycles" ] ~docv:"CYCLES"
          ~doc:
            "Inter-member round trip in cycles; AppendEntries, acks, votes and heartbeats \
             each take half of it one way (default 880000 = 440us).")
  in
  let leases_arg =
    Arg.(
      value & opt bool true
      & info [ "read-leases" ] ~docv:"BOOL"
          ~doc:
            "Serve reads from leaseholders without consensus (default true); false sends \
             reads through the replicated log too.")
  in
  let write_ratio_arg =
    Arg.(
      value & opt float 0.5
      & info [ "write-ratio" ] ~docv:"F" ~doc:"Fraction of arrivals that are writes.")
  in
  let hedge_arg =
    Arg.(
      value & opt string "off"
      & info [ "hedge" ] ~docv:"SPEC"
          ~doc:
            (Printf.sprintf
               "Hedge lease reads (%s): duplicate a slow read onto another leaseholder; \
                first completion wins. Writes are never hedged."
               (String.concat ", " Repro_cluster.Hedge.all_names)))
  in
  let kill_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "kill-leader-at" ] ~docv:"US"
          ~doc:"Crash the current leader at this simulated time (us) and fail over.")
  in
  let straggler_arg =
    Arg.(
      value
      & opt_all (pair ~sep:':' int float) []
      & info [ "straggler" ] ~docv:"IDX:FACTOR"
          ~doc:"Make member IDX execute everything FACTOR times slower (repeatable).")
  in
  let cancel_cost_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel-cost-cycles" ] ~docv:"CYCLES"
          ~doc:"Dispatcher cost of revoking a cancelled hedge duplicate.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate"; "r" ] ~docv:"KRPS"
          ~doc:"Offered load in kRps (default: 40% of the group's ideal direct capacity).")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Export the all-member trace as Chrome trace-event JSON (Perfetto).")
  in
  let breakdown_flag =
    Arg.(
      value & flag
      & info [ "breakdown" ]
          ~doc:
            "Print the latency-breakdown percentile table; consensus time shows up as its \
             own component.")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate conservation and the Raft invariants (monotone commit indexes, one \
             leader per term, no committed-entry loss); non-zero exit on failure.")
  in
  let sweep_flag =
    Arg.(value & flag & info [ "sweep" ] ~doc:"Sweep offered load instead of one point.")
  in
  let points_arg =
    Arg.(value & opt int 8 & info [ "points" ] ~docv:"N" ~doc:"Sweep points (with --sweep).")
  in
  let action system workload quantum workers policies nodes rtt leases write_ratio hedge_spec
      kill_us stragglers cancel_cost rate n_requests seed trace_file breakdown check sweep
      points =
    let config, mix = resolve ~system ~workload ~quantum ~workers () in
    let read_lb, config =
      List.fold_left
        (fun (lb, config) spec ->
          match Lb_policy.of_string spec with
          | Ok p -> (p, config)
          | Error lb_err -> (
            match Concord.with_policy config ~spec ~mix with
            | Ok config -> (lb, config)
            | Error policy_err ->
              Printf.eprintf "%s\n%s\n" lb_err policy_err;
              exit 1))
        (Lb_policy.Po2c, config) policies
    in
    let hedge =
      match Repro_cluster.Hedge.of_string hedge_spec with
      | Ok h -> h
      | Error e ->
        prerr_endline e;
        exit 1
    in
    let kill_leader_at_ns = Option.map (fun us -> int_of_float (us *. 1e3)) kill_us in
    let raft =
      try
        Raft.homogeneous ~read_lb ?rtt_cycles:rtt ~read_leases:leases ~write_ratio ~hedge
          ?kill_leader_at_ns ?cancel_cost_cycles:cancel_cost ~stragglers ~nodes config
      with Invalid_argument e ->
        prerr_endline e;
        exit 1
    in
    let capacity_rps = raft_capacity_rps raft mix in
    let describe () =
      Printf.printf "raft: %d x { %s }, read_lb %s, rtt %d cycles, leases %s, writes %.0f%%%s%s%s\n"
        nodes
        (Concord.Config.describe config)
        (Lb_policy.name read_lb) raft.Raft.rtt_cycles
        (if leases then "on" else "off")
        (100. *. write_ratio)
        (if hedge = Repro_cluster.Hedge.Off then ""
         else ", hedge " ^ Repro_cluster.Hedge.name hedge)
        (match kill_us with
        | Some us -> Printf.sprintf ", leader killed at %.0fus" us
        | None -> "")
        (if stragglers = [] then ""
         else
           ", stragglers "
           ^ String.concat "," (List.map (fun (i, f) -> Printf.sprintf "%d:%.2gx" i f) stragglers))
    in
    let run_at ?tracer rate_rps =
      Raft.run ~raft ~mix ~arrival:(Concord.Arrival.Poisson { rate_rps }) ~n_requests ~seed
        ?tracer ()
    in
    if sweep then begin
      describe ();
      Printf.printf "workload: %s\n" mix.Concord.Mix.name;
      Printf.printf "%9s %9s %9s %9s %9s %9s %9s\n" "kRps" "w_p50us" "w_p99us" "r_p50us"
        "r_p99us" "censored" "parked";
      for i = 1 to points do
        let rate_rps = 0.9 *. capacity_rps *. float_of_int i /. float_of_int points in
        let s = run_at rate_rps in
        Printf.printf "%9.1f %9.1f %9.1f %9.1f %9.1f %9d %9d\n" (rate_rps /. 1e3)
          (s.Raft.write_p50_ns /. 1e3)
          (s.Raft.write_p99_ns /. 1e3)
          (s.Raft.read_p50_ns /. 1e3)
          (s.Raft.read_p99_ns /. 1e3)
          s.Raft.client.Concord.Metrics.censored s.Raft.parked;
        if check then begin
          match Raft.check_invariants s with
          | Ok () -> ()
          | Error msg ->
            Printf.eprintf "check (%.1f kRps): %s\n" (rate_rps /. 1e3) msg;
            exit 1
        end
      done;
      if check then print_endline "check: invariants hold at every sweep point"
    end
    else begin
      let tracer =
        if trace_file <> None || breakdown then
          Some (Repro_runtime.Tracing.create ~capacity:(max 65_536 (n_requests * 64)) ())
        else None
      in
      let rate_rps =
        match rate with Some k -> rate_rps_of_krps k | None -> 0.4 *. capacity_rps
      in
      let s = run_at ?tracer rate_rps in
      describe ();
      Printf.printf "workload: %s, offered %.1f kRps (%.0f%% of direct capacity)\n"
        mix.Concord.Mix.name (rate_rps /. 1e3)
        (100. *. rate_rps /. capacity_rps);
      print_string (Raft.summary_to_string s);
      Option.iter
        (fun tracer ->
          let cswitch =
            Repro_hw.Costs.ns_of config.Concord.Config.costs
              config.Concord.Config.costs.Repro_hw.Costs.context_switch_cycles
          in
          if breakdown then
            print_string
              (Repro_runtime.Breakdown.render
                 (Repro_runtime.Breakdown.of_trace ~cswitch_cost_ns:cswitch tracer));
          Option.iter
            (fun path ->
              Repro_runtime.Trace_export.write_file ~path
                (Repro_runtime.Trace_export.tracer_to_chrome_json tracer);
              Printf.printf "trace written to %s (open in ui.perfetto.dev)\n" path)
            trace_file)
        tracer;
      if check then begin
        match Raft.check_invariants s with
        | Ok () ->
          Printf.printf "check: invariants hold (%d requests, %d elections, final term %d)\n"
            s.Raft.requests s.Raft.elections s.Raft.final_term
        | Error msg ->
          Printf.eprintf "check: %s\n" msg;
          exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "raft"
       ~doc:
         "Run a simulated Raft group of server instances: writes replicate through a \
          quorum-acknowledged log, reads bypass consensus via leader leases.")
    Term.(
      const action $ system_arg $ workload_arg $ quantum_arg $ workers_arg $ policy_arg
      $ nodes_arg $ rtt_arg $ leases_arg $ write_ratio_arg $ hedge_arg $ kill_arg
      $ straggler_arg $ cancel_cost_arg $ rate_arg
      $ Arg.(value & opt int 20_000 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Arrivals.")
      $ seed_arg $ trace_file_arg $ breakdown_flag $ check_flag $ sweep_flag $ points_arg)

(* ---- raft-study -------------------------------------------------------- *)

let raft_study_cmd =
  let module Raft = Repro_raft.Raft in
  let nodes_arg =
    Arg.(
      value
      & opt (list int) [ 1; 3; 5 ]
      & info [ "nodes" ] ~docv:"K,..." ~doc:"Comma-separated group sizes.")
  in
  let rtts_arg =
    Arg.(
      value
      & opt (list int) [ 880_000 ]
      & info [ "rtts" ] ~docv:"C,..." ~doc:"Comma-separated inter-member RTTs in cycles.")
  in
  let wratios_arg =
    Arg.(
      value
      & opt (list float) [ 0.5 ]
      & info [ "write-ratios" ] ~docv:"F,..." ~doc:"Comma-separated write ratios.")
  in
  let rate_arg =
    Arg.(
      value & opt float 4.0
      & info [ "rate"; "r" ] ~docv:"KRPS"
          ~doc:"Offered load in kRps (keep it low: the study measures intrinsic latency).")
  in
  let workload_arg =
    Arg.(
      value & opt string "fixed:50"
      & info [ "workload"; "w" ] ~docv:"WORKLOAD"
          ~doc:"Workload preset, or fixed:US for single-size ops (default fixed:50).")
  in
  let csv_flag = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of the table.") in
  let action system workload quantum workers nodes_list rtts wratios rate n_requests seed csv =
    let config, _ = resolve ~system ~workload:"ycsb-a" ~quantum ~workers () in
    let mix =
      match raft_mix workload with
      | Ok m -> m
      | Error e ->
        prerr_endline e;
        exit 1
    in
    let rate_rps = rate_rps_of_krps rate in
    let arrival = Concord.Arrival.Poisson { rate_rps } in
    (* The direct baseline is the same machinery with consensus off the
       path: one member, reads only, served straight from its lease. *)
    let direct =
      Raft.run
        ~raft:(Raft.homogeneous ~write_ratio:0.0 ~nodes:1 config)
        ~mix ~arrival ~n_requests ~seed ()
    in
    let direct_p50 = direct.Raft.read_p50_ns in
    if direct_p50 <= 0.0 then begin
      prerr_endline "raft-study: direct baseline produced no read samples";
      exit 1
    end;
    if csv then
      print_endline "nodes,rtt_cycles,write_ratio,direct_p50_us,write_p50_us,write_overhead,read_p50_us,read_ratio,write_p99_us,read_p99_us"
    else begin
      Printf.printf
        "consensus overhead: %s at %.1f kRps, direct p50 %.1f us (1 member, no writes)\n"
        mix.Concord.Mix.name rate (direct_p50 /. 1e3);
      Printf.printf "%5s %8s %7s | %11s %9s | %11s %9s | %11s %11s\n" "nodes" "rtt_us" "w_frac"
        "write_p50us" "overhead" "read_p50us" "vs_direct" "write_p99us" "read_p99us"
    end;
    List.iter
      (fun nodes ->
        List.iter
          (fun rtt_cycles ->
            List.iter
              (fun write_ratio ->
                let raft =
                  Raft.homogeneous ~rtt_cycles ~write_ratio ~nodes config
                in
                let s = Raft.run ~raft ~mix ~arrival ~n_requests ~seed () in
                (match Raft.check_invariants s with
                | Ok () -> ()
                | Error msg ->
                  Printf.eprintf "raft-study (%d nodes): %s\n" nodes msg;
                  exit 1);
                let rtt_us = float_of_int rtt_cycles /. 2.0 /. 1e3 in
                let w_over = s.Raft.write_p50_ns /. direct_p50 in
                let r_over = s.Raft.read_p50_ns /. direct_p50 in
                if csv then
                  Printf.printf "%d,%d,%g,%.3f,%.3f,%.2f,%.3f,%.3f,%.3f,%.3f\n" nodes rtt_cycles
                    write_ratio (direct_p50 /. 1e3)
                    (s.Raft.write_p50_ns /. 1e3)
                    w_over
                    (s.Raft.read_p50_ns /. 1e3)
                    r_over
                    (s.Raft.write_p99_ns /. 1e3)
                    (s.Raft.read_p99_ns /. 1e3)
                else
                  Printf.printf "%5d %8.0f %7.2f | %11.1f %8.1fx | %11.1f %8.2fx | %11.1f %11.1f\n"
                    nodes rtt_us write_ratio
                    (s.Raft.write_p50_ns /. 1e3)
                    w_over
                    (s.Raft.read_p50_ns /. 1e3)
                    r_over
                    (s.Raft.write_p99_ns /. 1e3)
                    (s.Raft.read_p99_ns /. 1e3))
              wratios)
          rtts)
      nodes_list
  in
  Cmd.v
    (Cmd.info "raft-study"
       ~doc:
         "Measure consensus overhead: direct vs replicated writes across group sizes and \
          RTTs, with lease reads staying flat.")
    Term.(
      const action $ system_arg $ workload_arg $ quantum_arg $ workers_arg $ nodes_arg
      $ rtts_arg $ wratios_arg $ rate_arg
      $ Arg.(value & opt int 20_000 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Arrivals per cell.")
      $ seed_arg $ csv_flag)

(* ---- cluster (rack scale) ---------------------------------------------- *)

let cluster_cmd =
  let module Cluster = Repro_cluster.Cluster in
  let module Lb_policy = Repro_cluster.Lb_policy in
  (* One flag, two disjoint namespaces: a spec that names an LB policy sets
     the balancer, anything else is treated as a central-queue policy for
     every instance.  [--policy po2c --policy gittins] sets both. *)
  let policy_arg =
    Arg.(
      value & opt_all string []
      & info [ "policy"; "p" ] ~docv:"POLICY"
          ~doc:
            (Printf.sprintf
               "Inter-server load-balancing policy (%s, default po2c) or per-instance \
                central-queue policy (%s); repeatable to set both."
               (String.concat ", " Lb_policy.all_names)
               Concord.Policy.spec_syntax))
  in
  let instances_arg =
    Arg.(value & opt int 4 & info [ "instances" ] ~docv:"K" ~doc:"Server instances in the rack.")
  in
  let rtt_arg =
    Arg.(
      value & opt int 0
      & info [ "rtt-cycles" ] ~docv:"CYCLES"
          ~doc:
            "Inter-server round trip in cycles; the balancer's queue views go stale by up to \
             this much.")
  in
  let straggler_arg =
    Arg.(
      value
      & opt_all (pair ~sep:':' int float) []
      & info [ "straggler" ] ~docv:"IDX:FACTOR"
          ~doc:
            "Make instance IDX a straggler that executes everything FACTOR times slower \
             (repeatable).")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate"; "r" ] ~docv:"KRPS"
          ~doc:"Total offered load in kRps (default: 75% of the rack's ideal capacity).")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Export the all-instance trace as Chrome trace-event JSON (Perfetto).")
  in
  let breakdown_flag =
    Arg.(
      value & flag
      & info [ "breakdown" ] ~doc:"Print the per-request latency-breakdown percentile table.")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Validate conservation invariants on the summary; non-zero exit on failure.")
  in
  let hedge_arg =
    Arg.(
      value & opt string "off"
      & info [ "hedge" ] ~docv:"SPEC"
          ~doc:
            (Printf.sprintf
               "Balancer-side request hedging (%s): duplicate a slow request onto the \
                shortest-view other server; first completion wins, the loser is cancelled."
               (String.concat ", " Repro_cluster.Hedge.all_names)))
  in
  let cancel_cost_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel-cost-cycles" ] ~docv:"CYCLES"
          ~doc:
            "Dispatcher cost of revoking a cancelled duplicate at the server (default: one \
             requeue op).")
  in
  let steal_flag =
    Arg.(
      value & flag
      & info [ "steal" ]
          ~doc:
            "Rack-level work stealing: a server whose balancer view drains to zero probes \
             the fullest peer for one not-yet-started request.")
  in
  let arrival_arg =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ] ~docv:"SPEC"
          ~doc:
            "Arrival process: poisson | uniform | burst:N | diurnal:AMP:PERIOD_S | \
             mmpp:FACTOR:CYCLE:DUTY (single-point runs only).")
  in
  let sweep_flag =
    Arg.(
      value & flag
      & info [ "sweep" ] ~doc:"Sweep offered load instead of running one point.")
  in
  let points_arg =
    Arg.(value & opt int 8 & info [ "points" ] ~docv:"N" ~doc:"Sweep points (with --sweep).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Domains for the sweep fan-out (with --sweep).")
  in
  let action system workload quantum workers policies instances rtt stragglers hedge_spec
      cancel_cost steal arrival_spec rate n_requests seed trace_file breakdown check sweep
      points jobs engine_spec =
    let engine = parse_engine engine_spec in
    let config, mix = resolve ~system ~workload ~quantum ~workers () in
    let policy, config =
      List.fold_left
        (fun (lb, config) spec ->
          match Lb_policy.of_string spec with
          | Ok p -> (p, config)
          | Error lb_err -> (
            match Concord.with_policy config ~spec ~mix with
            | Ok config -> (lb, config)
            | Error policy_err ->
              Printf.eprintf "%s\n%s\n" lb_err policy_err;
              exit 1))
        (Lb_policy.Po2c, config) policies
    in
    let hedge =
      match Repro_cluster.Hedge.of_string hedge_spec with
      | Ok h -> h
      | Error e ->
        prerr_endline e;
        exit 1
    in
    let cluster =
      try
        Cluster.homogeneous ~policy ~rtt_cycles:rtt ~hedge ?cancel_cost_cycles:cancel_cost
          ~steal ~stragglers ~instances config
      with Invalid_argument e ->
        prerr_endline e;
        exit 1
    in
    let total_workers =
      Array.fold_left
        (fun acc (s : Cluster.instance_spec) -> acc + s.config.Concord.Config.n_workers)
        0 cluster.Cluster.specs
    in
    let capacity_rps =
      float_of_int total_workers /. Concord.Mix.mean_service_ns mix *. 1e9
    in
    let rate_rps =
      match rate with Some k -> rate_rps_of_krps k | None -> 0.75 *. capacity_rps
    in
    let describe () =
      Printf.printf "rack: %d x { %s }, policy %s, rtt %d cycles%s%s%s\n" instances
        (Concord.Config.describe config) (Lb_policy.name policy) rtt
        (if stragglers = [] then ""
         else
           ", stragglers "
           ^ String.concat ","
               (List.map (fun (i, f) -> Printf.sprintf "%d:%.2gx" i f) stragglers))
        (if hedge = Repro_cluster.Hedge.Off then ""
         else ", hedge " ^ Repro_cluster.Hedge.name hedge)
        (if steal then ", stealing" else "")
    in
    if sweep then begin
      let rates =
        List.init points (fun i ->
            0.95 *. capacity_rps *. float_of_int (i + 1) /. float_of_int points)
      in
      let sw =
        Concord.Sweep.run_cluster ~cluster ~mix ~rates ~n_requests ~seed ?domains:jobs ()
      in
      describe ();
      Printf.printf "workload: %s\n" sw.Concord.Sweep.workload;
      print_endline Concord.Metrics.summary_header;
      List.iter
        (fun (p : Concord.Sweep.point) -> print_endline (Concord.Metrics.summary_row p.summary))
        sw.Concord.Sweep.points;
      match Concord.max_load_under_slo sw with
      | Some r -> Printf.printf "max load under 50x p99.9 slowdown: %.1f kRps\n" (r /. 1e3)
      | None -> print_endline "SLO violated at every load point"
    end
    else begin
      let tracer =
        if trace_file <> None || breakdown then
          Some (Repro_runtime.Tracing.create ~capacity:(max 65_536 (n_requests * 64)) ())
        else None
      in
      let arrival =
        match Concord.Arrival.of_spec arrival_spec ~rate_rps with
        | Ok a -> a
        | Error e ->
          prerr_endline e;
          exit 1
      in
      let s = Cluster.run ~cluster ~mix ~arrival ~n_requests ~seed ?tracer ~engine () in
      describe ();
      if engine <> Repro_engine.Par_sim.Seq || s.Cluster.engine <> Repro_engine.Par_sim.Seq
      then
        Printf.printf "engine: %s%s\n"
          (Repro_engine.Par_sim.describe s.Cluster.engine)
          (if s.Cluster.engine = Repro_engine.Par_sim.Seq then " (degraded)" else "");
      Printf.printf "workload: %s, offered %.1f kRps total (%.0f%% of rack capacity)\n"
        mix.Concord.Mix.name (rate_rps /. 1e3)
        (100. *. rate_rps /. capacity_rps);
      print_endline Concord.Metrics.summary_header;
      print_endline (Concord.Metrics.summary_row s.Cluster.cluster);
      Array.iter
        (fun (name, count, p999) ->
          if count > 0 then
            Printf.printf "  class %-10s n=%-8d p99.9 slowdown=%.2f\n" name count p999)
        s.Cluster.cluster.Concord.Metrics.per_class;
      Array.iteri
        (fun i (ps : Concord.Metrics.summary) ->
          Printf.printf "  instance %d (routed %d):\n    %s\n" i s.Cluster.routed.(i)
            (Concord.Metrics.summary_row ps))
        s.Cluster.per_instance;
      if s.Cluster.lb_held > 0 || s.Cluster.lb_unrouted > 0 then
        Printf.printf "balancer: %d arrivals held for a JBSQ credit, %d never routed\n"
          s.Cluster.lb_held s.Cluster.lb_unrouted;
      if s.Cluster.hedge <> Repro_cluster.Hedge.Off then
        Printf.printf
          "hedging (%s): %d duplicates (%.1f%% of arrivals), %d wins, %d cancels, %.1f us \
           wasted\n"
          (Repro_cluster.Hedge.name s.Cluster.hedge)
          s.Cluster.hedges
          (100. *. float_of_int s.Cluster.hedges /. float_of_int (max 1 s.Cluster.requests))
          s.Cluster.hedge_wins s.Cluster.hedge_cancels
          (float_of_int s.Cluster.hedge_wasted_ns /. 1e3);
      if s.Cluster.steal then Printf.printf "stealing: %d migrations\n" s.Cluster.steals;
      Option.iter
        (fun tracer ->
          let cswitch =
            Repro_hw.Costs.ns_of config.Concord.Config.costs
              config.Concord.Config.costs.Repro_hw.Costs.context_switch_cycles
          in
          if breakdown then
            print_string
              (Repro_runtime.Breakdown.render
                 (Repro_runtime.Breakdown.of_trace ~cswitch_cost_ns:cswitch tracer));
          Option.iter
            (fun path ->
              Repro_runtime.Trace_export.write_file ~path
                (Repro_runtime.Trace_export.tracer_to_chrome_json
                   tracer);
              Printf.printf "trace written to %s (open in ui.perfetto.dev)\n" path)
            trace_file)
        tracer;
      if check then begin
        match Cluster.check_invariants s with
        | Ok () -> Printf.printf "check: invariants hold (%d requests)\n" s.Cluster.requests
        | Error msg ->
          Printf.eprintf "check: %s\n" msg;
          exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run a rack of server instances behind an inter-server load balancer.")
    Term.(
      const action $ system_arg $ workload_arg $ quantum_arg $ workers_arg $ policy_arg
      $ instances_arg $ rtt_arg $ straggler_arg $ hedge_arg $ cancel_cost_arg $ steal_flag
      $ arrival_arg $ rate_arg $ requests_arg $ seed_arg $ trace_file_arg $ breakdown_flag
      $ check_flag $ sweep_flag $ points_arg $ jobs_arg $ engine_arg)

(* ---- frontier ---------------------------------------------------------- *)

let frontier_cmd =
  let systems_arg =
    Arg.(
      value
      & opt (list string) [ "concord"; "concord-uipi"; "shinjuku" ]
      & info [ "systems" ] ~docv:"A,B,..."
          ~doc:"Comma-separated mechanism presets forming the configuration axis.")
  in
  let policies_arg =
    Arg.(
      value
      & opt (list string)
          [ "fcfs"; "srpt"; "srpt-noisy:0.5"; "srpt-noisy:1"; "srpt-noisy:2"; "gittins" ]
      & info [ "policies" ] ~docv:"P,..."
          ~doc:
            (Printf.sprintf "Comma-separated central-queue policy specs (%s)."
               Concord.Policy.spec_syntax))
  in
  let p_shorts_arg =
    Arg.(
      value
      & opt (list float) [ 0.5; 0.9; 0.99; 0.999 ]
      & info [ "p-short" ] ~docv:"P,..."
          ~doc:"Short-request probabilities of the bimodal dispersion axis.")
  in
  let short_arg =
    Arg.(
      value & opt float 0.6
      & info [ "short-us" ] ~docv:"US" ~doc:"Short mode service time (us); kvstore GET = 0.6.")
  in
  let long_arg =
    Arg.(
      value & opt float 500.0
      & info [ "long-us" ] ~docv:"US" ~doc:"Long mode service time (us); kvstore SCAN = 500.")
  in
  let utils_arg =
    Arg.(
      value
      & opt (list float) [ 0.85 ]
      & info [ "util" ] ~docv:"U,..." ~doc:"Utilization fractions of ideal capacity.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Domains for the cell fan-out.")
  in
  let csv_flag =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of the heat-table.")
  in
  let action systems policies p_shorts short_us long_us utils quantum workers n_requests seed
      jobs csv =
    let configs =
      List.map
        (fun system ->
          match Concord.configure ~system ?n_workers:workers ~quantum_us:quantum () with
          | Ok c -> c
          | Error e ->
            prerr_endline e;
            exit 1)
        systems
    in
    let workloads =
      Concord.Sweep.dispersion_axis ~short_ns:(short_us *. 1e3) ~long_ns:(long_us *. 1e3)
        ~p_shorts
    in
    let points =
      try
        Concord.Sweep.run_frontier ~configs ~policies ~workloads ~utils ~n_requests ~seed
          ?domains:jobs ()
      with Invalid_argument e ->
        prerr_endline e;
        exit 1
    in
    if csv then print_string (Concord.Sweep.frontier_csv points)
    else print_string (Concord.Sweep.render_frontier points)
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:
         "Cross mechanisms x central-queue policies x service-time dispersion at fixed \
          utilization (the policy-frontier study).")
    Term.(
      const action $ systems_arg $ policies_arg $ p_shorts_arg $ short_arg $ long_arg
      $ utils_arg $ quantum_arg $ workers_arg
      $ Arg.(value & opt int 40_000 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Arrivals per cell.")
      $ seed_arg $ jobs_arg $ csv_flag)

(* ---- hedge-study ------------------------------------------------------- *)

let hedge_study_cmd =
  let rtts_arg =
    Arg.(
      value
      & opt (list int) [ 0; 1_000; 5_000; 20_000 ]
      & info [ "rtts" ] ~docv:"C,..."
          ~doc:"Comma-separated inter-server RTTs in cycles (the staleness axis).")
  in
  let hedges_arg =
    Arg.(
      value
      & opt (list string) [ "off"; "fixed:20000"; "pct:99"; "adaptive:0.05" ]
      & info [ "hedges" ] ~docv:"H,..."
          ~doc:
            (Printf.sprintf "Comma-separated hedge specs (%s)."
               (String.concat ", " Repro_cluster.Hedge.all_names)))
  in
  let policies_arg =
    Arg.(
      value
      & opt (list string) [ "po2c"; "jsq" ]
      & info [ "policies" ] ~docv:"P,..."
          ~doc:
            (Printf.sprintf "Comma-separated LB routing policies (%s)."
               (String.concat ", " Repro_cluster.Lb_policy.all_names)))
  in
  let steal_flag =
    Arg.(value & flag & info [ "steal" ] ~doc:"Enable rack-level work stealing in every cell.")
  in
  let instances_arg =
    Arg.(value & opt int 3 & info [ "instances" ] ~docv:"K" ~doc:"Server instances per rack.")
  in
  let util_arg =
    Arg.(
      value & opt float 0.7
      & info [ "util" ] ~docv:"U" ~doc:"Utilization fraction of ideal rack capacity.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Domains for the cell fan-out.")
  in
  let csv_flag = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of the table.") in
  let straggler_arg =
    Arg.(
      value
      & opt_all (pair ~sep:':' int float) []
      & info [ "straggler" ] ~docv:"IDX:FACTOR"
          ~doc:
            "Make instance IDX a straggler in every cell — the asymmetry hedging and \
             stealing exist to absorb (repeatable).")
  in
  let action system workload quantum workers rtts hedges policies steal stragglers instances
      util n_requests seed jobs csv =
    let config, mix = resolve ~system ~workload ~quantum ~workers () in
    let points =
      try
        Concord.Sweep.run_hedge_study ~config ~mix ~rtts ~hedges ~policies ~steal ~stragglers
          ~instances ~util ~n_requests ~seed ?domains:jobs ()
      with Invalid_argument e ->
        prerr_endline e;
        exit 1
    in
    if csv then print_string (Concord.Sweep.hedge_csv points)
    else print_string (Concord.Sweep.render_hedge points)
  in
  Cmd.v
    (Cmd.info "hedge-study"
       ~doc:
         "Cross inter-server RTT x hedge policy x LB routing policy at fixed utilization \
          (the tail-tolerance study).")
    Term.(
      const action $ system_arg $ workload_arg $ quantum_arg $ workers_arg $ rtts_arg
      $ hedges_arg $ policies_arg $ steal_flag $ straggler_arg $ instances_arg $ util_arg
      $ Arg.(value & opt int 40_000 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Arrivals per cell.")
      $ seed_arg $ jobs_arg $ csv_flag)

(* ---- sls (6) -------------------------------------------------------------- *)

let sls_cmd =
  let variant_arg =
    Arg.(
      value
      & opt string "concord-sls"
      & info [ "variant" ] ~docv:"V" ~doc:"concord-sls | shenango | d-fcfs")
  in
  let rate_arg =
    Arg.(
      required
      & opt (some float) None
      & info [ "rate"; "r" ] ~docv:"KRPS" ~doc:"Offered load in kRps.")
  in
  let action variant workload quantum workers rate n_requests seed =
    let module Sls = Repro_runtime.Sls_server in
    let make =
      match variant with
      | "concord-sls" -> Sls.concord_sls
      | "shenango" -> Sls.shenango_like
      | "d-fcfs" -> Sls.partitioned_fcfs
      | v ->
        prerr_endline ("unknown SLS variant: " ^ v);
        exit 1
    in
    let config =
      make ?n_workers:workers ~quantum_ns:(int_of_float (quantum *. 1e3)) ()
    in
    let mix =
      match Concord.workload workload with
      | Ok m -> m
      | Error e ->
        prerr_endline e;
        exit 1
    in
    let s =
      Sls.run ~config ~mix
        ~arrival:(Concord.Arrival.Poisson { rate_rps = rate_rps_of_krps rate })
        ~n_requests ~seed ()
    in
    Printf.printf "%s on %s at %.1f kRps\n" config.Sls.name mix.Concord.Mix.name rate;
    print_endline Concord.Metrics.summary_header;
    print_endline (Concord.Metrics.summary_row s)
  in
  Cmd.v
    (Cmd.info "sls" ~doc:"Run a single-logical-queue (work-stealing) system (6).")
    Term.(
      const action $ variant_arg $ workload_arg $ quantum_arg $ workers_arg $ rate_arg
      $ requests_arg $ seed_arg)

(* ---- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let rate_arg =
    Arg.(value & opt float 150.0 & info [ "rate"; "r" ] ~docv:"KRPS" ~doc:"Offered load in kRps.")
  in
  let request_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "request" ] ~docv:"ID" ~doc:"Show only this request's lifecycle.")
  in
  let last_arg =
    Arg.(value & opt int 60 & info [ "last" ] ~docv:"N" ~doc:"Show the last N events.")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Export the trace as Chrome trace-event JSON (open in ui.perfetto.dev).")
  in
  let csv_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the raw event stream as CSV.")
  in
  let breakdown_flag =
    Arg.(
      value & flag
      & info [ "breakdown" ] ~doc:"Print the per-request latency-breakdown percentile table.")
  in
  let check_flag =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the trace: breakdown components must sum to each sojourn, and any \
             exported JSON must be schema-valid. Non-zero exit on failure.")
  in
  let action system workload quantum workers rate n_requests seed request last trace_file
      csv_file breakdown check =
    let config, mix = resolve ~system ~workload ~quantum ~workers () in
    let tracer =
      Repro_runtime.Tracing.create ~capacity:(max 65_536 (n_requests * 64)) ()
    in
    let (_ : Concord.Metrics.summary) =
      Repro_runtime.Server.run ~config ~mix
        ~arrival:(Concord.Arrival.Poisson { rate_rps = rate_rps_of_krps rate })
        ~n_requests ~seed ~tracer ()
    in
    let entries =
      match request with
      | Some id -> Repro_runtime.Tracing.of_request tracer ~request:id
      | None ->
        let all = Repro_runtime.Tracing.entries tracer in
        let n = List.length all in
        List.filteri (fun i _ -> i >= n - last) all
    in
    List.iter (fun e -> print_endline (Repro_runtime.Tracing.entry_to_string e)) entries;
    let dropped = Repro_runtime.Tracing.dropped tracer in
    if dropped > 0 then Printf.printf "(%d earlier events dropped from the ring)\n" dropped;
    let cswitch =
      Repro_hw.Costs.ns_of config.Concord.Config.costs
        config.Concord.Config.costs.Repro_hw.Costs.context_switch_cycles
    in
    let breakdowns =
      lazy (Repro_runtime.Breakdown.of_trace ~cswitch_cost_ns:cswitch tracer)
    in
    if breakdown then print_string (Repro_runtime.Breakdown.render (Lazy.force breakdowns));
    Option.iter
      (fun path ->
        Repro_runtime.Trace_export.write_file ~path
          (Repro_runtime.Trace_export.tracer_to_chrome_json tracer);
        Printf.printf "trace written to %s (open in ui.perfetto.dev)\n" path)
      trace_file;
    Option.iter
      (fun path ->
        Repro_runtime.Trace_export.write_file ~path
          (Repro_runtime.Trace_export.tracer_events_to_csv tracer);
        Printf.printf "events written to %s\n" path)
      csv_file;
    if check then begin
      let failures = ref 0 in
      let bs = Lazy.force breakdowns in
      if bs = [] then begin
        prerr_endline "check: no complete request lifecycles in the trace";
        incr failures
      end;
      List.iter
        (fun b ->
          match Repro_runtime.Breakdown.check b with
          | Ok () -> ()
          | Error msg ->
            Printf.eprintf "check: %s\n" msg;
            incr failures)
        bs;
      Option.iter
        (fun path ->
          match Repro_runtime.Trace_export.validate_chrome_file path with
          | Ok n -> Printf.printf "check: %s is valid Chrome trace JSON (%d events)\n" path n
          | Error msg ->
            Printf.eprintf "check: %s: %s\n" path msg;
            incr failures)
        trace_file;
      if !failures > 0 then exit 1
      else
        Printf.printf "check: %d lifecycles, components sum to sojourn for all\n"
          (List.length bs)
    end
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a small simulation and print/export request-lifecycle events.")
    Term.(
      const action $ system_arg $ workload_arg $ quantum_arg $ workers_arg $ rate_arg
      $ Arg.(value & opt int 2_000 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Arrivals.")
      $ seed_arg $ request_arg $ last_arg $ trace_file_arg $ csv_file_arg $ breakdown_flag
      $ check_flag)

(* ---- verify-probes ----------------------------------------------------------- *)

let verify_probes_cmd =
  let module Verify = Repro_instrument.Verify in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the report as JSON (schema concord-verify-probes/v1); '-' for stdout.")
  in
  let samples_arg =
    Arg.(
      value
      & opt int Verify.default_samples
      & info [ "samples" ] ~docv:"N" ~doc:"Monte-Carlo lateness samples per placement.")
  in
  let trials_arg =
    Arg.(
      value
      & opt int Verify.default_trials
      & info [ "trials" ] ~docv:"N" ~doc:"Randomized path explorations per placement.")
  in
  let target_gap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "target-gap" ] ~docv:"INSTRS"
          ~doc:"Probe-elision gap target in instructions (default: the placement envelope).")
  in
  let action samples trials seed target_gap json =
    let rows = Verify.run_suite ~samples ~trials ~seed ?target_gap () in
    (match json with
    | None -> print_string (Verify.render rows)
    | Some "-" -> print_string (Verify.to_json rows)
    | Some path ->
      let oc = open_out path in
      output_string oc (Verify.to_json rows);
      close_out oc;
      Printf.printf "verify-probes report written to %s\n" path);
    if not (Verify.all_ok rows) then begin
      prerr_endline "verify-probes: FAILED (static bound violated or certificate broken)";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "verify-probes"
       ~doc:
         "Statically bound the worst-case inter-probe gap of every suite kernel (Concord \
          and elided placements) and verify the bounds against Monte-Carlo observation; \
          non-zero exit on any violation.")
    Term.(const action $ samples_arg $ trials_arg $ seed_arg $ target_gap_arg $ json_arg)

(* ---- check-model ------------------------------------------------------------- *)

let check_model_cmd =
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Print each scenario's description and, on violation, the full step trace.")
  in
  let only_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "only" ] ~docv:"NAME,..."
          ~doc:"Run only the named scenarios (default: the whole registry).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit.")
  in
  let action list_only verbose only =
    if list_only then
      List.iter
        (fun (s : Repro_check.Scenarios.t) ->
          Printf.printf "%-26s %s  %s\n" s.name
            (match s.expect with Pass -> "[pass]  " | Caught -> "[caught]")
            s.descr)
        Repro_check.Scenarios.all
    else
      exit (Repro_check.Runner.run_all ~verbose ?only ())
  in
  Cmd.v
    (Cmd.info "check-model"
       ~doc:
         "Model-check the parallel engine's Atomics protocols (mailbox, barrier, pool) \
          by exploring every DPOR-inequivalent interleaving, and confirm the checker \
          catches each seeded-bug fixture; non-zero exit on any mismatch.")
    Term.(const action $ list_arg $ verbose_arg $ only_arg)

(* ---- overheads --------------------------------------------------------------- *)

let overheads_cmd =
  let systems_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "systems" ] ~docv:"A,B,..."
          ~doc:"Comma-separated system names (default: the built-in comparison set).")
  in
  let rate_arg =
    Arg.(value & opt float 150.0 & info [ "rate"; "r" ] ~docv:"KRPS" ~doc:"Offered load in kRps.")
  in
  let action systems workload workers rate n_requests seed =
    let mix =
      match Concord.workload workload with
      | Ok m -> m
      | Error e ->
        prerr_endline e;
        exit 1
    in
    let rows =
      Repro_runtime.Breakdown.run_systems ?systems ~workload:mix ?n_workers:workers
        ~rate_rps:(rate_rps_of_krps rate) ~n_requests ~seed ()
    in
    Printf.printf "mean per-request latency breakdown, %s at %.1f kRps (ns)\n"
      mix.Concord.Mix.name rate;
    print_string (Repro_runtime.Breakdown.render_attribution rows)
  in
  Cmd.v
    (Cmd.info "overheads"
       ~doc:"Attribute where each system's cycles go (Concord vs Shinjuku et al.).")
    Term.(
      const action $ systems_arg $ workload_arg $ workers_arg $ rate_arg
      $ Arg.(value & opt int 4_000 & info [ "requests"; "n" ] ~docv:"N" ~doc:"Arrivals per system.")
      $ seed_arg)

let () =
  let info =
    Cmd.info "concord-sim" ~version:"1.0.0"
      ~doc:"Simulation-based reproduction of Concord (SOSP 2023)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            figure_cmd;
            table1_cmd;
            sweep_cmd;
            run_cmd;
            frontier_cmd;
            cluster_cmd;
            hedge_study_cmd;
            replicate_cmd;
            raft_cmd;
            raft_study_cmd;
            sls_cmd;
            trace_cmd;
            overheads_cmd;
            verify_probes_cmd;
            check_model_cmd;
          ]))
