(* concord-sim: command-line driver for the Concord reproduction.

   Subcommands:
     list                      enumerate figures, systems, workloads
     figure <id> [--full]      regenerate one paper figure, ablation or Table 1
     sweep ...                 load-sweep a system on a workload
     run ...                   one load point with a detailed summary
     cluster ...               a rack of instances behind a load balancer;
                               --policy random is the multi-dispatcher
                               replication of 6
     raft, sls, trace, ...     the replicated tier, the single logical
                               queue, lifecycle traces and the studies

   Every flag that two subcommands share is declared once below, with the
   subcommand's default and doc string as arguments. Every input error --
   an [Error] from a spec parser or an [Invalid_argument] from a library
   entry point -- leaves through the handler around [Cmd.eval] at the
   bottom: its message on stderr, exit 1. *)

open Cmdliner
module Hedge = Repro_cluster.Hedge
module Lb_policy = Repro_cluster.Lb_policy
module Breakdown = Repro_runtime.Breakdown
module Tracing = Repro_runtime.Tracing
module Trace_export = Repro_runtime.Trace_export

(* A parse [Error] joins the library's [Invalid_argument]s on that path. *)
let ok = function Ok v -> v | Error e -> invalid_arg e

(* Thousandths: rps to kRps, ns to us. *)
let k x = x /. 1e3

(* A latency of a request class with no sample is nan: a table prints "-"
   in its [w] columns, a CSV an empty field. *)
let cell w text x = if Float.is_nan x then Printf.sprintf "%*s" w "-" else text x
let us_cell w = cell w (fun ns -> Printf.sprintf "%*.1f" w (k ns))
let csv_field text x = if Float.is_nan x then "" else text x

(* ---- shared options -------------------------------------------------- *)

let system_arg =
  Arg.(value & opt string "concord" & info [ "system"; "s" ] ~docv:"SYSTEM" ~doc:"System preset.")

let workload_arg ?(default = "ycsb-a") ?(doc = "Workload name.") () =
  Arg.(value & opt string default & info [ "workload"; "w" ] ~docv:"WORKLOAD" ~doc)

let quantum_arg =
  Arg.(value & opt float 5.0 & info [ "quantum"; "q" ] ~docv:"US" ~doc:"Scheduling quantum (us).")

let workers_arg =
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc:"Worker threads.")

let requests_arg ?(doc = "Arrivals per point.") default =
  Arg.(value & opt int default & info [ "requests"; "n" ] ~docv:"N" ~doc)

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* The options of every command that simulates one named system on one
   named workload. *)
type spec = {
  system : string;
  workload : string;
  quantum : float;
  workers : int option;
  n_requests : int;
  seed : int;
}

let spec_term ?(workload = workload_arg ()) requests =
  Term.(
    const (fun system workload quantum workers n_requests seed ->
        { system; workload; quantum; workers; n_requests; seed })
    $ system_arg $ workload $ quantum_arg $ workers_arg $ requests $ seed_arg)

let configure s =
  ok (Concord.configure ~system:s.system ?n_workers:s.workers ~quantum_us:s.quantum ())

let resolve ?policy s =
  let config = configure s in
  let mix = ok (Concord.workload s.workload) in
  match policy with
  | None -> (config, mix)
  | Some spec -> (ok (Concord.with_policy config ~spec ~mix), mix)

(* Every --rate flag is in kRps; each command picks required, a fixed
   default, or [None] for a default derived from capacity. *)
let rate_info doc = Arg.info [ "rate"; "r" ] ~docv:"KRPS" ~doc
let required_rate_arg = Arg.(required & opt (some float) None & rate_info "Offered load in kRps.")

let rate_arg ?(doc = "Offered load in kRps.") krps =
  Arg.(value & opt float krps & rate_info doc)

let derived_rate_arg doc = Arg.(value & opt (some float) None & rate_info doc)

(* A rate the run entry points would reject (NaN, infinite, not positive,
   or so small that the mean gap overflows) is an ordinary error, reported
   with the library's message. *)
let rate_rps_of_krps krps =
  let rate_rps = krps *. 1e3 in
  Concord.Arrival.validate (Concord.Arrival.Poisson { rate_rps });
  rate_rps

let policy_info doc = Arg.info [ "policy"; "p" ] ~docv:"POLICY" ~doc

let central_policy_arg =
  Arg.(
    value
    & opt (some string) None
    & policy_info
        (Printf.sprintf "Central-queue scheduling policy: %s (overrides the preset's)."
           Concord.Policy.spec_syntax))

(* One flag, two disjoint namespaces: a spec that names an LB policy sets
   the balancer, anything else is treated as a central-queue policy for
   every member.  [--policy po2c --policy gittins] sets both. *)
let lb_or_central_policy_arg ~routing ~member =
  Arg.(
    value & opt_all string []
    & policy_info
        (Printf.sprintf
           "%s (%s, default po2c) or per-%s central-queue policy (%s); repeatable to set both."
           routing (String.concat ", " Lb_policy.all_names) member Concord.Policy.spec_syntax))

let split_policies config mix specs =
  List.fold_left
    (fun (lb, config) spec ->
      match Lb_policy.of_string spec with
      | Ok p -> (p, config)
      | Error lb_err -> (
        match Concord.with_policy config ~spec ~mix with
        | Ok config -> (lb, config)
        | Error policy_err -> invalid_arg (lb_err ^ "\n" ^ policy_err)))
    (Lb_policy.Po2c, config) specs

let check_arg doc = Arg.(value & flag & info [ "check" ] ~doc)

(* A --check reports every failed condition on stderr before it exits:
   [fail msg] reports one, [failed ()] tells whether any was. *)
let check_failures () =
  let failures = ref 0 in
  ( (fun msg ->
      prerr_endline msg;
      incr failures),
    fun () -> !failures > 0 )

let straggler_arg doc =
  Arg.(value & opt_all (pair ~sep:':' int float) [] & info [ "straggler" ] ~docv:"IDX:FACTOR" ~doc)

let hedge_arg ~what ~how =
  Arg.(
    value & opt string "off"
    & info [ "hedge" ] ~docv:"SPEC"
        ~doc:(Printf.sprintf "%s (%s): %s" what (String.concat ", " Hedge.all_names) how))

let instances_arg default doc =
  Arg.(value & opt int default & info [ "instances" ] ~docv:"K" ~doc)

let steal_arg doc = Arg.(value & flag & info [ "steal" ] ~doc)

(* Flag values that would run nothing (a sweep of no points, a fan-out over
   no domains, a study axis of no values or with an empty item), show
   nothing (a negative count of trace events) or describe no run (a
   utilization, RTT, write ratio or group size out of range) are refused
   while the flags parse, in the shape of cmdliner's own messages. [bad]
   sees the raw string and the parsed value. *)
let refuse ~bad ~expected conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when bad s v ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = refuse ~bad:(fun _ n -> n < 1) ~expected:"a positive integer" Arg.int
let non_negative_int = refuse ~bad:(fun _ n -> n < 0) ~expected:"a non-negative integer" Arg.int

let positive_float =
  refuse
    ~bad:(fun _ x -> not (Float.is_finite x && x > 0.0))
    ~expected:"a finite number > 0" Arg.float

let fraction =
  refuse ~bad:(fun _ x -> not (x >= 0.0 && x <= 1.0)) ~expected:"a number in [0, 1]" Arg.float

(* cmdliner's list converter drops empty items, so the raw string is read:
   [--util=] and [--util=0.5,,0.7] are both refused. *)
let axis conv =
  refuse
    ~bad:(fun s _ -> List.mem "" (String.split_on_char ',' s))
    ~expected:"a comma-separated list with no empty item" (Arg.list conv)

let points_arg ?(doc = "Sweep points (with --sweep).") default =
  Arg.(value & opt positive_int default & info [ "points" ] ~docv:"N" ~doc)

(* [Some points] with --sweep, [None] for a single point. *)
let sweep_arg doc =
  Term.(
    const (fun sweep points -> if sweep then Some points else None)
    $ Arg.(value & flag & info [ "sweep" ] ~doc)
    $ points_arg 8)

(* The comma-separated axes of the studies. *)
let rtts_arg default doc =
  Arg.(value & opt (axis non_negative_int) default & info [ "rtts" ] ~docv:"C,..." ~doc)

let policies_arg default doc =
  Arg.(value & opt (axis string) default & info [ "policies" ] ~docv:"P,..." ~doc)

let jobs_arg doc =
  Arg.(value & opt (some positive_int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let csv_arg doc = Arg.(value & flag & info [ "csv" ] ~doc)

(* ---- shared reports -------------------------------------------------- *)

type observe = { trace_file : string option; breakdown : bool }

let observe_arg ~trace_doc
    ?(breakdown_doc = "Print the per-request latency-breakdown percentile table.") () =
  Term.(
    const (fun trace_file breakdown -> { trace_file; breakdown })
    $ Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc:trace_doc)
    $ Arg.(value & flag & info [ "breakdown" ] ~doc:breakdown_doc))

let tracer ?(per_request = 64) n_requests =
  Tracing.create ~capacity:(max 65_536 (n_requests * per_request)) ()

let tracer_if ?per_request obs n_requests =
  if obs.trace_file <> None || obs.breakdown then Some (tracer ?per_request n_requests) else None

let report_dropped tracer =
  let dropped = Tracing.dropped tracer in
  if dropped > 0 then Printf.printf "(%d earlier events dropped from the ring)\n" dropped

let breakdowns (config : Concord.Config.t) tracer =
  let cswitch_cost_ns = Repro_hw.Costs.ns_of config.costs config.costs.context_switch_cycles in
  Breakdown.of_trace ~cswitch_cost_ns tracer

let report_trace obs config tracer =
  if obs.breakdown then print_string (Breakdown.render (breakdowns config tracer));
  Option.iter
    (fun path ->
      Trace_export.write_file ~path (Trace_export.tracer_to_chrome_json tracer);
      Printf.printf "trace written to %s (open in ui.perfetto.dev)\n" path)
    obs.trace_file

let print_summary s =
  print_endline Concord.Metrics.summary_header;
  print_endline (Concord.Metrics.summary_row s)

let print_classes (s : Concord.Metrics.summary) =
  Array.iter
    (fun (name, count, p999) ->
      if count > 0 then Printf.printf "  class %-10s n=%-8d p99.9 slowdown=%.2f\n" name count p999)
    s.Concord.Metrics.per_class

let print_sweep (sw : Concord.Sweep.t) =
  print_endline Concord.Metrics.summary_header;
  List.iter
    (fun (p : Concord.Sweep.point) -> print_endline (Concord.Metrics.summary_row p.summary))
    sw.Concord.Sweep.points;
  match Concord.max_load_under_slo sw with
  | Some rate -> Printf.printf "max load under 50x p99.9 slowdown: %.1f kRps\n" (k rate)
  | None -> print_endline "SLO violated at every load point"

let stragglers_suffix = function
  | [] -> ""
  | stragglers ->
    ", stragglers "
    ^ String.concat "," (List.map (fun (i, f) -> Printf.sprintf "%d:%.2gx" i f) stragglers)

let hedge_suffix hedge = if hedge = Hedge.Off then "" else ", hedge " ^ Hedge.name hedge

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

let figure_cmd =
  let id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Figure id (see list).")
  in
  let full_flag =
    Arg.(value & flag & info [ "full" ] ~doc:"Run at full scale (4x the requests per point).")
  in
  let action id full csv =
    let scale = if full then Concord.Figures.Full else Concord.Figures.Quick in
    if String.equal id "table1" then print_endline (Concord.Table1.render (Concord.Table1.rows ()))
    else begin
      match Concord.Figures.by_id id with
      | Some make ->
        let fig = make ~scale () in
        if csv then print_string (Concord.Figure.to_csv fig)
        else print_endline (Concord.Figure.render fig)
      | None -> invalid_arg ("unknown figure id: " ^ id)
    end
  in
  Cmd.v (Cmd.info "figure" ~doc:"Regenerate one figure or table from the paper.")
    Term.(const action $ id $ full_flag $ csv_arg "Emit CSV instead of an aligned table.")

(* ---- sweep ----------------------------------------------------------- *)

let sweep_cmd =
  let action s policy points =
    let config, mix = resolve ?policy s in
    let sweep =
      Concord.sweep ~config ~mix ~points ~n_requests:s.n_requests ~seed:s.seed ()
    in
    Printf.printf "%s on %s\n" (Concord.Config.describe config) sweep.Concord.Sweep.workload;
    print_sweep sweep
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Run a load sweep and report the SLO crossing.")
    Term.(
      const action $ spec_term (requests_arg 60_000) $ central_policy_arg
      $ points_arg ~doc:"Sweep points." 10)

(* ---- run -------------------------------------------------------------- *)

let run_cmd =
  let action s policy rate obs check =
    let config, mix = resolve ?policy s in
    let n_requests = s.n_requests in
    let tracer = tracer_if obs n_requests in
    let (s : Concord.Metrics.summary) =
      Concord.run ~config ~mix ~rate_rps:(rate_rps_of_krps rate) ~n_requests ~seed:s.seed
        ?tracer ()
    in
    Printf.printf "%s\n" (Concord.Config.describe config);
    Printf.printf "workload: %s, offered %.1f kRps\n" mix.Concord.Mix.name rate;
    print_summary s;
    Printf.printf
      "dispatcher: %.1f%% dispatching + %.1f%% stolen app work; worker busy %.1f%%\n"
      (100. *. s.dispatcher_busy_frac) (100. *. s.dispatcher_app_frac)
      (100. *. s.worker_busy_frac);
    print_classes s;
    Option.iter (report_trace obs config) tracer;
    if check then begin
      let fail, failed = check_failures () in
      if s.completed + s.censored <> n_requests then
        fail
          (Printf.sprintf "check: %d completed + %d censored <> %d arrivals" s.completed
             s.censored n_requests);
      if s.completed = 0 then fail "check: nothing completed";
      if not (s.goodput_rps > 0.0) then
        fail (Printf.sprintf "check: non-positive goodput %f" s.goodput_rps);
      if failed () then exit 1
      else
        Printf.printf "check: conservation holds (%d completed, %d censored)\n" s.completed
          s.censored
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one load point and print a detailed summary.")
    Term.(
      const action $ spec_term (requests_arg 60_000) $ central_policy_arg $ required_rate_arg
      $ observe_arg
          ~trace_doc:"Export the request-lifecycle trace as Chrome trace-event JSON (Perfetto)."
          ()
      $ check_arg
          "Validate the summary: every arrival completed or censored, non-zero goodput. \
           Non-zero exit on failure.")

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

let raft_cmd =
  let module Raft = Repro_raft.Raft in
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
  let kill_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "kill-leader-at" ] ~docv:"US"
          ~doc:"Crash the current leader at this simulated time (us) and fail over.")
  in
  let action s policies nodes rtt leases write_ratio hedge_spec kill_us stragglers rate obs check
      sweep =
    let config, mix = resolve s in
    let read_lb, config = split_policies config mix policies in
    let hedge = ok (Hedge.of_string hedge_spec) in
    let kill_leader_at_ns =
      Option.map
        (fun us ->
          let ns = us *. 1e3 in
          if ns >= 0.0 && ns < float_of_int max_int then int_of_float ns
          else invalid_arg (Printf.sprintf "--kill-leader-at %g: not a time >= 0 the clock holds" us))
        kill_us
    in
    let raft =
      Raft.homogeneous ~read_lb ?rtt_cycles:rtt ~read_leases:leases ~write_ratio ~hedge
        ?kill_leader_at_ns ~stragglers ~nodes config
    in
    let capacity_rps = Raft.capacity_rps raft mix in
    let describe () =
      Printf.printf "raft: %d x { %s }, read_lb %s, rtt %d cycles, leases %s, writes %.0f%%%s%s%s\n"
        nodes
        (Concord.Config.describe config)
        (Lb_policy.name read_lb) raft.Raft.rtt_cycles
        (if leases then "on" else "off")
        (100. *. write_ratio) (hedge_suffix hedge)
        (match kill_us with
        | Some us -> Printf.sprintf ", leader killed at %.0fus" us
        | None -> "")
        (stragglers_suffix stragglers)
    in
    let run_at ?tracer arrival =
      Raft.run ~raft ~mix ~arrival ~n_requests:s.n_requests ~seed:s.seed ?tracer ()
    in
    match sweep with
    | Some points ->
      describe ();
      Printf.printf "workload: %s\n" mix.Concord.Mix.name;
      Printf.printf "%9s %9s %9s %9s %9s %9s %9s\n" "kRps" "w_p50us" "w_p99us" "r_p50us"
        "r_p99us" "censored" "parked";
      let rates =
        List.init points (fun i ->
            0.9 *. capacity_rps *. float_of_int (i + 1) /. float_of_int points)
      in
      List.iter
        (fun (rate_rps, (s : Raft.summary)) ->
          Printf.printf "%9.1f %s %s %s %s %9d %9d\n" (k rate_rps) (us_cell 9 s.write_p50_ns)
            (us_cell 9 s.write_p99_ns) (us_cell 9 s.read_p50_ns) (us_cell 9 s.read_p99_ns)
            s.client.Concord.Metrics.censored s.parked;
          if check then begin
            match Raft.check_invariants s with
            | Ok () -> ()
            | Error msg ->
              Printf.eprintf "check (%.1f kRps): %s\n" (k rate_rps) msg;
              exit 1
          end)
        (Concord.Sweep.at_rates ~mix ~rates run_at);
      if check then print_endline "check: invariants hold at every sweep point"
    | None ->
      (* Each logged request adds a consensus mini-request's lifecycle at
         every member: a run records 59-91 entries per arrival at one to
         five members, past a lone server's 64. *)
      let tracer = tracer_if ~per_request:(64 + (16 * nodes)) obs s.n_requests in
      let rate_rps =
        match rate with Some krps -> rate_rps_of_krps krps | None -> 0.4 *. capacity_rps
      in
      let s = run_at ?tracer (Concord.Arrival.Poisson { rate_rps }) in
      describe ();
      Printf.printf "workload: %s, offered %.1f kRps (%.0f%% of direct capacity)\n"
        mix.Concord.Mix.name (k rate_rps)
        (100. *. rate_rps /. capacity_rps);
      print_string (Raft.summary_to_string s);
      Option.iter
        (fun tracer ->
          if obs.breakdown then begin
            let clients, left_out = Raft.client_breakdowns s (breakdowns config tracer) in
            print_string (Breakdown.render clients);
            Printf.printf
              "(client arrivals only: %d of %d have a complete lifecycle in the trace; %d \
               lifecycles of consensus mini-requests and hedge duplicates left out)\n"
              (List.length clients) s.Raft.requests left_out
          end;
          report_dropped tracer;
          report_trace { obs with breakdown = false } config tracer)
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
  in
  Cmd.v
    (Cmd.info "raft"
       ~doc:
         "Run a simulated Raft group of server instances: writes replicate through a \
          quorum-acknowledged log, reads bypass consensus via leader leases.")
    Term.(
      const action
      $ spec_term (requests_arg ~doc:"Arrivals." 20_000)
      $ lb_or_central_policy_arg ~routing:"Lease-read routing policy" ~member:"member"
      $ nodes_arg $ rtt_arg $ leases_arg $ write_ratio_arg
      $ hedge_arg ~what:"Hedge lease reads"
          ~how:
            "duplicate a slow read onto another leaseholder; first completion wins. Writes \
             are never hedged."
      $ kill_arg
      $ straggler_arg "Make member IDX execute everything FACTOR times slower (repeatable)."
      $ derived_rate_arg
          "Offered load in kRps (default: 40% of the group's ideal direct capacity)."
      $ observe_arg ~trace_doc:"Export the all-member trace as Chrome trace-event JSON (Perfetto)."
          ~breakdown_doc:
            "Print the latency-breakdown percentile table of the client arrivals (the \
             consensus mini-requests and hedge duplicates are left out); consensus time \
             shows up as its own component."
          ()
      $ check_arg
          "Validate conservation and the Raft invariants (monotone commit indexes, one \
           leader per term, no committed-entry loss); non-zero exit on failure."
      $ sweep_arg "Sweep offered load instead of one point.")

(* ---- raft-study -------------------------------------------------------- *)

let raft_study_cmd =
  let module Raft = Repro_raft.Raft in
  let nodes_arg =
    Arg.(
      value
      & opt (axis positive_int) [ 1; 3; 5 ]
      & info [ "nodes" ] ~docv:"K,..." ~doc:"Comma-separated group sizes.")
  in
  let wratios_arg =
    Arg.(
      value
      & opt (axis fraction) [ 0.5 ]
      & info [ "write-ratios" ] ~docv:"F,..." ~doc:"Comma-separated write ratios.")
  in
  let action s nodes_list rtts wratios rate csv =
    let config = configure s in
    let mix = ok (raft_mix s.workload) in
    let n_requests = s.n_requests and seed = s.seed in
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
    if not (direct_p50 > 0.0) then begin
      prerr_endline "raft-study: direct baseline produced no read samples";
      exit 1
    end;
    let us_csv = csv_field (fun ns -> Printf.sprintf "%.3f" (k ns)) in
    if csv then
      print_endline "nodes,rtt_cycles,write_ratio,direct_p50_us,write_p50_us,write_overhead,read_p50_us,read_ratio,write_p99_us,read_p99_us"
    else begin
      Printf.printf
        "consensus overhead: %s at %.1f kRps, direct p50 %.1f us (1 member, no writes)\n"
        mix.Concord.Mix.name rate (k direct_p50);
      Printf.printf "%5s %8s %7s | %11s %9s | %11s %9s | %11s %11s\n" "nodes" "rtt_us" "w_frac"
        "write_p50us" "overhead" "read_p50us" "vs_direct" "write_p99us" "read_p99us"
    end;
    List.iter
      (fun nodes ->
        List.iter
          (fun rtt_cycles ->
            List.iter
              (fun write_ratio ->
                let raft = Raft.homogeneous ~rtt_cycles ~write_ratio ~nodes config in
                let (s : Raft.summary) = Raft.run ~raft ~mix ~arrival ~n_requests ~seed () in
                (match Raft.check_invariants s with
                | Ok () -> ()
                | Error msg ->
                  Printf.eprintf "raft-study (%d nodes): %s\n" nodes msg;
                  exit 1);
                let w_over = s.write_p50_ns /. direct_p50 in
                let r_over = s.read_p50_ns /. direct_p50 in
                if csv then
                  Printf.printf "%d,%d,%g,%.3f,%s,%s,%s,%s,%s,%s\n" nodes rtt_cycles write_ratio
                    (k direct_p50) (us_csv s.write_p50_ns)
                    (csv_field (Printf.sprintf "%.2f") w_over)
                    (us_csv s.read_p50_ns)
                    (csv_field (Printf.sprintf "%.3f") r_over)
                    (us_csv s.write_p99_ns) (us_csv s.read_p99_ns)
                else
                  Printf.printf "%5d %8.0f %7.2f | %s %s | %s %s | %s %s\n" nodes
                    (k (float_of_int rtt_cycles /. 2.0))
                    write_ratio (us_cell 11 s.write_p50_ns)
                    (cell 9 (Printf.sprintf "%8.1fx") w_over)
                    (us_cell 11 s.read_p50_ns)
                    (cell 9 (Printf.sprintf "%8.2fx") r_over)
                    (us_cell 11 s.write_p99_ns) (us_cell 11 s.read_p99_ns))
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
      const action
      $ spec_term
          ~workload:
            (workload_arg ~default:"fixed:50"
               ~doc:"Workload preset, or fixed:US for single-size ops (default fixed:50)." ())
          (requests_arg ~doc:"Arrivals per cell." 20_000)
      $ nodes_arg
      $ rtts_arg [ 880_000 ] "Comma-separated inter-member RTTs in cycles."
      $ wratios_arg
      $ rate_arg ~doc:"Offered load in kRps (keep it low: the study measures intrinsic latency)."
          4.0
      $ csv_arg "Emit CSV instead of the table.")

(* ---- cluster (rack scale) ---------------------------------------------- *)

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

let cluster_cmd =
  let module Cluster = Repro_cluster.Cluster in
  let module Par_sim = Repro_engine.Par_sim in
  let rtt_arg =
    Arg.(
      value & opt int 0
      & info [ "rtt-cycles" ] ~docv:"CYCLES"
          ~doc:
            "Inter-server round trip in cycles; the balancer's queue views go stale by up to \
             this much.")
  in
  let arrival_arg =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ] ~docv:"SPEC"
          ~doc:
            "Arrival process: poisson | uniform | burst:N | diurnal:AMP:PERIOD_S | \
             mmpp:FACTOR:CYCLE:DUTY (single-point runs only).")
  in
  let action s policies instances rtt stragglers hedge_spec steal arrival_spec rate obs check
      sweep jobs engine_spec =
    let engine = ok (Par_sim.of_string engine_spec) in
    let config, mix = resolve s in
    let policy, config = split_policies config mix policies in
    let hedge = ok (Hedge.of_string hedge_spec) in
    let cluster =
      Cluster.homogeneous ~policy ~rtt_cycles:rtt ~hedge ~steal ~stragglers ~instances config
    in
    let capacity_rps =
      float_of_int (instances * config.Concord.Config.n_workers)
      /. Concord.Mix.mean_service_ns mix *. 1e9
    in
    let rate_rps =
      match rate with Some krps -> rate_rps_of_krps krps | None -> 0.75 *. capacity_rps
    in
    let n_requests = s.n_requests and seed = s.seed in
    let describe () =
      Printf.printf "rack: %d x { %s }, policy %s, rtt %d cycles%s%s%s\n" instances
        (Concord.Config.describe config) (Lb_policy.name policy) rtt
        (stragglers_suffix stragglers) (hedge_suffix hedge)
        (if steal then ", stealing" else "")
    in
    match sweep with
    | Some points ->
      let rates =
        List.init points (fun i ->
            0.95 *. capacity_rps *. float_of_int (i + 1) /. float_of_int points)
      in
      let sw =
        Concord.Sweep.of_runner ?domains:jobs ~mix ~rates
          (fun arrival -> (Cluster.run ~cluster ~mix ~arrival ~n_requests ~seed ()).cluster)
      in
      describe ();
      Printf.printf "workload: %s\n" sw.Concord.Sweep.workload;
      print_sweep sw
    | None ->
      let tracer = tracer_if obs n_requests in
      let arrival = ok (Concord.Arrival.of_spec arrival_spec ~rate_rps) in
      let (s : Cluster.summary) =
        Cluster.run ~cluster ~mix ~arrival ~n_requests ~seed ?tracer ~engine ()
      in
      describe ();
      if engine <> Par_sim.Seq || s.engine <> Par_sim.Seq then
        Printf.printf "engine: %s%s\n" (Par_sim.describe s.engine)
          (if s.engine = Par_sim.Seq then " (degraded)" else "");
      Printf.printf "workload: %s, offered %.1f kRps total (%.0f%% of rack capacity)\n"
        mix.Concord.Mix.name (k rate_rps)
        (100. *. rate_rps /. capacity_rps);
      print_summary s.cluster;
      print_classes s.cluster;
      Array.iteri
        (fun i ps ->
          Printf.printf "  instance %d (routed %d):\n    %s\n" i s.routed.(i)
            (Concord.Metrics.summary_row ps))
        s.per_instance;
      if s.lb_held > 0 || s.lb_unrouted > 0 then
        Printf.printf "balancer: %d arrivals held for a JBSQ credit, %d never routed\n" s.lb_held
          s.lb_unrouted;
      if s.hedge <> Hedge.Off then
        Printf.printf
          "hedging (%s): %d duplicates (%.1f%% of arrivals), %d wins, %d cancels, %.1f us \
           wasted\n"
          (Hedge.name s.hedge) s.hedges
          (100. *. float_of_int s.hedges /. float_of_int (max 1 s.requests))
          s.hedge_wins s.hedge_cancels
          (k (float_of_int s.hedge_wasted_ns));
      if s.steal then Printf.printf "stealing: %d migrations\n" s.steals;
      Option.iter (report_trace obs config) tracer;
      if check then begin
        match Cluster.check_invariants s with
        | Ok () -> Printf.printf "check: invariants hold (%d requests)\n" s.requests
        | Error msg ->
          Printf.eprintf "check: %s\n" msg;
          exit 1
      end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run a rack of server instances behind an inter-server load balancer.")
    Term.(
      const action $ spec_term (requests_arg 60_000)
      $ lb_or_central_policy_arg ~routing:"Inter-server load-balancing policy"
          ~member:"instance"
      $ instances_arg 4 "Server instances in the rack." $ rtt_arg
      $ straggler_arg
          "Make instance IDX a straggler that executes everything FACTOR times slower \
           (repeatable)."
      $ hedge_arg ~what:"Balancer-side request hedging"
          ~how:
            "duplicate a slow request onto the shortest-view other server; first completion \
             wins, the loser is cancelled."
      $ steal_arg
          "Rack-level work stealing: a server whose balancer view drains to zero probes the \
           fullest peer for one not-yet-started request."
      $ arrival_arg
      $ derived_rate_arg
          "Total offered load in kRps (default: 75% of the rack's ideal capacity)."
      $ observe_arg
          ~trace_doc:"Export the all-instance trace as Chrome trace-event JSON (Perfetto)." ()
      $ check_arg "Validate conservation invariants on the summary; non-zero exit on failure."
      $ sweep_arg "Sweep offered load instead of running one point."
      $ jobs_arg "Domains for the sweep fan-out (with --sweep)."
      $ engine_arg)

(* ---- frontier ---------------------------------------------------------- *)

let frontier_cmd =
  let systems_arg =
    Arg.(
      value
      & opt (axis string) [ "concord"; "concord-uipi"; "shinjuku" ]
      & info [ "systems" ] ~docv:"A,B,..."
          ~doc:"Comma-separated mechanism presets forming the configuration axis.")
  in
  let p_shorts_arg =
    Arg.(
      value
      & opt (axis float) [ 0.5; 0.9; 0.99; 0.999 ]
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
      & opt (axis positive_float) [ 0.85 ]
      & info [ "util" ] ~docv:"U,..." ~doc:"Utilization fractions of ideal capacity.")
  in
  let action systems policies p_shorts short_us long_us utils quantum workers n_requests seed
      jobs csv =
    let configs =
      List.map
        (fun system ->
          ok (Concord.configure ~system ?n_workers:workers ~quantum_us:quantum ()))
        systems
    in
    let workloads =
      Concord.Sweep.dispersion_axis ~short_ns:(short_us *. 1e3) ~long_ns:(long_us *. 1e3)
        ~p_shorts
    in
    let points =
      Concord.Sweep.run_frontier ~configs ~policies ~workloads ~utils ~n_requests ~seed
        ?domains:jobs ()
    in
    print_string
      (if csv then Concord.Sweep.frontier_csv points else Concord.Sweep.render_frontier points)
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:
         "Cross mechanisms x central-queue policies x service-time dispersion at fixed \
          utilization (the policy-frontier study).")
    Term.(
      const action $ systems_arg
      $ policies_arg
          [ "fcfs"; "srpt"; "srpt-noisy:0.5"; "srpt-noisy:1"; "srpt-noisy:2"; "gittins" ]
          (Printf.sprintf "Comma-separated central-queue policy specs (%s)."
             Concord.Policy.spec_syntax)
      $ p_shorts_arg $ short_arg $ long_arg
      $ utils_arg $ quantum_arg $ workers_arg
      $ requests_arg ~doc:"Arrivals per cell." 40_000
      $ seed_arg $ jobs_arg "Domains for the cell fan-out."
      $ csv_arg "Emit CSV instead of the heat-table.")

(* ---- hedge-study ------------------------------------------------------- *)

let hedge_study_cmd =
  let hedges_arg =
    Arg.(
      value
      & opt (axis string) [ "off"; "fixed:20000"; "pct:99"; "adaptive:0.05" ]
      & info [ "hedges" ] ~docv:"H,..."
          ~doc:
            (Printf.sprintf "Comma-separated hedge specs (%s)."
               (String.concat ", " Hedge.all_names)))
  in
  let util_arg =
    Arg.(
      value & opt positive_float 0.7
      & info [ "util" ] ~docv:"U" ~doc:"Utilization fraction of ideal rack capacity.")
  in
  let action s rtts hedges policies steal stragglers instances util jobs csv =
    let config, mix = resolve s in
    let points =
      Concord.Sweep.run_hedge_study ~config ~mix ~rtts ~hedges ~policies ~steal ~stragglers
        ~instances ~util ~n_requests:s.n_requests ~seed:s.seed ?domains:jobs ()
    in
    print_string (if csv then Concord.Sweep.hedge_csv points else Concord.Sweep.render_hedge points)
  in
  Cmd.v
    (Cmd.info "hedge-study"
       ~doc:
         "Cross inter-server RTT x hedge policy x LB routing policy at fixed utilization \
          (the tail-tolerance study).")
    Term.(
      const action
      $ spec_term (requests_arg ~doc:"Arrivals per cell." 40_000)
      $ rtts_arg [ 0; 1_000; 5_000; 20_000 ]
          "Comma-separated inter-server RTTs in cycles (the staleness axis)."
      $ hedges_arg
      $ policies_arg [ "po2c"; "jsq" ]
          (Printf.sprintf "Comma-separated LB routing policies (%s)."
             (String.concat ", " Lb_policy.all_names))
      $ steal_arg "Enable rack-level work stealing in every cell."
      $ straggler_arg
          "Make instance IDX a straggler in every cell — the asymmetry hedging and \
           stealing exist to absorb (repeatable)."
      $ instances_arg 3 "Server instances per rack." $ util_arg
      $ jobs_arg "Domains for the cell fan-out."
      $ csv_arg "Emit CSV instead of the table.")

(* ---- sls (6) -------------------------------------------------------------- *)

let sls_cmd =
  let variant_arg =
    Arg.(
      value
      & opt string "concord-sls"
      & info [ "variant" ] ~docv:"V" ~doc:"concord-sls | shenango | d-fcfs")
  in
  let action variant workload quantum workers rate n_requests seed =
    let module Sls = Repro_runtime.Sls_server in
    let make =
      match variant with
      | "concord-sls" -> Sls.concord_sls
      | "shenango" -> Sls.shenango_like
      | "d-fcfs" -> Sls.partitioned_fcfs
      | v -> invalid_arg ("unknown SLS variant: " ^ v)
    in
    let config = make ?n_workers:workers ~quantum_ns:(int_of_float (quantum *. 1e3)) () in
    let mix = ok (Concord.workload workload) in
    let s =
      Sls.run ~config ~mix
        ~arrival:(Concord.Arrival.Poisson { rate_rps = rate_rps_of_krps rate })
        ~n_requests ~seed ()
    in
    Printf.printf "%s on %s at %.1f kRps\n" config.Sls.name mix.Concord.Mix.name rate;
    print_summary s
  in
  Cmd.v
    (Cmd.info "sls" ~doc:"Run a single-logical-queue (work-stealing) system (6).")
    Term.(
      const action $ variant_arg $ workload_arg () $ quantum_arg $ workers_arg
      $ required_rate_arg $ requests_arg 60_000 $ seed_arg)

(* ---- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let request_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "request" ] ~docv:"ID" ~doc:"Show only this request's lifecycle.")
  in
  let last_arg =
    Arg.(
      value & opt non_negative_int 60 & info [ "last" ] ~docv:"N" ~doc:"Show the last N events.")
  in
  let csv_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the raw event stream as CSV.")
  in
  let action s rate request last obs csv_file check =
    let config, mix = resolve s in
    let tracer = tracer s.n_requests in
    let (_ : Concord.Metrics.summary) =
      Repro_runtime.Server.run ~config ~mix
        ~arrival:(Concord.Arrival.Poisson { rate_rps = rate_rps_of_krps rate })
        ~n_requests:s.n_requests ~seed:s.seed ~tracer ()
    in
    let entries =
      match request with
      | Some id -> Tracing.of_request tracer ~request:id
      | None ->
        let all = Tracing.entries tracer in
        let n = List.length all in
        List.filteri (fun i _ -> i >= n - last) all
    in
    List.iter (fun e -> print_endline (Tracing.entry_to_string e)) entries;
    report_dropped tracer;
    report_trace obs config tracer;
    Option.iter
      (fun path ->
        Trace_export.write_file ~path (Trace_export.tracer_events_to_csv tracer);
        Printf.printf "events written to %s\n" path)
      csv_file;
    if check then begin
      let fail, failed = check_failures () in
      let bs = breakdowns config tracer in
      if bs = [] then fail "check: no complete request lifecycles in the trace";
      List.iter
        (fun b -> Result.iter_error (fun msg -> fail ("check: " ^ msg)) (Breakdown.check b))
        bs;
      Option.iter
        (fun path ->
          match Trace_export.validate_chrome_file path with
          | Ok n -> Printf.printf "check: %s is valid Chrome trace JSON (%d events)\n" path n
          | Error msg -> fail (Printf.sprintf "check: %s: %s" path msg))
        obs.trace_file;
      if failed () then exit 1
      else
        Printf.printf "check: %d lifecycles, components sum to sojourn for all\n"
          (List.length bs)
    end
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a small simulation and print/export request-lifecycle events.")
    Term.(
      const action
      $ spec_term (requests_arg ~doc:"Arrivals." 2_000)
      $ rate_arg 150.0 $ request_arg $ last_arg
      $ observe_arg
          ~trace_doc:"Export the trace as Chrome trace-event JSON (open in ui.perfetto.dev)." ()
      $ csv_file_arg
      $ check_arg
          "Validate the trace: breakdown components must sum to each sojourn, and any \
           exported JSON must be schema-valid. Non-zero exit on failure.")

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
      Trace_export.write_file ~path (Verify.to_json rows);
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
      & opt (some (axis string)) None
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
      & opt (some (axis string)) None
      & info [ "systems" ] ~docv:"A,B,..."
          ~doc:"Comma-separated system names (default: the built-in comparison set).")
  in
  let action systems workload workers rate n_requests seed =
    let mix = ok (Concord.workload workload) in
    let rows =
      Breakdown.run_systems ?systems ~workload:mix ?n_workers:workers
        ~rate_rps:(rate_rps_of_krps rate) ~n_requests ~seed ()
    in
    Printf.printf "mean per-request latency breakdown, %s at %.1f kRps (ns)\n"
      mix.Concord.Mix.name rate;
    print_string (Breakdown.render_attribution rows)
  in
  Cmd.v
    (Cmd.info "overheads"
       ~doc:"Attribute where each system's cycles go (Concord vs Shinjuku et al.).")
    Term.(
      const action $ systems_arg $ workload_arg () $ workers_arg $ rate_arg 150.0
      $ requests_arg ~doc:"Arrivals per system." 4_000
      $ seed_arg)

let () =
  let info =
    Cmd.info "concord-sim" ~version:"1.0.0"
      ~doc:"Simulation-based reproduction of Concord (SOSP 2023)."
  in
  let cmd =
    Cmd.group info
      [
        list_cmd;
        figure_cmd;
        sweep_cmd;
        run_cmd;
        frontier_cmd;
        cluster_cmd;
        hedge_study_cmd;
        raft_cmd;
        raft_study_cmd;
        sls_cmd;
        trace_cmd;
        overheads_cmd;
        verify_probes_cmd;
        check_model_cmd;
      ]
  in
  (* The one exit for bad input: a bad spec, flag value or output path. *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception (Invalid_argument msg | Sys_error msg) ->
      prerr_endline msg;
      1)
