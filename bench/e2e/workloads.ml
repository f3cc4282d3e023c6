(* The six benchmark workloads. Each one builds its inputs from the seed
   through public constructors only ([build], the part timed as set-up) and
   runs them through the public entry point of its tier
   ([Server.run_detailed], [Cluster.run_detailed], [Raft.run_detailed]).
   All are open-loop Poisson in simulated time, so the generator is never
   late: host time stretches the run, it never thins the offered load.

   The rates and sizes are chosen so each workload loads a different part
   of the simulator; README.md gives the reasons in full. *)

module Par_sim = Repro_engine.Par_sim
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Policy = Repro_runtime.Policy
module Server = Repro_runtime.Server
module Systems = Repro_runtime.Systems
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival
module Presets = Repro_workload.Presets
module Cluster = Repro_cluster.Cluster
module Hedge = Repro_cluster.Hedge
module Lb_policy = Repro_cluster.Lb_policy
module Raft = Repro_raft.Raft
module Kv_workload = Repro_kvstore.Kv_workload

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

type model = Standalone of Config.t | Rack of Cluster.t | Replicated of Raft.t

type inputs = {
  model : model;
  mix : Mix.t;
  arrival : Arrival.t;
  parts_ns : (string * int) list;
      (* set-up steps costly enough to get their own per-layer metric *)
}

type t = {
  name : string;
  why : string;
  requests : int;
      (* open-loop arrivals per run, sized for 0.3-0.4 s of host time: many
         short runs give a steadier median than a few long ones on a
         noisy host *)
  quick_requests : int;
  engine : Par_sim.t;
  build : seed:int -> inputs;
      (* fresh inputs per run: the kvstore mix mutates its store, so
         reusing inputs would change the next run's answer *)
}

(* The simulated outputs that must repeat exactly across runs of one seed.
   They are recorded, not gated as metrics: the golden tests govern the
   model, this only proves every timed run computed the same thing. *)
type fingerprint = {
  events : int;
  completed : int;
  censored : int;
  p50 : float;
  p99 : float;
  p999 : float;
  goodput_rps : float;
}

type outcome = {
  summary : Metrics.summary;  (* the client-level view of the tier *)
  fingerprint : fingerprint;
  check : (unit, string) result;
  counts : (string * float) list;
      (* exact per-layer counts read off the tier's public summary *)
  wall_ns : int;  (* the entry-point call alone *)
}

let fingerprint ~events (s : Metrics.summary) =
  {
    events;
    completed = s.completed;
    censored = s.censored;
    p50 = s.p50_slowdown;
    p99 = s.p99_slowdown;
    p999 = s.p999_slowdown;
    goodput_rps = s.goodput_rps;
  }

let fingerprint_fields f =
  [
    ("events", float_of_int f.events);
    ("completed", float_of_int f.completed);
    ("censored", float_of_int f.censored);
    ("p50_slowdown", f.p50);
    ("p99_slowdown", f.p99);
    ("p999_slowdown", f.p999);
    ("goodput_rps", f.goodput_rps);
  ]

(* The standalone tier has no [check_invariants]; this is the conservation
   rule of [concord_sim run --check]. *)
let conservation ~n (s : Metrics.summary) =
  if s.completed + s.censored <> n then
    Error (Printf.sprintf "%d completed + %d censored <> %d arrivals" s.completed s.censored n)
  else if s.completed = 0 then Error "nothing completed"
  else if not (s.goodput_rps > 0.0) then Error "non-positive goodput"
  else Ok ()

let per_req n x = float_of_int x /. float_of_int n

let run_standalone ~config ~mix ~arrival ~seed ~n =
  let events = ref 0 in
  let (s, _), wall_ns =
    timed (fun () ->
        Server.run_detailed ~config ~mix ~arrival ~n_requests:n ~seed ~events_out:events ())
  in
  {
    summary = s;
    fingerprint = fingerprint ~events:!events s;
    check = conservation ~n s;
    counts = [ ("runtime.preemptions_per_req", per_req n s.preemptions) ];
    wall_ns;
  }

let run_rack ~cluster ~mix ~arrival ~engine ~seed ~n =
  let events = ref 0 in
  let (s, _), wall_ns =
    timed (fun () ->
        Cluster.run_detailed ~cluster ~mix ~arrival ~n_requests:n ~seed ~events_out:events ~engine
          ())
  in
  let routed = Array.fold_left ( + ) 0 s.routed in
  let mean_routed = float_of_int routed /. float_of_int (Array.length s.routed) in
  {
    summary = s.cluster;
    fingerprint = fingerprint ~events:!events s.cluster;
    check =
      (if s.engine <> engine then
         Error (Printf.sprintf "engine %s degraded to %s" (Par_sim.to_string engine)
                  (Par_sim.to_string s.engine))
       else Cluster.check_invariants s);
    counts =
      [
        ("runtime.preemptions_per_req", per_req n s.cluster.preemptions);
        ("cluster.hedges_per_req", per_req n s.hedges);
        ( "cluster.hedge_win_frac",
          if s.hedges = 0 then 0.0 else float_of_int s.hedge_wins /. float_of_int s.hedges );
        ("cluster.hedge_wasted_us_per_req", per_req n s.hedge_wasted_ns /. 1e3);
        ( "cluster.route_imbalance",
          float_of_int (Array.fold_left max 0 s.routed) /. mean_routed );
      ];
    wall_ns;
  }

let run_raft ~raft ~mix ~arrival ~seed ~n =
  let events = ref 0 in
  let (s, _), wall_ns =
    timed (fun () ->
        Raft.run_detailed ~raft ~mix ~arrival ~n_requests:n ~seed ~events_out:events ())
  in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  {
    summary = s.client;
    fingerprint = fingerprint ~events:!events s.client;
    check = Raft.check_invariants s;
    counts =
      [
        ( "runtime.preemptions_per_req",
          per_req n (sum (fun (m : Metrics.summary) -> m.preemptions) s.per_node) );
        ( "raft.member_completions_per_req",
          per_req n (sum (fun (m : Metrics.summary) -> m.completed) s.per_node) );
        ( "raft.wal_records_per_write",
          float_of_int (sum Fun.id s.wal_records) /. float_of_int (max 1 s.writes) );
        ("raft.parked_per_req", per_req n s.parked);
      ];
    wall_ns;
  }

(* [engine] overrides the workload's own engine (the par comparisons). *)
let run ?engine w inputs ~seed ~n =
  let { mix; arrival; _ } = inputs in
  match inputs.model with
  | Standalone config -> run_standalone ~config ~mix ~arrival ~seed ~n
  | Rack cluster ->
    run_rack ~cluster ~mix ~arrival ~engine:(Option.value engine ~default:w.engine) ~seed ~n
  | Replicated raft -> run_raft ~raft ~mix ~arrival ~seed ~n

let poisson rate_rps = Arrival.Poisson { rate_rps }

let standalone ?(parts_ns = []) ?policy mix rate_rps =
  let config = Systems.concord () in
  let config = match policy with None -> config | Some policy -> { config with Config.policy } in
  { model = Standalone config; mix; arrival = poisson rate_rps; parts_ns }

let policy_of_spec spec mix =
  match Policy.of_spec spec ~mix with Ok k -> k | Error e -> invalid_arg e

let all =
  [
    {
      name = "std-usr";
      why =
        "0.5 us requests at 2 MRps: the event core, arrival generation, dispatcher ingress and \
         the percentile sort do the work";
      requests = 100_000;
      quick_requests = 2_000;
      engine = Par_sim.Seq;
      build = (fun ~seed:_ -> standalone Presets.usr 2.0e6);
    };
    {
      name = "std-ycsb-gittins";
      why =
        "100 us requests preempted every 5 us quantum at 90% load: the requeue path and the \
         rank-ordered Gittins queue";
      requests = 20_000;
      quick_requests = 1_000;
      engine = Par_sim.Seq;
      build =
        (fun ~seed:_ ->
          let mix = Presets.ycsb_a in
          let policy, table_ns = timed (fun () -> policy_of_spec "gittins" mix) in
          standalone ~policy ~parts_ns:[ ("setup.policy_table_ms", table_ns) ] mix 250e3);
    };
    {
      name = "kv-zippydb";
      why =
        "every arrival runs a real kvstore GET/PUT/DELETE/SCAN on a 15k-key store: the only \
         workload where kvstore and a costly set-up do work";
      requests = 20_000;
      quick_requests = 1_000;
      engine = Par_sim.Seq;
      build =
        (fun ~seed ->
          let store, populate_ns = timed (fun () -> Kv_workload.populate ~seed ()) in
          standalone
            ~parts_ns:[ ("setup.kvstore_populate_ms", populate_ns) ]
            (Kv_workload.zippydb_mix store ~seed)
            300e3);
    };
    {
      name = "rack-hedged";
      why =
        "4-server po2c rack with an 8x straggler and pct:99 hedging: the balancer's hedge, \
         cancel and zombie-leg path";
      requests = 8_000;
      quick_requests = 1_000;
      engine = Par_sim.Seq;
      build =
        (fun ~seed:_ ->
          let cluster =
            Cluster.homogeneous ~policy:Lb_policy.Po2c ~rtt_cycles:5000
              ~stragglers:[ (3, 8.0) ]
              ~hedge:(Hedge.Percentile { pct = 99.0 })
              ~instances:4 (Systems.concord ())
          in
          { model = Rack cluster; mix = Presets.ycsb_a; arrival = poisson 550e3; parts_ns = [] });
    };
    {
      name = "rack-par";
      why =
        "4-server rack at 8 MRps under the windowed parallel engine on 2 domains: Par_sim \
         windows, mailboxes and barriers";
      requests = 60_000;
      quick_requests = 4_000;
      engine = Par_sim.Par { domains = 2 };
      build =
        (fun ~seed:_ ->
          let cluster =
            Cluster.homogeneous ~policy:Lb_policy.Po2c ~rtt_cycles:4000 ~instances:4
              (Systems.concord ())
          in
          { model = Rack cluster; mix = Presets.usr; arrival = poisson 8.0e6; parts_ns = [] });
    };
    {
      name = "raft-3node";
      why =
        "3-member Raft group, leases on, 50% writes: consensus mini-requests on a shared heap, \
         ~420 events per request";
      requests = 3_000;
      quick_requests = 300;
      engine = Par_sim.Seq;
      build =
        (fun ~seed:_ ->
          let raft = Raft.homogeneous ~nodes:3 (Systems.concord ()) in
          { model = Replicated raft; mix = Presets.usr; arrival = poisson 20e3; parts_ns = [] });
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
