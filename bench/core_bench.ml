(* Core-throughput suite: a small, deterministic set of end-to-end
   simulations plus substrate microbenches, timed wall-clock and reported
   as *simulated events per second* — the denominator every hot-path
   optimisation in the engine is judged against. Invoked as

     dune exec bench/main.exe -- --json FILE [--quick]

   The seeds, scenario parameters and event counts are fixed, so [events]
   and [p99_slowdown] in the output are bit-stable across runs and
   machines; only [wall_s] (and hence [events_per_sec]) varies. The repo
   commits a reference run as BENCH_core.json (see EXPERIMENTS.md,
   "Simulator throughput"). *)

module Sim = Repro_engine.Sim
module Heap = Repro_engine.Heap
module Ring = Repro_engine.Ring
module Par_sim = Repro_engine.Par_sim

type row = {
  name : string;
  kind : string; (* "server" | "cluster" | "micro" *)
  requests : int; (* 0 for microbenches *)
  events : int; (* simulated events (or micro ops) per run *)
  wall_s : float; (* best-of-N wall seconds for one run *)
  p99_slowdown : float; (* nan for microbenches *)
  engine : string; (* the engine that actually ran ("seq" after a degrade) *)
  domains_used : int; (* 1 everywhere except a live parallel run *)
}

(* An events/s row from a parallel scenario is uninterpretable without
   knowing how many cores the run actually had (a 1-core container
   time-slices the domains, so "par:4" can legitimately be SLOWER than
   seq). Recorded once at the top of the JSON. *)
let cores () = Domain.recommended_domain_count ()

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One warm-up run (buffer growth, page faults), then best-of-[repeats].
   [f] returns (events, p99, engine, domains_used); all are deterministic,
   so any run's tuple is as good as another's. *)
let time_scenario ~repeats f =
  ignore (f ());
  let best = ref infinity in
  let events = ref 0 in
  let p99 = ref nan in
  let engine = ref "seq" in
  let domains = ref 1 in
  for _ = 1 to repeats do
    let (e, p, eng, d), dt = wall f in
    events := e;
    p99 := p;
    engine := eng;
    domains := d;
    if dt < !best then best := dt
  done;
  (!events, !p99, !engine, !domains, !best)

let config_of_system name =
  match Repro_runtime.Systems.by_name name with
  | Some make -> make ()
  | None -> invalid_arg ("core_bench: unknown system " ^ name)

let server_scenario ?policy ~system ~rate_rps ~n_requests () =
  let config = config_of_system system in
  let config =
    match policy with
    | None -> config
    | Some spec -> (
      match Repro_runtime.Policy.of_spec spec ~mix:Repro_workload.Presets.usr with
      | Ok kind -> { config with Repro_runtime.Config.policy = kind }
      | Error e -> invalid_arg ("core_bench: " ^ e))
  in
  let events = ref 0 in
  let summary, (_ : Repro_engine.Stats.t) =
    Repro_runtime.Server.run_detailed ~config ~mix:Repro_workload.Presets.usr
      ~arrival:(Repro_workload.Arrival.Poisson { rate_rps })
      ~n_requests ~events_out:events ()
  in
  (!events, summary.Repro_runtime.Metrics.p99_slowdown, "seq", 1)

let cluster_scenario ?(hedge = Repro_cluster.Hedge.Off) ?(stragglers = []) ?(rtt_cycles = 0)
    ?(engine = Par_sim.Seq) ~instances ~rate_rps ~n_requests () =
  let cluster =
    Repro_cluster.Cluster.homogeneous ~policy:Repro_cluster.Lb_policy.Po2c ~hedge
      ~rtt_cycles ~stragglers ~instances
      (config_of_system "concord")
  in
  let events = ref 0 in
  let summary, (_ : Repro_engine.Stats.t) =
    Repro_cluster.Cluster.run_detailed ~cluster ~mix:Repro_workload.Presets.usr
      ~arrival:(Repro_workload.Arrival.Poisson { rate_rps })
      ~n_requests ~events_out:events ~engine ()
  in
  ( !events,
    summary.Repro_cluster.Cluster.cluster.Repro_runtime.Metrics.p99_slowdown,
    (* record what actually ran, not what was asked — a degrade must show *)
    Par_sim.to_string summary.Repro_cluster.Cluster.engine,
    summary.Repro_cluster.Cluster.domains_used )

let raft_scenario ~nodes ~rate_rps ~n_requests () =
  let raft =
    Repro_raft.Raft.homogeneous ~nodes (config_of_system "concord")
  in
  let events = ref 0 in
  let summary, (_ : Repro_engine.Stats.t) =
    Repro_raft.Raft.run_detailed ~raft ~mix:Repro_workload.Presets.usr
      ~arrival:(Repro_workload.Arrival.Poisson { rate_rps })
      ~n_requests ~events_out:events ()
  in
  (!events, summary.Repro_raft.Raft.client.Repro_runtime.Metrics.p99_slowdown, "seq", 1)

(* Heap churn: [rounds] batches of 1k keyed adds followed by a full drain —
   the event-queue access pattern of a loaded simulation, minus the
   handlers. Counted as adds + pops. *)
let heap_scenario ~rounds () =
  let h = Heap.create () in
  for _ = 1 to rounds do
    for i = 0 to 999 do
      Heap.add h ~key:(i * 7919 mod 1000) i
    done;
    while not (Heap.is_empty h) do
      ignore (Heap.pop_unsafe h)
    done
  done;
  (rounds * 2000, nan, "seq", 1)

(* Ring churn: fill-then-drain through the dispatcher's op ring. Starts at
   the dispatcher's default capacity so the first round exercises growth
   and the rest run steady-state. Counted as pushes + pops. *)
let ring_scenario ~rounds () =
  let r = Ring.create ~capacity:64 ~dummy:(-1) () in
  for _ = 1 to rounds do
    for i = 0 to 999 do
      Ring.push r i
    done;
    while not (Ring.is_empty r) do
      ignore (Ring.pop_unsafe r)
    done
  done;
  (rounds * 2000, nan, "seq", 1)

(* Sim spin: a single self-rescheduling event driven [n] times through the
   zero-allocation Sim.run/Heap fast path — the per-event floor of the
   whole simulator. *)
let sim_scenario ~n () =
  let sim = Sim.create ~capacity:16 () in
  Sim.schedule_at sim ~time:(Sim.now sim) 0;
  let left = ref n in
  Sim.run sim
    ~handler:(fun s _ ->
      decr left;
      if !left > 0 then Sim.schedule_after s ~delay:1 0)
    ();
  (Sim.events_processed sim, nan, "seq", 1)

(* O(1) dispatcher-steal pin: the work-conserving dispatcher's
   has_not_started/pop_not_started probes must not depend on the central
   backlog. All pushed requests have started, so the FCFS fresh sublist
   stays empty and both probes answer without touching the main list; the
   pre-fix implementation scanned it, making the probe ~256x dearer at
   backlog 32768 than at 128. Aborts the bench on a super-constant
   regression instead of silently reporting a slow number. *)
let policy_backlog_scenario ~iters () =
  let module Policy = Repro_runtime.Policy in
  let module Request = Repro_runtime.Request in
  let profile =
    {
      Repro_workload.Mix.class_id = 0;
      service_ns = 1_000;
      lock_windows = [||];
      probe_spacing_ns = 0.0;
    }
  in
  let fill n =
    let q = Policy.create Policy.Fcfs in
    for i = 0 to n - 1 do
      let r = Request.create ~id:i ~arrival_ns:0 ~profile in
      r.Request.started <- true;
      Policy.push_preempted q r
    done;
    q
  in
  let per_op n =
    let q = fill n in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      if Policy.has_not_started q then failwith "core_bench: started-only queue claims fresh work";
      if Policy.pop_not_started q <> None then
        failwith "core_bench: started-only queue yielded a steal candidate"
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  in
  let small = per_op 128 in
  let big = per_op 32_768 in
  (* Absolute floor guards against timer noise when both are ~ns; a linear
     scan of 32k nodes costs ~10 us/op, far past both bounds. *)
  if big > 8.0 *. small && big > 2e-7 then
    failwith
      (Printf.sprintf
         "core_bench: steal-probe per-op grew %.1fx from backlog 128 to 32768 (%.1f ns -> \
          %.1f ns); expected O(1)"
         (big /. small) (small *. 1e9) (big *. 1e9));
  (4 * iters, nan, "seq", 1)

(* Static timeliness verifier over the whole kernel suite: Gapbound +
   Elide + Monte-Carlo cross-check for both placements of all 24 programs.
   Counted as placements verified; any soundness violation aborts the
   bench rather than reporting a timing for a broken verifier. *)
let verify_scenario ~samples ~trials () =
  let rows = Repro_instrument.Verify.run_suite ~samples ~trials () in
  if not (Repro_instrument.Verify.all_ok rows) then
    failwith "core_bench: verify-probes found an unsound placement";
  (2 * List.length rows, nan, "seq", 1)

let scenarios ~quick =
  let scale n = if quick then n / 5 else n in
  [
    ( "sq-shinjuku",
      "server",
      scale 30_000,
      fun () -> server_scenario ~system:"shinjuku" ~rate_rps:1.0e6 ~n_requests:(scale 30_000) () );
    ( "jbsq-concord",
      "server",
      scale 30_000,
      fun () -> server_scenario ~system:"concord" ~rate_rps:1.0e6 ~n_requests:(scale 30_000) () );
    ( "policy-srpt",
      "server",
      scale 20_000,
      server_scenario ~policy:"srpt" ~system:"concord" ~rate_rps:1.0e6
        ~n_requests:(scale 20_000) );
    ( "policy-srpt-noisy",
      "server",
      scale 20_000,
      server_scenario ~policy:"srpt-noisy:1" ~system:"concord" ~rate_rps:1.0e6
        ~n_requests:(scale 20_000) );
    ( "policy-gittins",
      "server",
      scale 20_000,
      server_scenario ~policy:"gittins" ~system:"concord" ~rate_rps:1.0e6
        ~n_requests:(scale 20_000) );
    ( "policy-locality",
      "server",
      scale 20_000,
      server_scenario ~policy:"locality-fcfs" ~system:"concord" ~rate_rps:1.0e6
        ~n_requests:(scale 20_000) );
    ( "adaptive-quantum",
      "server",
      scale 20_000,
      fun () ->
        server_scenario ~system:"concord-adaptive" ~rate_rps:1.0e6 ~n_requests:(scale 20_000) ()
    );
    ( "cluster-po2c-3x",
      "cluster",
      scale 20_000,
      fun () -> cluster_scenario ~instances:3 ~rate_rps:3.0e6 ~n_requests:(scale 20_000) ()
    );
    (* Same rack under the conservative time-window parallel engine, with
       a real inter-server RTT so the model has lookahead (rtt 0 would
       degrade to seq). One domain per instance, capped by what the host
       actually has; read this row against the top-level "cores" field. *)
    ( "cluster-po2c-3x-par",
      "cluster",
      scale 20_000,
      fun () ->
        cluster_scenario ~rtt_cycles:4_000
          ~engine:(Par_sim.Par { domains = Par_sim.default_domains () })
          ~instances:3 ~rate_rps:3.0e6 ~n_requests:(scale 20_000) ()
    );
    (* Duplicate-and-cancel under load: a 4x straggler plus percentile
       hedging exercises the Hedge_fire/Cancel/zombie-leg machinery, the
       event-rate cost of tail tolerance. *)
    ( "cluster-hedged-3x",
      "cluster",
      scale 20_000,
      fun () ->
        cluster_scenario
          ~hedge:(Repro_cluster.Hedge.Percentile { pct = 99.0 })
          ~stragglers:[ (0, 4.0) ] ~instances:3 ~rate_rps:2.0e6
          ~n_requests:(scale 20_000) ()
    );
    (* Consensus in the loop: every write funds a leader log mini, two
       follower AppendEntries minis and the quorum bookkeeping, plus
       heartbeats/leases on the side — the event-rate cost of replication. *)
    ( "raft-3node",
      "raft",
      scale 10_000,
      fun () -> raft_scenario ~nodes:3 ~rate_rps:20.0e3 ~n_requests:(scale 10_000) ()
    );
    ( "verify-probes",
      "static",
      0,
      verify_scenario ~samples:(scale 10_000) ~trials:(if quick then 2 else 8) );
    ("policy-backlog", "micro", 0, policy_backlog_scenario ~iters:(scale 500_000));
    ("heap-churn", "micro", 0, heap_scenario ~rounds:(scale 200));
    ("ring-churn", "micro", 0, ring_scenario ~rounds:(scale 200));
    ("sim-spin", "micro", 0, sim_scenario ~n:(scale 500_000));
  ]

let run_suite ~quick =
  let repeats = if quick then 2 else 3 in
  List.map
    (fun (name, kind, requests, f) ->
      let events, p99_slowdown, engine, domains_used, wall_s = time_scenario ~repeats f in
      Printf.printf "  %-20s %9d events  %8.4f s  %12.0f events/s  %s\n%!" name events
        wall_s
        (float_of_int events /. wall_s)
        (if engine = "seq" && domains_used = 1 then ""
         else Printf.sprintf "[%s, %d domains]" engine domains_used);
      { name; kind; requests; events; wall_s; p99_slowdown; engine; domains_used })
    (scenarios ~quick)

(* Hand-rolled emitter: the only float formats used are %.17g (round-trips
   exactly) and JSON has no NaN, so microbench rows just omit the
   p99_slowdown key. Schema v2 adds the top-level "cores" (what the host
   offered) and per-scenario "engine"/"domains_used" (what the run took);
   the three together are what make parallel events/s rows interpretable. *)
let schema = "concord-bench-core/v2"

let json_of_rows ~quick rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema\": \"%s\",\n" schema);
  Buffer.add_string buf (Printf.sprintf "  \"mode\": \"%s\",\n" (if quick then "quick" else "full"));
  Buffer.add_string buf (Printf.sprintf "  \"cores\": %d,\n" (cores ()));
  Buffer.add_string buf "  \"scenarios\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": \"%s\", \"kind\": \"%s\", \"requests\": %d, \"events\": %d, \
            \"wall_s\": %.17g, \"events_per_sec\": %.17g, \"engine\": \"%s\", \
            \"domains_used\": %d" r.name r.kind r.requests r.events r.wall_s
           (float_of_int r.events /. r.wall_s)
           r.engine r.domains_used);
      if not (Float.is_nan r.p99_slowdown) then
        Buffer.add_string buf (Printf.sprintf ", \"p99_slowdown\": %.17g" r.p99_slowdown);
      Buffer.add_string buf "}")
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* Schema self-check beyond JSON well-formedness: every key that makes a
   v2 file interpretable must actually be present. *)
let validate_schema text =
  let contains sub =
    let tl = String.length text and sl = String.length sub in
    let rec at i = i + sl <= tl && (String.sub text i sl = sub || at (i + 1)) in
    at 0
  in
  let required =
    [ Printf.sprintf "\"schema\": \"%s\"" schema; "\"cores\": "; "\"engine\": ";
      "\"domains_used\": " ]
  in
  match List.find_opt (fun k -> not (contains k)) required with
  | None -> Ok ()
  | Some k -> Error (Printf.sprintf "missing required v2 key %s" k)

let run ~path ~quick =
  Printf.printf "[bench-core] %s suite -> %s\n%!" (if quick then "quick" else "full") path;
  let rows, total = wall (fun () -> run_suite ~quick) in
  let text = json_of_rows ~quick rows in
  Repro_runtime.Trace_export.write_file ~path text;
  (* Self-check: the file we just wrote must parse as JSON. *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let written = really_input_string ic len in
  close_in ic;
  (match
     match Repro_runtime.Trace_export.validate_json written with
     | Ok () -> validate_schema written
     | Error _ as e -> e
   with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "[bench-core] self-validation FAILED: %s\n%!" msg;
    exit 1);
  Printf.printf "[bench-core] wrote %d scenarios in %.1fs (JSON self-validated)\n%!"
    (List.length rows) total
