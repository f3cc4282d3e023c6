(* Guard rails for the hot-path work: (1) a golden matrix pinning headline
   metrics of twelve canonical runs to 17-significant-digit strings, so any
   engine/runtime "optimisation" that perturbs simulation behaviour —
   event order, RNG draws, float arithmetic — fails loudly rather than
   silently shifting results; (2) allocation regression tests holding the
   Sim.run/Heap event loop at zero words per event, and the heap's churn
   free of minor collections forced by the remembered set. *)

module Sim = Repro_engine.Sim
module Heap = Repro_engine.Heap

let systems = [ "shinjuku"; "coop-sq"; "concord"; "concord-uipi" ]

let config_of name =
  match Repro_runtime.Systems.by_name name with
  | Some make -> make ()
  | None -> Alcotest.failf "unknown system %s" name

(* Concord with the central-queue policy [spec] built for [mix]. *)
let concord_with_policy spec mix =
  match Repro_runtime.Policy.of_spec spec ~mix with
  | Ok policy -> { (config_of "concord") with Repro_runtime.Config.policy }
  | Error e -> Alcotest.fail e

(* %.17g round-trips IEEE doubles exactly: string equality = bit identity. *)
let fingerprint (s : Repro_runtime.Metrics.summary) =
  Printf.sprintf "p50=%.17g p99=%.17g goodput=%.17g" s.Repro_runtime.Metrics.p50_slowdown
    s.Repro_runtime.Metrics.p99_slowdown s.Repro_runtime.Metrics.goodput_rps

(* Captured after the arrival-gap rounding fix (Arrival.next_gap_ns now
   rounds to nearest instead of truncating, an intended behaviour change
   that shifts every Poisson gap by up to half a nanosecond); everything
   after that fix must reproduce these exactly. Regenerate (only for a
   change that *intends* to alter behaviour) by printing [fingerprint]
   from the runs below. *)
let golden_standalone =
  [
    ("shinjuku", "p50=3.8999999999999999 p99=12.882 goodput=1234854.1705827552");
    ("coop-sq", "p50=2.5339999999999998 p99=8.4960000000000004 goodput=1277862.7319853301");
    ("concord", "p50=2.504 p99=11.438000000000001 goodput=1276836.6230792475");
    ("concord-uipi", "p50=3.8319999999999999 p99=13.1 goodput=1270668.6611458466");
  ]

(* Regenerated for the Po2c tie-break fix: ties now keep the first
   (uniform) sample instead of [min a b], so every Po2c routing sequence —
   and only Po2c — re-rolls. Hedging/stealing default Off and leave these
   runs bit-identical. *)
let golden_cluster =
  [
    ("shinjuku", "p50=2.0800000000000001 p99=4.1159999999999997 goodput=2693906.3837599349");
    ("coop-sq", "p50=1.988 p99=3.4100000000000001 goodput=2826828.4868929386");
    ("concord", "p50=2.0699999999999998 p99=4.0179999999999998 goodput=2824622.3375319079");
    ("concord-uipi", "p50=2.1379999999999999 p99=4.1079999999999997 goodput=2788590.7391934362");
  ]

let poisson rate_rps = Repro_workload.Arrival.Poisson { rate_rps }

let rack_hedged name =
  let module Cluster = Repro_cluster.Cluster in
  let config =
    match Repro_runtime.Systems.by_name name with
    | Some make -> make ~n_workers:4 ()
    | None -> Alcotest.failf "unknown system %s" name
  in
  let cluster =
    Cluster.homogeneous ~policy:Repro_cluster.Lb_policy.Po2c ~rtt_cycles:5000
      ~stragglers:[ (3, 8.0) ]
      ~hedge:(Repro_cluster.Hedge.Percentile { pct = 99.0 })
      ~instances:4 config
  in
  let events = ref 0 in
  let s, _ =
    Cluster.run_detailed ~cluster ~mix:Repro_workload.Presets.ycsb_a ~arrival:(poisson 160e3)
      ~n_requests:3_000 ~events_out:events ()
  in
  Printf.sprintf "%s events=%d preemptions=%d hedges=%d wins=%d cancels=%d wasted_ns=%d"
    (fingerprint s.Cluster.cluster) !events s.Cluster.cluster.Repro_runtime.Metrics.preemptions
    s.Cluster.hedges s.Cluster.hedge_wins s.Cluster.hedge_cancels s.Cluster.hedge_wasted_ns

let gittins_ycsb () =
  let mix = Repro_workload.Presets.ycsb_a in
  let config = concord_with_policy "gittins" mix in
  let events = ref 0 in
  let s, _ =
    Repro_runtime.Server.run_detailed ~config ~mix ~arrival:(poisson 250e3) ~n_requests:3_000
      ~events_out:events ()
  in
  Printf.sprintf "%s events=%d preemptions=%d" (fingerprint s) !events
    s.Repro_runtime.Metrics.preemptions

let raft_3node () =
  let module Raft = Repro_raft.Raft in
  let raft = Raft.homogeneous ~nodes:3 (config_of "concord") in
  let events = ref 0 in
  let s, _ =
    Raft.run_detailed ~raft ~mix:Repro_workload.Presets.usr ~arrival:(poisson 20e3)
      ~n_requests:2_000 ~events_out:events ()
  in
  let preemptions =
    Array.fold_left
      (fun acc (m : Repro_runtime.Metrics.summary) -> acc + m.Repro_runtime.Metrics.preemptions)
      0 s.Raft.per_node
  in
  Printf.sprintf "%s events=%d committed=%d writes=%d member_preemptions=%d"
    (fingerprint s.Raft.client) !events s.Raft.committed s.Raft.writes preemptions

(* Paths the USR rows above never reach, each pinned with its event count:
   a straggler's scaled op costs, hedge legs revoked while a JBSQ push
   (concord) or an SQ hand-off (shinjuku) is in flight, the Gittins queue
   under deep preemption, and a Raft group's consensus mini-requests. The
   racks have 4 workers per server, so a revoked leg whose worker slot was
   never credited back would visibly starve its server. Captured before
   the dispatcher precomputed its op costs and replaced the per-worker SQ
   flag and JBSQ count with one array of views. *)
let test_golden_paths () =
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ( "rack-hedged/concord",
        (fun () -> rack_hedged "concord"),
        "p50=2.6099999999999999 p99=17.499310000000001 goodput=153789.06349010608 \
         events=283638 preemptions=36940 hedges=122 wins=101 cancels=122 wasted_ns=4282342" );
      ( "rack-hedged/shinjuku",
        (fun () -> rack_hedged "shinjuku"),
        "p50=2.5899999999999999 p99=25.343 goodput=147650.67272654193 events=262850 \
         preemptions=34022 hedges=123 wins=119 cancels=123 wasted_ns=3808356" );
      ( "gittins/ycsb-a",
        gittins_ycsb,
        "p50=2.14222 p99=13.557 goodput=257867.29232275588 events=187038 preemptions=24017" );
      ( "raft-3node",
        raft_3node,
        "p50=1.71 p99=1530.386 goodput=20596.883730396814 events=48448 committed=965 \
         writes=965 member_preemptions=1485" );
    ]

(* A YCSB-A Raft group of concord members: the client fingerprint, the
   event count, the protocol's counters, the summed log lengths and WAL
   records, and the [check_invariants] verdict. *)
let raft_row ?(nodes = 3) ?read_leases ?hedge ?(stragglers = []) ?kill_leader_at_ns ~rate ~n () =
  let module Raft = Repro_raft.Raft in
  let raft =
    Raft.homogeneous ?read_leases ?hedge ~stragglers ?kill_leader_at_ns ~nodes
      (config_of "concord")
  in
  let events = ref 0 in
  let s, _ =
    Raft.run_detailed ~raft ~mix:Repro_workload.Presets.ycsb_a ~arrival:(poisson rate)
      ~n_requests:n ~events_out:events ()
  in
  let sum = Array.fold_left ( + ) 0 in
  Printf.sprintf
    "%s events=%d term=%d elections=%d changes=%d committed=%d resubmissions=%d parked=%d \
     hedges=%d wins=%d cancels=%d wasted_ns=%d log=%d wal=%d check=%s"
    (fingerprint s.Raft.client) !events s.Raft.final_term s.Raft.elections s.Raft.leader_changes
    s.Raft.committed s.Raft.resubmissions s.Raft.parked s.Raft.hedges s.Raft.hedge_wins
    s.Raft.hedge_cancels s.Raft.hedge_wasted_ns (sum s.Raft.log_lengths)
    (sum s.Raft.wal_records)
    (match Raft.check_invariants s with Ok () -> "ok" | Error e -> e)

(* Protocol paths the steady 3-member row never reaches. The failovers
   elect under refused votes and replay legs stranded at the dead leader;
   the 5-member one (the CLI's [raft --nodes 5 -n 8000 --kill-leader-at
   18000 --straggler 2:16] at its default 40% of capacity) also nacks and
   backfills a lagging follower, truncates conflicting suffixes and
   replays consensus legs from a live deposed leader. A 16x straggler
   lags because its 29 us WAL encodes are preempted and finish out of
   order; a 4x one does not. In the hedged row, at 84% of capacity,
   queueing decides each race, so it pins duplicate and primary wins;
   the last two pin consensus reads and a one-member group's lease
   renewal without messages. *)
let test_golden_raft_paths () =
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ( "raft/failover-3",
        (fun () -> raft_row ~kill_leader_at_ns:60_000_000 ~rate:55e3 ~n:4_000 ()),
        "p50=1.47 p99=1337.453 goodput=56615.452747485018 events=331129 term=3 elections=2 \
         changes=1 committed=1947 resubmissions=18 parked=129 hedges=0 wins=0 cancels=0 \
         wasted_ns=0 log=5536 wal=5536 check=ok" );
      ( "raft/failover-5-straggler",
        (fun () ->
          raft_row ~nodes:5 ~stragglers:[ (2, 16.0) ] ~kill_leader_at_ns:18_000_000
            ~rate:214_157.32915216644 ~n:8_000 ()),
        "p50=8.7492900000000002 p99=19956.883000000002 goodput=40478.248481901239 \
         events=1169563 term=6 elections=3 changes=2 committed=4043 resubmissions=547 \
         parked=621 hedges=0 wins=0 cancels=0 wasted_ns=0 log=18038 wal=18503 check=ok" );
      ( "raft/hedged-3",
        (fun () ->
          raft_row ~stragglers:[ (1, 2.0) ]
            ~hedge:(Repro_cluster.Hedge.Fixed { delay_ns = 150_000 })
            ~rate:450e3 ~n:3_000 ()),
        "p50=6.1109999999999998 p99=787.76700000000005 goodput=408783.51627405029 \
         events=325553 term=1 elections=1 changes=0 committed=1446 resubmissions=0 parked=0 \
         hedges=331 wins=143 cancels=331 wasted_ns=28470801 log=4338 wal=4338 check=ok" );
      ( "raft/leases-off-3",
        (fun () -> raft_row ~read_leases:false ~rate:40e3 ~n:2_000 ()),
        "p50=8.7523199999999992 p99=765.83100000000002 goodput=41502.802649677265 \
         events=192098 term=1 elections=1 changes=0 committed=2000 resubmissions=0 parked=0 \
         hedges=0 wins=0 cancels=0 wasted_ns=0 log=6000 wal=6000 check=ok" );
      ( "raft/one-member",
        (fun () -> raft_row ~nodes:1 ~rate:20e3 ~n:2_000 ()),
        "p50=1.3600000000000001 p99=143.58500000000001 goodput=20744.596879583907 \
         events=152425 term=1 elections=1 changes=0 committed=965 resubmissions=0 parked=0 \
         hedges=0 wins=0 cancels=0 wasted_ns=0 log=965 wal=965 check=ok" );
    ]

(* A 3-server bimodal rack (rtt 4000 cycles) under the windowed engine on
   two domains: fingerprint, event count and the balancer's counters. *)
let par_rack ?(steal = false) ?(stragglers = []) ?drain_cap_ns ~policy ~rate ~n ~seed () =
  let module Cluster = Repro_cluster.Cluster in
  let cluster =
    Cluster.homogeneous ~policy ~rtt_cycles:4_000 ~steal ~stragglers ~instances:3
      (Repro_runtime.Systems.concord ~n_workers:4 ())
  in
  let mix =
    Repro_workload.Mix.of_dist ~name:"bimodal"
      (Repro_workload.Service_dist.Bimodal
         { p_short = 0.5; short_ns = 1_000.; long_ns = 100_000. })
  in
  let events = ref 0 in
  let s, _ =
    Cluster.run_detailed ~cluster ~mix ~arrival:(poisson rate) ~n_requests:n ?drain_cap_ns ~seed
      ~events_out:events ~engine:(Repro_engine.Par_sim.Par { domains = 2 }) ()
  in
  Printf.sprintf "%s events=%d routed=%s lb_held=%d lb_censored=%d steals=%d"
    (fingerprint s.Cluster.cluster) !events
    (String.concat "," (Array.to_list (Array.map string_of_int s.Cluster.routed)))
    s.Cluster.lb_held s.Cluster.lb_censored s.Cluster.steals

(* The windowed engine's own rows: the po2c rack at seed 4, where par and
   seq break same-nanosecond ties differently (so no seq row can pin it);
   a saturated jbsq:1 rack whose 1 us drain cap censors requests parked at
   the balancer, on the wire (lb_censored exceeds the 1719 still parked)
   and resident at the instances; and random routing with stealing off a
   4x straggler. Captured before the two engines shared one balancer. *)
let test_golden_par () =
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ( "par:2/po2c seed 4",
        (fun () -> par_rack ~policy:Repro_cluster.Lb_policy.Po2c ~rate:1.5e6 ~n:4_000 ~seed:4 ()),
        "p50=154.59989999999999 p99=1102.7239999999999 goodput=210906.56429105808 \
         events=288695 routed=1331,1332,1337 lb_held=0 lb_censored=0 steals=0" );
      ( "par:2/jbsq:1 censoring",
        (fun () ->
          par_rack ~policy:(Repro_cluster.Lb_policy.Jbsq 1) ~rate:4e5 ~drain_cap_ns:1_000
            ~n:2_000 ~seed:3 ()),
        "p50=43.889690000000002 p99=4352.357 goodput=61700.952884203129 events=21792 \
         routed=94,93,94 lb_held=1997 lb_censored=1720 steals=0" );
      ( "par:2/stealing straggler",
        (fun () ->
          par_rack ~policy:Repro_cluster.Lb_policy.Random ~steal:true ~stragglers:[ (0, 4.0) ]
            ~rate:1.5e5 ~n:3_000 ~seed:1 ()),
        "p50=2.3730000000000002 p99=774.22299999999996 goodput=53248.839914857075 \
         events=388318 routed=1018,1005,977 lb_held=0 lb_censored=0 steals=112" );
    ]

(* A standalone run's fingerprint, event count and preemptions. *)
let standalone_row ?(n = 3_000) config mix rate =
  let events = ref 0 in
  let s, _ =
    Repro_runtime.Server.run_detailed ~config ~mix ~arrival:(poisson rate) ~n_requests:n
      ~events_out:events ()
  in
  Printf.sprintf "%s events=%d preemptions=%d" (fingerprint s) !events
    s.Repro_runtime.Metrics.preemptions

(* The size-based policies that no other row runs: exact SRPT, SRPT on
   log-normal estimates (sigma 1) and locality-aware FCFS, each on USR at
   1 MRps over 4,000 requests with its event count. *)
let test_golden_policies () =
  let mix = Repro_workload.Presets.usr in
  List.iter
    (fun (spec, expected) ->
      Alcotest.(check string) spec expected
        (standalone_row ~n:4_000 (concord_with_policy spec mix) mix 1e6))
    [
      ( "srpt",
        "p50=1.742 p99=2.6419999999999999 goodput=915777.47217944346 events=43379 \
         preemptions=2768" );
      ( "srpt-noisy:1",
        "p50=1.742 p99=2.8500000000000001 goodput=915824.99805387179 events=43391 \
         preemptions=2770" );
      ( "locality-fcfs",
        "p50=1.75 p99=3.04 goodput=915871.36383168015 events=43382 preemptions=2769" );
    ]

(* The quantum-timer paths, each pinned with its event count: 10 us
   requests on an ideal worker at a 2 us quantum, whose last segment
   completes exactly at its quantum deadline (the tie); a worker that
   self-preempts at rdtsc probes, drawing its lateness when the quantum
   fires; and Shinjuku's whole-call locks, where the quantum fires and
   signals but never stops the request. Captured before workers stopped
   arming quanta that cannot fire. *)
let test_golden_quantum_paths () =
  let module Systems = Repro_runtime.Systems in
  let module Presets = Repro_workload.Presets in
  let fixed ns =
    Repro_workload.Mix.of_dist ~name:"fixed"
      (Repro_workload.Service_dist.Fixed (float_of_int ns))
  in
  let rdtsc =
    { (config_of "concord") with Repro_runtime.Config.mechanism = Repro_hw.Mechanism.Rdtsc_probe }
  in
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ( "quantum-tie/ideal-sq",
        (fun () ->
          standalone_row ~n:2_000
            (Systems.ideal_single_queue ~sigma_ns:0.0 ~n_workers:2 ~quantum_ns:2_000 ())
            (fixed 10_000) 150e3),
        "p50=1.7613000000000001 p99=11.221500000000001 goodput=155783.20482228644 \
         events=67999 preemptions=8000" );
      ( "rdtsc-probe/tpcc",
        (fun () -> standalone_row rdtsc Presets.tpcc 450e3),
        "p50=1.3589800000000001 p99=3.044561403508772 goodput=462561.71130015986 \
         events=89516 preemptions=11919" );
      ( "shinjuku-whole-call/ycsb-a",
        (fun () -> standalone_row (config_of "shinjuku-whole-call") Presets.ycsb_a 200e3),
        "p50=1.3400000000000001 p99=41.372 goodput=207820.86887904041 events=20979 \
         preemptions=0" );
    ]

(* The single-logical-queue server on a handler mix whose long requests
   hold a lock through most of their middle, so a quantum's stop often
   falls inside the window and is deferred to its end: Concord-SLS, which
   preempts, and the two run-to-completion variants, with and without
   stealing. A 20 us drain cap censors what is still running after the
   last arrival. Captured before the SLS server shared the standalone
   server's preemption-point rule. *)
let sls_row config =
  let mix =
    Concord.Work.(
      handler_mix ~name:"locked"
        [
          ("short", 0.9, seq [ spin 800.0; locked (spin 400.0); spin 800.0 ]);
          ("long", 0.1, seq [ spin 4_000.0; locked (spin 12_000.0); spin 24_000.0 ]);
        ])
  in
  let s =
    Repro_runtime.Sls_server.run ~config:(config ~n_workers:4 ()) ~mix
      ~arrival:(poisson 450e3) ~n_requests:4_000 ~drain_cap_ns:20_000 ()
  in
  let open Repro_runtime.Metrics in
  Printf.sprintf
    "completed=%d censored=%d p50=%.17g p99=%.17g p999=%.17g mean=%.17g preemptions=%d \
     goodput=%.17g"
    s.completed s.censored s.p50_slowdown s.p99_slowdown s.p999_slowdown s.mean_slowdown
    s.preemptions s.goodput_rps

let test_golden_sls () =
  let module Sls = Repro_runtime.Sls_server in
  List.iter
    (fun (name, config, expected) -> Alcotest.(check string) name expected (sls_row config))
    [
      ( "concord-sls/locked",
        (fun ~n_workers () -> Sls.concord_sls ~n_workers ()),
        "completed=3998 censored=2 p50=1.26735 p99=15.481999999999999 p999=20.650500000000001 \
         mean=2.6619619791666742 preemptions=2078 goodput=468545.16206284362" );
      ( "shenango/locked",
        (fun ~n_workers () -> Sls.shenango_like ~n_workers ()),
        "completed=3999 censored=1 p50=1.1499999999999999 p99=28.3935 p999=49.343499999999999 \
         mean=4.1194378263887907 preemptions=0 goodput=468406.08139203157" );
      ( "d-fcfs/locked",
        (fun ~n_workers () -> Sls.partitioned_fcfs ~n_workers ()),
        "completed=3978 censored=22 p50=6.0110000000000001 p99=65.616 p999=90.915000000000006 \
         mean=13.222602819444505 preemptions=0 goodput=466078.58439246373" );
    ]

(* The LevelDB-backed paths, captured before the store's bulk load
   stopped going through the memtable and before kvstore mixes drew their
   arrivals on a second domain: a zippydb and a get/scan run with their
   event counts, and the metered outcome (service ns, lock windows, what
   was found) of one fixed operation sequence against three stores: a
   populated one, an empty one bulk-loaded with duplicate keys, and one
   that already held tables, a memtable and a tombstone when the same
   duplicate-laden load landed on it. A skip-list level drawn more or
   fewer times shifts every later write's metered cost. *)
let kv_row mix_of rate =
  let module Kv = Repro_kvstore.Kv_workload in
  standalone_row (config_of "concord") (mix_of (Kv.populate ~seed:42 ()) ~seed:42) rate

let store_ops ?(keys = [ "user00000005"; "user00000007"; "user00000009"; "user00015001" ]) store
    =
  let module Store = Repro_kvstore.Store in
  let show tag (o : Store.outcome) =
    Printf.sprintf "%s:%d[%s]%s" tag o.Store.service_ns
      (String.concat ","
         (Array.to_list (Array.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) o.lock_windows)))
      (match o.found with
       | Some v -> Printf.sprintf "=%s" (if String.length v > 8 then String.sub v 0 8 else v)
       | None -> Printf.sprintf "#%d" o.scanned)
  in
  let k = Array.of_list keys in
  let value = String.make 100 'v' in
  (* [List.map] applies in list order, so the operations run top to bottom. *)
  let ops =
    List.map
      (fun (tag, op) -> show tag (op ()))
      [
        ("get", fun () -> Store.get store ~key:k.(0));
        ("get", fun () -> Store.get store ~key:"user99999999");
        ("put", fun () -> Store.put store ~key:k.(1) ~value);
        ("get", fun () -> Store.get store ~key:k.(1));
        ("del", fun () -> Store.delete store ~key:k.(2));
        ("get", fun () -> Store.get store ~key:k.(2));
        ("put", fun () -> Store.put store ~key:k.(3) ~value);
        ("put", fun () -> Store.put store ~key:"user00000000" ~value);
        ("scan", fun () -> Store.scan store);
      ]
  in
  Printf.sprintf "%s live=%d entries=%d" (String.concat " " ops) (Store.population store)
    (Store.total_entries store)

let dup_pairs =
  [ ("k3", "a"); ("k1", "b"); ("k3", "c"); ("k2", "d"); ("k1", "e"); ("k5", "f"); ("k2", "g") ]

let dup_keys = [ "k1"; "k3"; "k2"; "k9" ]

let test_golden_leveldb () =
  let module Kv = Repro_kvstore.Kv_workload in
  let module Store = Repro_kvstore.Store in
  let loaded_into store =
    Store.load store dup_pairs;
    store_ops ~keys:dup_keys store
  in
  let non_empty () =
    let store = Store.create ~flush_threshold:4 ~seed:9 () in
    List.iter
      (fun (key, value) -> ignore (Store.put store ~key ~value))
      [ ("k1", "x"); ("k4", "y"); ("k6", "z"); ("k2", "w"); ("k7", "u"); ("k5", "t") ];
    ignore (Store.delete store ~key:"k6" );
    ignore (Store.delete store ~key:"k5" );
    store
  in
  List.iter
    (fun (name, run, expected) -> Alcotest.(check string) name expected (run ()))
    [
      ( "zippydb/concord",
        (fun () -> kv_row (fun s ~seed -> Kv.zippydb_mix s ~seed) 300e3),
        "p50=1.379746835443038 p99=1.857487922705314 goodput=305950.67259289342 events=83290 \
         preemptions=9327" );
      ( "get-scan/concord",
        (fun () -> kv_row (fun s ~seed -> Kv.get_scan_mix s ~seed) 20e3),
        "p50=1.5933333333333333 p99=1.921875 goodput=20845.195632894454 events=838098 \
         preemptions=117157" );
      ( "ops after populate",
        (fun () -> store_ops (Kv.populate ~seed:42 ())),
        "get:564[25-90]=&-4;BIPW get:558[25-90]#0 put:1931[25-1931]#0 get:126[25-90]=vvvvvvvv \
         del:1809[25-1809]#0 get:144[25-90]#0 put:2033[25-2033]#0 put:2027[25-2027]#0 \
         scan:494861[25-90]#15000 live=15000 entries=15004" );
      ( "ops after load into empty",
        (fun () -> loaded_into (Store.create ~seed:5 ())),
        "get:198[25-90]=e get:162[25-90]#0 put:1952[25-1952]#0 get:174[25-90]=vvvvvvvv \
         del:1842[25-1842]#0 get:168[25-90]#0 put:1958[25-1958]#0 put:1997[25-1997]#0 \
         scan:293[25-90]#5 live=5 entries=8" );
      ( "ops after load into non-empty",
        (fun () -> loaded_into (non_empty ())),
        "get:198[25-90]=e get:162[25-90]#0 put:1934[25-1934]#0 get:150[25-90]=vvvvvvvv \
         del:1854[25-1854]#0 get:168[25-90]#0 put:2036[25-2036]#0 put:1991[25-1991]#0 \
         scan:392[25-90]#7 live=7 entries=10" );
    ]

let test_golden_standalone () =
  List.iter
    (fun name ->
      let s =
        Repro_runtime.Server.run ~config:(config_of name) ~mix:Repro_workload.Presets.usr
          ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 2.0e6 })
          ~n_requests:2_000 ()
      in
      Alcotest.(check string) ("standalone/" ^ name) (List.assoc name golden_standalone)
        (fingerprint s))
    systems

let test_golden_cluster () =
  List.iter
    (fun name ->
      let cluster =
        Repro_cluster.Cluster.homogeneous ~policy:Repro_cluster.Lb_policy.Po2c ~instances:3
          (config_of name)
      in
      let s =
        Repro_cluster.Cluster.run ~cluster ~mix:Repro_workload.Presets.usr
          ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 6.0e6 })
          ~n_requests:3_000 ()
      in
      Alcotest.(check string) ("cluster/" ^ name) (List.assoc name golden_cluster)
        (fingerprint s.Repro_cluster.Cluster.cluster))
    systems

(* [Gc.allocated_bytes] itself allocates a boxed float per call; measure
   that overhead first and subtract it. *)
let probe_overhead () =
  let a0 = Gc.allocated_bytes () in
  let a1 = Gc.allocated_bytes () in
  a1 -. a0

(* Budget for a measured region that must allocate nothing per iteration:
   generous enough for measurement slop, far below one word per event
   (100k events * 8 bytes = 800k). *)
let slack_bytes = 512.0

let test_sim_run_zero_alloc () =
  let events = 100_000 in
  let sim = Sim.create ~capacity:16 () in
  let left = ref events in
  (* Every event also cancels the timer the previous one armed, the way a
     completion cancels its segment's quantum; none of them ever fires. *)
  let timer = ref Sim.no_timer in
  let handler s (_ : int) =
    decr left;
    Sim.cancel s !timer;
    timer := Sim.no_timer;
    if !left > 0 then begin
      Sim.schedule_after s ~delay:1 0;
      timer := Sim.arm_after s ~delay:2 1
    end
  in
  (* Warm run: pay one-time costs (closure specialisation, lazy init). *)
  Sim.schedule_at sim ~time:(Sim.now sim) 0;
  Sim.run sim ~handler ();
  left := events;
  Sim.schedule_after sim ~delay:1 0;
  let overhead = probe_overhead () in
  let a0 = Gc.allocated_bytes () in
  Sim.run sim ~handler ();
  let a1 = Gc.allocated_bytes () in
  let net = a1 -. a0 -. overhead in
  if net > slack_bytes then
    Alcotest.failf "Sim.run allocated %.0f bytes over %d events (%.4f B/event); expected 0"
      net events
      (net /. float_of_int events)

let test_heap_churn_zero_alloc () =
  let iters = 100_000 in
  let h = Heap.create ~capacity:1024 () in
  for i = 0 to 511 do
    Heap.add h ~key:(i * 7919 mod 1000) i
  done;
  let churn () =
    for i = 1 to iters do
      let v = Heap.pop_unsafe h in
      Heap.add h ~key:(i * 7919 mod 1000) v
    done
  in
  churn ();
  (* pre-sized, warmed *)
  let overhead = probe_overhead () in
  let a0 = Gc.allocated_bytes () in
  churn ();
  let a1 = Gc.allocated_bytes () in
  let net = a1 -. a0 -. overhead in
  if net > slack_bytes then
    Alcotest.failf "Heap churn allocated %.0f bytes over %d add+pop pairs; expected 0" net
      iters

(* Cancel churn: each step removes one of 512 pending entries through its
   handle and adds its replacement, the arm-and-cancel pattern of a worker's
   quantum. *)
let test_heap_remove_churn_zero_alloc () =
  let iters = 100_000 in
  let h = Heap.create ~capacity:1024 () in
  let handles = Array.init 512 (fun i -> Heap.add_removable h ~key:(i * 7919 mod 1000) i) in
  let churn () =
    for i = 1 to iters do
      let j = i land 511 in
      Heap.remove h handles.(j);
      handles.(j) <- Heap.add_removable h ~key:(i * 7919 mod 1000) j
    done
  in
  churn ();
  (* pre-sized, warmed *)
  let overhead = probe_overhead () in
  let a0 = Gc.allocated_bytes () in
  churn ();
  let a1 = Gc.allocated_bytes () in
  let net = a1 -. a0 -. overhead in
  if net > slack_bytes then
    Alcotest.failf "Heap churn allocated %.0f bytes over %d add+remove pairs; expected 0" net
      iters

(* Write-barrier pin. The sifts move only [int] arrays and each add stores
   its payload once, so a churn of freshly boxed payloads fills the
   remembered set with one entry per add, not one per sift level. Minor
   collections must then come only from the minor heap filling up: at most
   ceil(allocated words / minor-heap words), plus slack for the collections
   at either edge of the measured region. A heap that moves payloads
   through a pointer array at every level records about four entries per
   pending payload in each minor cycle; the remembered set holds an eighth
   of the minor heap's words (32k entries at the default 256k), so at 16k
   pending such a heap forces a collection every ~10k adds (17-19 here
   against a budget of 4). The slot heap records at most one entry per
   slot per cycle. *)
let test_heap_churn_no_forced_minor_gc () =
  let pending = 16_384 and iters = 200_000 in
  let h = Heap.create ~capacity:pending () in
  let st = ref 12345 in
  let gap () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st land 4095
  in
  for i = 1 to pending do
    Heap.add h ~key:(gap ()) (ref i)
  done;
  Gc.minor ();
  (* [Gc.minor_words], unlike [quick_stat]'s field, counts the words in the
     current minor heap too. *)
  let w0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.minor_collections in
  for i = 1 to iters do
    let now = Heap.next_key h in
    ignore (Sys.opaque_identity (Heap.pop_unsafe h));
    Heap.add h ~key:(now + gap ()) (ref i)
  done;
  let c1 = (Gc.quick_stat ()).Gc.minor_collections and w1 = Gc.minor_words () in
  let words = w1 -. w0 in
  let minor_heap_words = float_of_int (Gc.get ()).Gc.minor_heap_size in
  let budget = int_of_float (Float.ceil (words /. minor_heap_words)) + 2 in
  let got = c1 - c0 in
  if got > budget then
    Alcotest.failf
      "Heap churn ran %d minor collections for %.0f allocated words (minor heap %.0f words, \
       budget %d): the remembered set is forcing collections"
      got words minor_heap_words budget

(* Discrete sampling must cost O(log n) time and O(1) allocation in the
   entry count: the per-sample bytes at 4096 entries may not exceed the
   4-entry figure plus slack. The pre-fix implementation rebuilt the
   cumulative-weight array per draw (O(n) bytes); a float-argument
   recursion re-boxes per level (O(log n) bytes); both fail this. A small
   constant per draw (Rng boxing) is expected and cancels out. *)
let test_discrete_sample_alloc_size_independent () =
  let module Service_dist = Repro_workload.Service_dist in
  let module Rng = Repro_engine.Rng in
  let draws = 100_000 in
  let per_sample_bytes n =
    let d =
      Service_dist.discrete (Array.init n (fun i -> (1.0 +. float_of_int (i mod 7), 1.0)))
    in
    let rng = Rng.create ~seed:21 in
    let burn = ref 0.0 in
    for _ = 1 to draws do
      burn := !burn +. Service_dist.sample d rng
    done;
    (* warmed *)
    let overhead = probe_overhead () in
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to draws do
      burn := !burn +. Service_dist.sample d rng
    done;
    let a1 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity !burn);
    (a1 -. a0 -. overhead) /. float_of_int draws
  in
  let small = per_sample_bytes 4 in
  let big = per_sample_bytes 4096 in
  if big > small +. 8.0 then
    Alcotest.failf
      "Discrete sample allocation grew with entry count: %.1f B/sample at n=4 vs %.1f at \
       n=4096"
      small big

(* Branching-IR overhead pin: volrend (Branch) and fmm (While) exercise
   the new control-flow constructors on the deterministic Table-1 path;
   their overhead and p99 lateness must stay bit-identical. *)
let test_golden_branching_overhead () =
  let module Ir = Repro_instrument.Ir in
  let module Pass = Repro_instrument.Pass in
  let module Analysis = Repro_instrument.Analysis in
  let module Timeliness = Repro_instrument.Timeliness in
  let clock = Repro_hw.Cycles.default in
  let pin name expected =
    let p = Option.get (Repro_instrument.Programs.by_name name) in
    let baseline = Ir.dynamic_size p.Ir.entry.Ir.body in
    let a = Analysis.analyze (Pass.run ~unroll:true p) in
    let t = Timeliness.of_gaps a ~clock in
    let got =
      Printf.sprintf "overhead=%.17g p99=%.17g"
        (Analysis.concord_overhead ~baseline_instrs:baseline a)
        t.Timeliness.p99_lateness_ns
    in
    Alcotest.(check string) ("branching/" ^ name) expected got
  in
  pin "volrend" "overhead=0.0062842609216038304 p99=990.5799999999997";
  pin "fmm" "overhead=-0.0014676945668135096 p99=204.24999999999994"

let suite =
  [
    Alcotest.test_case "standalone metrics bit-identical to seed" `Quick
      test_golden_standalone;
    Alcotest.test_case "branching-IR overhead bit-identical" `Quick
      test_golden_branching_overhead;
    Alcotest.test_case "cluster metrics bit-identical to seed" `Quick test_golden_cluster;
    Alcotest.test_case "hedged, Gittins and Raft runs bit-identical" `Quick test_golden_paths;
    Alcotest.test_case "Raft protocol paths bit-identical" `Quick test_golden_raft_paths;
    Alcotest.test_case "windowed-engine racks bit-identical" `Quick test_golden_par;
    Alcotest.test_case "size-based policy runs bit-identical" `Quick test_golden_policies;
    Alcotest.test_case "quantum-timer paths bit-identical" `Quick test_golden_quantum_paths;
    Alcotest.test_case "LevelDB runs and store outcomes bit-identical" `Quick
      test_golden_leveldb;
    Alcotest.test_case "SLS server runs bit-identical" `Quick test_golden_sls;
    Alcotest.test_case "Sim.run allocates zero words/event" `Quick test_sim_run_zero_alloc;
    Alcotest.test_case "Heap add+pop allocates zero words/op" `Quick
      test_heap_churn_zero_alloc;
    Alcotest.test_case "Heap add+remove allocates zero words/op" `Quick
      test_heap_remove_churn_zero_alloc;
    Alcotest.test_case "Heap churn forces no minor collections" `Quick
      test_heap_churn_no_forced_minor_gc;
    Alcotest.test_case "Discrete sampling allocation independent of entry count" `Quick
      test_discrete_sample_alloc_size_independent;
  ]
