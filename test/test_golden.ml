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
  let policy =
    match Repro_runtime.Policy.of_spec "gittins" ~mix with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let config = { (config_of "concord") with Repro_runtime.Config.policy } in
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
        "p50=1.77 p99=1599.05 goodput=20588.869579325245 events=721057 committed=965 \
         writes=965 member_preemptions=97985" );
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
    let now = Heap.unsafe_min_key h in
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
