(* Integration and property tests of the full server simulation. *)

module Server = Repro_runtime.Server
module Systems = Repro_runtime.Systems
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Mechanism = Repro_hw.Mechanism
module Costs = Repro_hw.Costs
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival

let fixed_mix ns = Mix.of_dist ~name:"fixed" (Service_dist.Fixed (float_of_int ns))

let run ?(config = Systems.concord ()) ?(mix = fixed_mix 1_000) ?(rate = 1.0e6)
    ?(n = 5_000) ?(seed = 42) ?drain () =
  Server.run ~config ~mix ~arrival:(Arrival.Poisson { rate_rps = rate }) ~n_requests:n
    ?drain_cap_ns:drain ~seed ()

(* Conservation: every arrival either completes or is censored. *)
let test_conservation () =
  List.iter
    (fun (config, rate) ->
      let s = run ~config ~rate () in
      Alcotest.(check int) "completed + censored = arrivals" 5_000
        (s.Metrics.completed + s.Metrics.censored))
    [
      (Systems.concord (), 1.0e6);
      (Systems.shinjuku (), 1.0e6);
      (Systems.persephone_fcfs (), 1.0e6);
      (Systems.concord (), 20.0e6) (* heavy overload *);
      (Systems.coop_jbsq ~k:4 (), 4.0e6);
    ]

(* With zero hardware costs and light deterministic load, every request is
   served immediately: slowdown exactly 1. *)
let test_ideal_low_load_slowdown_is_one () =
  let config = Systems.ideal_no_preemption ~n_workers:4 () in
  let s =
    Server.run ~config ~mix:(fixed_mix 1_000)
      ~arrival:(Arrival.Uniform { rate_rps = 100_000.0 })
      ~n_requests:2_000 ()
  in
  Alcotest.(check (float 1e-6)) "p50 = 1" 1.0 s.Metrics.p50_slowdown;
  Alcotest.(check (float 1e-6)) "p99.9 = 1" 1.0 s.Metrics.p999_slowdown;
  Alcotest.(check int) "no preemptions" 0 s.Metrics.preemptions

let test_no_preemption_when_quantum_exceeds_service () =
  let config = Systems.concord ~quantum_ns:50_000 () in
  let s = run ~config ~mix:(fixed_mix 10_000) ~rate:100_000.0 () in
  Alcotest.(check int) "no preemptions" 0 s.Metrics.preemptions

(* Deterministic preemption count: 10us requests at a 2us quantum yield
   exactly 4 times each (the 5th timer coincides with completion). *)
let test_preemption_count_exact () =
  let config =
    {
      (Systems.ideal_single_queue ~sigma_ns:0.0 ~n_workers:1 ~quantum_ns:2_000 ()) with
      Config.name = "exact-preempt";
    }
  in
  let s =
    Server.run ~config ~mix:(fixed_mix 10_000)
      ~arrival:(Arrival.Uniform { rate_rps = 5_000.0 }) (* sequential: 200us apart *)
      ~n_requests:50 ()
  in
  Alcotest.(check int) "4 preemptions per request" 200 s.Metrics.preemptions;
  Alcotest.(check int) "all complete" 50 s.Metrics.completed

let test_slowdown_at_least_one () =
  List.iter
    (fun seed ->
      let s = run ~mix:Repro_workload.Presets.ycsb_a ~rate:150_000.0 ~n:4_000 ~seed () in
      Alcotest.(check bool) "p50 slowdown >= 1" true (s.Metrics.p50_slowdown >= 1.0);
      Alcotest.(check bool) "mean slowdown >= 1" true (s.Metrics.mean_slowdown >= 1.0))
    [ 1; 2; 3 ]

let test_fcfs_completion_order () =
  (* Single worker, no preemption: completions must follow arrival order,
     so the slowest possible p50 equals the queueing bound. Check by
     verifying mean slowdown grows with load (work conservation sanity). *)
  let config = Systems.persephone_fcfs ~n_workers:1 () in
  let light = run ~config ~rate:100_000.0 () in
  let heavy = run ~config ~rate:900_000.0 () in
  Alcotest.(check bool) "queueing grows with load" true
    (heavy.Metrics.mean_slowdown > light.Metrics.mean_slowdown)

(* JBSQ(1) is semantically a single queue: with zero hardware costs the two
   queueing disciplines must produce near-identical tails. *)
let test_jbsq1_equals_single_queue () =
  let costs = Costs.zero_overhead in
  let sq =
    { (Systems.ideal_single_queue ~sigma_ns:0.0 ~n_workers:4 ~costs ()) with Config.name = "sq" }
  in
  let jbsq1 =
    {
      sq with
      Config.name = "jbsq1";
      queue_model = Config.Jbsq 1;
      mechanism = Mechanism.Model_lateness { sigma_ns = 0.0 };
    }
  in
  let mix = Repro_workload.Presets.usr in
  let s1 = Server.run ~config:sq ~mix ~arrival:(Arrival.Poisson { rate_rps = 1.0e6 }) ~n_requests:20_000 () in
  let s2 = Server.run ~config:jbsq1 ~mix ~arrival:(Arrival.Poisson { rate_rps = 1.0e6 }) ~n_requests:20_000 () in
  let rel = Float.abs (s1.Metrics.p999_slowdown -. s2.Metrics.p999_slowdown) /. s1.Metrics.p999_slowdown in
  if rel > 0.1 then
    Alcotest.failf "JBSQ(1) diverges from SQ: %.2f vs %.2f" s2.Metrics.p999_slowdown
      s1.Metrics.p999_slowdown

let test_work_stealing_helps_at_saturation () =
  let mix = fixed_mix 20_000 in
  let rate = 150_000.0 in
  (* 2 workers at 20us: capacity 100k; offered 150k -> dispatcher can help *)
  let steal =
    run ~config:(Systems.concord ~n_workers:2 ()) ~mix ~rate ~n:6_000 ()
  in
  let no_steal =
    run ~config:(Systems.concord_no_steal ~n_workers:2 ()) ~mix ~rate ~n:6_000 ()
  in
  Alcotest.(check bool) "steals happen" true (steal.Metrics.steal_slices > 0);
  Alcotest.(check bool) "goodput improves" true
    (steal.Metrics.goodput_rps > no_steal.Metrics.goodput_rps *. 1.05)

let test_whole_request_lock_model_never_preempts () =
  let config = Systems.shinjuku_whole_call ~quantum_ns:1_000 () in
  let s = run ~config ~mix:(fixed_mix 50_000) ~rate:200_000.0 () in
  Alcotest.(check int) "no preemptions under whole-call locking" 0 s.Metrics.preemptions

let test_lock_window_blocks_preemption () =
  (* The entire request is one critical section: safety-first preemption
     must never fire even though the quantum is tiny. *)
  let locked_profile _rng =
    { Mix.class_id = 0; service_ns = 50_000; lock_windows = [| (0, 50_000) |]; probe_spacing_ns = 0.0 }
  in
  let mix =
    Mix.of_classes ~name:"locked"
      [| { Mix.name = "locked"; weight = 1.0; mean_ns = 50_000.0; generate = locked_profile } |]
  in
  let s = run ~config:(Systems.concord ~quantum_ns:1_000 ()) ~mix ~rate:200_000.0 () in
  Alcotest.(check int) "no preemptions inside the lock" 0 s.Metrics.preemptions

let test_partial_lock_window_defers () =
  (* Lock covers the first half only: preemptions still happen (in the
     second half). *)
  let profile _rng =
    { Mix.class_id = 0; service_ns = 50_000; lock_windows = [| (0, 25_000) |]; probe_spacing_ns = 0.0 }
  in
  let mix =
    Mix.of_classes ~name:"half-locked"
      [| { Mix.name = "half"; weight = 1.0; mean_ns = 50_000.0; generate = profile } |]
  in
  let s = run ~config:(Systems.concord ~quantum_ns:1_000 ()) ~mix ~rate:200_000.0 () in
  Alcotest.(check bool) "preemptions in the unlocked half" true (s.Metrics.preemptions > 0)

let test_determinism () =
  let a = run ~mix:Repro_workload.Presets.ycsb_a ~rate:200_000.0 ~seed:7 () in
  let b = run ~mix:Repro_workload.Presets.ycsb_a ~rate:200_000.0 ~seed:7 () in
  Alcotest.(check (float 0.0)) "identical p99.9" a.Metrics.p999_slowdown b.Metrics.p999_slowdown;
  Alcotest.(check int) "identical preemptions" a.Metrics.preemptions b.Metrics.preemptions

let test_seed_changes_results () =
  let a = run ~mix:Repro_workload.Presets.ycsb_a ~rate:200_000.0 ~seed:7 () in
  let b = run ~mix:Repro_workload.Presets.ycsb_a ~rate:200_000.0 ~seed:8 () in
  Alcotest.(check bool) "different seeds differ" true
    (a.Metrics.mean_sojourn_ns <> b.Metrics.mean_sojourn_ns)

let test_overload_goodput_near_capacity () =
  let config = Systems.ideal_no_preemption ~n_workers:4 () in
  let s =
    Server.run ~config ~mix:(fixed_mix 1_000)
      ~arrival:(Arrival.Poisson { rate_rps = 8.0e6 })
      ~n_requests:40_000 ~drain_cap_ns:3_000_000_000 ()
  in
  let capacity = 4.0e6 in
  let rel = Float.abs (s.Metrics.goodput_rps -. capacity) /. capacity in
  if rel > 0.05 then Alcotest.failf "goodput %.0f vs capacity %.0f" s.Metrics.goodput_rps capacity

let test_censoring_under_extreme_overload () =
  let s = run ~rate:100.0e6 ~n:5_000 ~drain:1_000_000 () in
  Alcotest.(check bool) "some requests censored" true (s.Metrics.censored > 0);
  Alcotest.(check bool) "tail reflects overload" true (s.Metrics.p999_slowdown > 50.0)

let test_warmup_discard () =
  let s = run ~n:5_000 ~rate:100_000.0 () in
  Alcotest.(check int) "10% discarded" 4_500 s.Metrics.measured

let test_dispatcher_busy_fraction_sane () =
  let s = run ~rate:2.0e6 ~n:20_000 ~mix:(fixed_mix 1_000) () in
  Alcotest.(check bool) "busy fraction in [0,1.05]" true
    (s.Metrics.dispatcher_busy_frac >= 0.0 && s.Metrics.dispatcher_busy_frac <= 1.05)

let test_per_class_metrics () =
  let s = run ~mix:Repro_workload.Presets.tpcc ~rate:400_000.0 ~n:10_000 () in
  let total = Array.fold_left (fun acc (_, n, _) -> acc + n) 0 s.Metrics.per_class in
  Alcotest.(check int) "class samples = measured + censored"
    (s.Metrics.measured + s.Metrics.measured_censored)
    total;
  Alcotest.(check int) "five TPCC classes" 5 (Array.length s.Metrics.per_class)

(* The headline behaviours, as cheap regression guards. *)
let test_preemption_beats_fcfs_on_bimodal () =
  let mix = Repro_workload.Presets.ycsb_a in
  let rate = 150_000.0 in
  let concord = run ~config:(Systems.concord ()) ~mix ~rate ~n:20_000 () in
  let persephone = run ~config:(Systems.persephone_fcfs ()) ~mix ~rate ~n:20_000 () in
  Alcotest.(check bool) "preemptive tail far tighter" true
    (concord.Metrics.p999_slowdown *. 2.0 < persephone.Metrics.p999_slowdown)

let test_concord_beats_shinjuku_at_small_quantum () =
  let mix = Repro_workload.Presets.ycsb_a in
  let rate = 220_000.0 in
  let concord = run ~config:(Systems.concord ~quantum_ns:2_000 ()) ~mix ~rate ~n:20_000 () in
  let shinjuku = run ~config:(Systems.shinjuku ~quantum_ns:2_000 ()) ~mix ~rate ~n:20_000 () in
  Alcotest.(check bool) "concord sustains what shinjuku cannot" true
    (concord.Metrics.p999_slowdown < 50.0 && shinjuku.Metrics.p999_slowdown > 50.0)

(* Burst and recover: at 150 kRps of YCSB-A, 59% of Concord's SLO
   crossing, every preset must ride out one early burst (2,000 arrivals at
   twice the rate, or 1,000 at three times) and come back. The burst falls
   inside the 2,000-request warm-up, so the measured window shows the
   recovery: goodput at least 95% of offered and a p50 slowdown below 2.
   A quantum that shrinks as the central queue backs up fails this at both
   seeds: its extra preemptions saturate the dispatcher, the backlog grows
   and the run never recovers (EXPERIMENTS.md, "The adaptive quantum").
   The goodput bound is one-sided: a shorter run keeps part of the burst
   in its measured window and reads above the offered rate. *)
let test_every_preset_recovers_from_a_burst () =
  let rate_rps = 150e3 in
  let bursts =
    [
      ( "one 2x burst",
        Arrival.Mmpp { rate_rps; burst_factor = 2.; cycle = 1_000_000; duty = 0.002 } );
      ("one 3x burst", Arrival.Mmpp { rate_rps; burst_factor = 3.; cycle = 20_000; duty = 0.05 });
    ]
  in
  List.iter
    (fun seed ->
      List.iter
        (fun name ->
          let make = Option.get (Systems.by_name name) in
          let config = make () in
          List.iter
            (fun (burst, arrival) ->
              let s =
                Server.run ~config ~mix:Repro_workload.Presets.ycsb_a ~arrival ~n_requests:20_000
                  ~seed ()
              in
              if s.Metrics.goodput_rps < 0.95 *. rate_rps || not (s.Metrics.p50_slowdown < 2.0)
              then
                Alcotest.failf "%s, %s, seed %d: goodput %.1f of %.0f kRps, p50 slowdown %.2f"
                  name burst seed (s.Metrics.goodput_rps /. 1e3) (rate_rps /. 1e3)
                  s.Metrics.p50_slowdown)
            bursts)
        Systems.all_names)
    [ 42; 7 ]

(* Regression (§3.3): the dispatcher may hold a preempted stolen context
   only while every worker is busy. Once a worker idles, the saved request
   must be requeued so the worker finishes it; it used to stay parked on
   the dispatcher (under the slower rdtsc instrumentation) until the
   dispatcher itself went idle, inflating the tail at low load. *)
let test_saved_context_migrates_to_idle_worker () =
  let services = [| 10_000; 10_000; 200_000; 10_000 |] in
  let idx = ref 0 in
  let generate _rng =
    let s = services.(!idx mod Array.length services) in
    incr idx;
    { Mix.class_id = 0; service_ns = s; lock_windows = [||]; probe_spacing_ns = 0.0 }
  in
  let mix =
    Mix.of_classes ~name:"replay"
      [| { Mix.name = "replay"; weight = 1.0; mean_ns = 1.0; generate } |]
  in
  let tracer = Repro_runtime.Tracing.create () in
  (* One worker, JBSQ(2): a burst of four saturates the worker with r0/r1,
     so the dispatcher steals r2 (200 us) and self-preempts holding it. *)
  let s =
    Server.run
      ~config:(Systems.concord ~n_workers:1 ~quantum_ns:20_000 ())
      ~mix
      ~arrival:(Arrival.Burst_poisson { rate_rps = 10_000.0; burst = 4 })
      ~n_requests:4 ~warmup_frac:0.0 ~tracer ()
  in
  Alcotest.(check int) "all complete" 4 s.Metrics.completed;
  Alcotest.(check int) "nothing censored" 0 s.Metrics.censored;
  let module Tracing = Repro_runtime.Tracing in
  let life = Tracing.of_request tracer ~request:2 in
  let has f = List.exists (fun (e : Tracing.entry) -> f e.Tracing.kind) life in
  Alcotest.(check bool) "the long request was stolen" true
    (has (function Tracing.Stolen -> true | _ -> false));
  Alcotest.(check bool) "then requeued once a worker idled" true
    (has (function Tracing.Requeued _ -> true | _ -> false));
  match List.rev life with
  | { Tracing.kind = Tracing.Completed { worker }; _ } :: _ ->
    if worker < 0 then
      Alcotest.fail "saved context completed on the dispatcher despite an idle worker"
  | _ -> Alcotest.fail "stolen request never completed"

let prop_conservation_random =
  QCheck.Test.make ~count:25 ~name:"conservation holds for random loads and seeds"
    QCheck.(pair (int_range 1 100) (int_range 0 1000))
    (fun (rate_percent, seed) ->
      let rate = float_of_int rate_percent /. 100.0 *. 400_000.0 in
      let s = run ~rate:(Float.max rate 1_000.0) ~n:800 ~seed ~mix:(fixed_mix 5_000) () in
      s.Metrics.completed + s.Metrics.censored = 800)

(* A segment arms its quantum only when the quantum can fire. Right after
   a request's first segment begins, the worker's timers are its completion
   alone for a request shorter than the 5 us quantum, and its completion
   plus its quantum for a longer one. The begin event is found through the
   tracer's [Started] record; [Sim.pending] does not count the event being
   handled, so the difference across [handle] is what it armed. *)
let timers_armed_at_begin ~service_ns =
  let module Sim = Repro_engine.Sim in
  let module Tracing = Repro_runtime.Tracing in
  let module Request = Repro_runtime.Request in
  let sim : Server.event Sim.t = Sim.create ~capacity:64 () in
  let tracer = Tracing.create () in
  let inst =
    Server.Instance.create ~sim ~lift:Fun.id ~config:(Systems.concord ~n_workers:1 ())
      ~warmup_before:0 ~n_classes:1 ~rng:(Repro_engine.Rng.create ~seed:1) ~tracer ()
  in
  let profile = { Mix.class_id = 0; service_ns; lock_windows = [||]; probe_spacing_ns = 0.0 } in
  Server.Instance.inject inst (Request.create ~id:0 ~arrival_ns:0 ~profile);
  let starts () =
    Tracing.fold tracer ~init:0 ~f:(fun n e ->
        match e.Tracing.kind with Tracing.Started _ -> n + 1 | _ -> n)
  in
  let armed = ref [] in
  Sim.run sim
    ~handler:(fun sim ev ->
      let pending = Sim.pending sim and started = starts () in
      Server.Instance.handle inst ev;
      if starts () > started then armed := (Sim.pending sim - pending) :: !armed)
    ();
  !armed

let test_short_segment_arms_no_quantum () =
  Alcotest.(check (list int)) "1 us request: completion only" [ 1 ]
    (timers_armed_at_begin ~service_ns:1_000);
  Alcotest.(check (list int)) "20 us request: completion and quantum" [ 2 ]
    (timers_armed_at_begin ~service_ns:20_000)

let suite =
  [
    Alcotest.test_case "conservation of requests" `Quick test_conservation;
    Alcotest.test_case "ideal low load: slowdown = 1" `Quick test_ideal_low_load_slowdown_is_one;
    Alcotest.test_case "quantum > service: no preemption" `Quick
      test_no_preemption_when_quantum_exceeds_service;
    Alcotest.test_case "exact preemption count" `Quick test_preemption_count_exact;
    Alcotest.test_case "slowdown >= 1" `Quick test_slowdown_at_least_one;
    Alcotest.test_case "queueing grows with load" `Quick test_fcfs_completion_order;
    Alcotest.test_case "JBSQ(1) equals single queue (zero costs)" `Slow
      test_jbsq1_equals_single_queue;
    Alcotest.test_case "work stealing helps at saturation" `Quick
      test_work_stealing_helps_at_saturation;
    Alcotest.test_case "whole-call locking never preempts" `Quick
      test_whole_request_lock_model_never_preempts;
    Alcotest.test_case "full lock window blocks preemption" `Quick
      test_lock_window_blocks_preemption;
    Alcotest.test_case "partial lock window defers only" `Quick test_partial_lock_window_defers;
    Alcotest.test_case "same seed, same run" `Quick test_determinism;
    Alcotest.test_case "different seed, different run" `Quick test_seed_changes_results;
    Alcotest.test_case "overload goodput = capacity" `Slow test_overload_goodput_near_capacity;
    Alcotest.test_case "extreme overload censors" `Quick test_censoring_under_extreme_overload;
    Alcotest.test_case "warmup discard" `Quick test_warmup_discard;
    Alcotest.test_case "dispatcher busy fraction sane" `Quick test_dispatcher_busy_fraction_sane;
    Alcotest.test_case "per-class metrics" `Quick test_per_class_metrics;
    Alcotest.test_case "preemption beats FCFS on bimodal" `Slow
      test_preemption_beats_fcfs_on_bimodal;
    Alcotest.test_case "concord beats shinjuku at 2us quantum" `Slow
      test_concord_beats_shinjuku_at_small_quantum;
    Alcotest.test_case "every preset recovers from a burst" `Slow
      test_every_preset_recovers_from_a_burst;
    Alcotest.test_case "saved context migrates to an idle worker" `Quick
      test_saved_context_migrates_to_idle_worker;
    Alcotest.test_case "short segment arms no quantum" `Quick test_short_segment_arms_no_quantum;
    QCheck_alcotest.to_alcotest prop_conservation_random;
  ]
