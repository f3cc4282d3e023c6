(* Tests for the extensions beyond the paper's prototype: Zipfian key
   popularity, the single-logical-queue server (6), multi-dispatcher
   replication (6), and ingress batching (6). *)

module Rng = Repro_engine.Rng
module Zipf = Repro_engine.Zipf
module Sls = Repro_runtime.Sls_server
module Cluster = Repro_cluster.Cluster
module Lb_policy = Repro_cluster.Lb_policy
module Systems = Repro_runtime.Systems
module Metrics = Repro_runtime.Metrics
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival

(* --- zipf -------------------------------------------------------------- *)

let test_zipf_uniform_when_alpha_zero () =
  let z = Zipf.create ~n:4 ~alpha:0.0 in
  for k = 0 to 3 do
    Alcotest.(check bool) "uniform mass" true (Float.abs (Zipf.probability z k -. 0.25) < 1e-9)
  done

let test_zipf_rank_ordering () =
  let z = Zipf.create ~n:100 ~alpha:1.0 in
  for k = 0 to 98 do
    if Zipf.probability z k < Zipf.probability z (k + 1) -. 1e-12 then
      Alcotest.failf "rank %d less popular than rank %d" k (k + 1)
  done

let test_zipf_sampling_frequency () =
  let z = Zipf.create ~n:10 ~alpha:1.2 in
  let rng = Rng.create ~seed:1 in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Zipf.sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates" true (counts.(0) > counts.(5) * 4);
  let frac0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool) "rank-0 frequency matches mass" true
    (Float.abs (frac0 -. Zipf.probability z 0) < 0.01)

let test_zipf_bounds () =
  Alcotest.check_raises "n >= 1" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~alpha:1.0));
  let z = Zipf.create ~n:5 ~alpha:0.9 in
  let rng = Rng.create ~seed:2 in
  for _ = 1 to 1_000 do
    let k = Zipf.sample z rng in
    if k < 0 || k >= 5 then Alcotest.failf "rank out of range: %d" k
  done

let test_zipf_kv_mix () =
  let store = Repro_kvstore.Kv_workload.populate ~n_keys:1_000 ~seed:3 () in
  let mix = Repro_kvstore.Kv_workload.zippydb_mix ~zipf_alpha:1.0 store ~seed:3 in
  let rng = Rng.create ~seed:4 in
  (* Just exercise the skewed generators against the live store. *)
  for _ = 1 to 500 do
    let p = Mix.sample mix rng in
    Alcotest.(check bool) "positive service" true (p.Mix.service_ns > 0)
  done

(* --- single-logical-queue server (6) --------------------------------- *)

let fixed_mix ns = Mix.of_dist ~name:"fixed" (Service_dist.Fixed (float_of_int ns))

let run_sls ?(config = Sls.concord_sls ()) ?(mix = fixed_mix 1_000) ?(rate = 1.0e6)
    ?(n = 5_000) ?(seed = 42) () =
  Sls.run ~config ~mix ~arrival:(Arrival.Poisson { rate_rps = rate }) ~n_requests:n ~seed ()

let test_sls_conservation () =
  List.iter
    (fun (config, rate) ->
      let s = run_sls ~config ~rate () in
      Alcotest.(check int) "completed + censored = arrivals" 5_000
        (s.Metrics.completed + s.Metrics.censored))
    [
      (Sls.concord_sls (), 2.0e6);
      (Sls.shenango_like (), 2.0e6);
      (Sls.partitioned_fcfs (), 2.0e6);
      (Sls.concord_sls (), 30.0e6);
    ]

let test_sls_no_preempt_variants () =
  let s = run_sls ~config:(Sls.shenango_like ()) ~mix:(fixed_mix 20_000) ~rate:400_000.0 () in
  Alcotest.(check int) "shenango never preempts" 0 s.Metrics.preemptions;
  let c =
    run_sls
      ~config:(Sls.concord_sls ~quantum_ns:2_000 ())
      ~mix:(fixed_mix 20_000) ~rate:400_000.0 ()
  in
  Alcotest.(check bool) "concord-sls preempts long requests" true (c.Metrics.preemptions > 0)

let test_sls_rejects_non_positive_quantum () =
  (* A 0 ns quantum would preempt at every scheduler scan. *)
  Alcotest.check_raises "quantum >= 1ns"
    (Invalid_argument "Sls_server.run: quantum must be positive") (fun () ->
      ignore (run_sls ~config:(Sls.concord_sls ~quantum_ns:0 ()) ~n:100 ()))

let test_sls_stealing_beats_partitioned () =
  (* High-dispersion load: stealing (single logical queue) must crush the
     d-FCFS tail, the paper's core single-queue argument. *)
  let mix = Repro_workload.Presets.ycsb_a in
  let rate = 180_000.0 in
  let steal = run_sls ~config:(Sls.shenango_like ()) ~mix ~rate ~n:20_000 () in
  let partitioned = run_sls ~config:(Sls.partitioned_fcfs ()) ~mix ~rate ~n:20_000 () in
  Alcotest.(check bool) "logical single queue tightens the tail" true
    (steal.Metrics.p999_slowdown *. 1.5 < partitioned.Metrics.p999_slowdown)

let test_sls_outgrows_physical_dispatcher () =
  (* Fixed(1) at 5M rps: the physical dispatcher saturates (fig8a) while
     the dispatcher-less SLS keeps the tail bounded. *)
  let mix = fixed_mix 1_000 in
  let rate = 5.0e6 in
  let physical =
    Repro_runtime.Server.run ~config:(Systems.concord ()) ~mix
      ~arrival:(Arrival.Poisson { rate_rps = rate })
      ~n_requests:40_000 ()
  in
  let sls = run_sls ~config:(Sls.concord_sls ()) ~mix ~rate ~n:40_000 () in
  Alcotest.(check bool) "physical dispatcher saturated" true
    (physical.Metrics.p999_slowdown > 100.0);
  Alcotest.(check bool) "SLS keeps up" true (sls.Metrics.p999_slowdown < 20.0)

let test_sls_determinism () =
  let a = run_sls ~mix:Repro_workload.Presets.usr ~rate:2.0e6 ~seed:9 () in
  let b = run_sls ~mix:Repro_workload.Presets.usr ~rate:2.0e6 ~seed:9 () in
  Alcotest.(check (float 0.0)) "identical" a.Metrics.p999_slowdown b.Metrics.p999_slowdown

let test_sls_single_worker_matches_lindley () =
  (* d-FCFS with one worker and zero costs is exactly an FCFS/1 queue; its
     mean sojourn must match the Lindley recurrence (see test_oracle.ml for
     the physical-queue version of this check). *)
  let services = Array.init 400 (fun i -> 300 + ((i * 53) mod 4_000)) in
  let idx = ref 0 in
  let mix =
    Mix.of_classes ~name:"replay"
      [|
        {
          Mix.name = "replay";
          weight = 1.0;
          mean_ns = 1.0;
          generate =
            (fun _ ->
              let s = services.(!idx mod Array.length services) in
              incr idx;
              { Mix.class_id = 0; service_ns = s; lock_windows = [||]; probe_spacing_ns = 0.0 });
        };
      |]
  in
  let config =
    {
      (Sls.partitioned_fcfs ~n_workers:1 ()) with
      Sls.costs = Repro_hw.Costs.zero_overhead;
    }
  in
  let seed = 31 and rate = 900_000.0 in
  let summary =
    Sls.run ~config ~mix
      ~arrival:(Arrival.Poisson { rate_rps = rate })
      ~n_requests:(Array.length services) ~warmup_frac:0.0 ~drain_cap_ns:2_000_000_000 ~seed ()
  in
  (* Reconstruct the arrival stream the same way the server derives it. *)
  let master = Repro_engine.Rng.create ~seed in
  let arrival_rng = Repro_engine.Rng.split master in
  let arrival = Arrival.Poisson { rate_rps = rate } in
  let now = ref 0 in
  let expected_total = ref 0 in
  let prev_completion = ref 0 in
  Array.iteri
    (fun i s ->
      let start = max !now !prev_completion in
      prev_completion := start + s;
      expected_total := !expected_total + (!prev_completion - !now);
      now := !now + Arrival.next_gap_ns arrival arrival_rng ~index:i)
    services;
  let expected_mean = float_of_int !expected_total /. float_of_int (Array.length services) in
  let diff = Float.abs (summary.Metrics.mean_sojourn_ns -. expected_mean) in
  if diff > 1e-6 then
    Alcotest.failf "SLS/1 mean %.3f vs Lindley %.3f" summary.Metrics.mean_sojourn_ns
      expected_mean

(* --- replication (6) --------------------------------------------------- *)

(* Replicas with disjoint cores fed by a uniform random split: the rack
   under the Random policy, [config] describing one replica. *)
let replicate ~instances ~config ~mix ~rate_rps ~n_requests =
  Cluster.run
    ~cluster:(Cluster.homogeneous ~policy:Lb_policy.Random ~instances config)
    ~mix ~arrival:(Arrival.Poisson { rate_rps }) ~n_requests ()

let test_replication_merges_instances () =
  let config = Systems.concord ~n_workers:4 () in
  let s =
    replicate ~instances:3 ~config ~mix:(fixed_mix 5_000) ~rate_rps:1.2e6 ~n_requests:9_000
  in
  Alcotest.(check int) "instances" 3 (Array.length s.Cluster.per_instance);
  Alcotest.(check int) "workers total" 12 s.Cluster.total_workers;
  Alcotest.(check bool) "slowdowns sane" true (s.Cluster.cluster.Metrics.p50_slowdown >= 1.0)

let test_replication_scales_dispatcher_bound () =
  (* Fixed(1) at 5M total: one dispatcher saturates; two replicas do not. *)
  let mix = fixed_mix 1_000 in
  let p999 ~instances ~n_workers =
    (replicate ~instances ~config:(Systems.concord ~n_workers ()) ~mix ~rate_rps:5.0e6
       ~n_requests:40_000)
      .Cluster.cluster.Metrics.p999_slowdown
  in
  let one = p999 ~instances:1 ~n_workers:14 in
  let two = p999 ~instances:2 ~n_workers:7 in
  Alcotest.(check bool) "one instance saturated" true (one > 100.0);
  Alcotest.(check bool) "two instances fine" true (two < one /. 4.0)

let test_replication_validation () =
  Alcotest.check_raises "instances >= 1"
    (Invalid_argument "Cluster.homogeneous: need at least one instance") (fun () ->
      ignore
        (replicate ~instances:0 ~config:(Systems.concord ()) ~mix:(fixed_mix 1_000)
           ~rate_rps:1.0 ~n_requests:10))

(* --- ingress batching (6) ------------------------------------------------ *)

let test_batching_config_validates () =
  let c = Systems.concord_batched ~batch:8 () in
  Repro_runtime.Config.validate c;
  Alcotest.(check int) "batch stored" 8 c.Repro_runtime.Config.ingress_batch;
  Alcotest.check_raises "batch >= 1" (Invalid_argument "Config: ingress batch must be >= 1")
    (fun () -> Repro_runtime.Config.validate { c with Repro_runtime.Config.ingress_batch = 0 })

let test_batching_conserves () =
  let s =
    Repro_runtime.Server.run
      ~config:(Systems.concord_batched ~batch:16 ())
      ~mix:(fixed_mix 1_000)
      ~arrival:(Arrival.Poisson { rate_rps = 4.0e6 })
      ~n_requests:20_000 ()
  in
  Alcotest.(check int) "conservation with batching" 20_000
    (s.Metrics.completed + s.Metrics.censored)

let test_batching_raises_dispatcher_capacity () =
  (* At 3.6M rps Fixed(1), the unbatched dispatcher is just past saturation
     (fig8a) while batch-16 ingress still keeps up; ingress is only ~1/3 of
     the per-request dispatcher work, so deeper saturation (> 4.1M) is out
     of reach for ingress batching alone. *)
  let mix = fixed_mix 1_000 in
  let rate = 3.6e6 in
  let run config =
    Repro_runtime.Server.run ~config ~mix
      ~arrival:(Arrival.Poisson { rate_rps = rate })
      ~n_requests:40_000 ()
  in
  let plain = run (Systems.concord ()) in
  let batched = run (Systems.concord_batched ~batch:16 ()) in
  Alcotest.(check bool) "batching defers saturation" true
    (batched.Metrics.p999_slowdown *. 2.0 < plain.Metrics.p999_slowdown)

let suite =
  [
    Alcotest.test_case "zipf alpha=0 is uniform" `Quick test_zipf_uniform_when_alpha_zero;
    Alcotest.test_case "zipf rank ordering" `Quick test_zipf_rank_ordering;
    Alcotest.test_case "zipf sampling frequency" `Quick test_zipf_sampling_frequency;
    Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
    Alcotest.test_case "zipfian kv mix" `Quick test_zipf_kv_mix;
    Alcotest.test_case "sls conservation" `Quick test_sls_conservation;
    Alcotest.test_case "sls preemption variants" `Quick test_sls_no_preempt_variants;
    Alcotest.test_case "sls rejects a non-positive quantum" `Quick
      test_sls_rejects_non_positive_quantum;
    Alcotest.test_case "stealing beats partitioned queues" `Quick
      test_sls_stealing_beats_partitioned;
    Alcotest.test_case "sls outgrows the physical dispatcher" `Slow
      test_sls_outgrows_physical_dispatcher;
    Alcotest.test_case "sls determinism" `Quick test_sls_determinism;
    Alcotest.test_case "sls single worker = Lindley" `Quick
      test_sls_single_worker_matches_lindley;
    Alcotest.test_case "replication merges instances" `Quick test_replication_merges_instances;
    Alcotest.test_case "replication scales the dispatcher bound" `Slow
      test_replication_scales_dispatcher_bound;
    Alcotest.test_case "replication validation" `Quick test_replication_validation;
    Alcotest.test_case "batching config" `Quick test_batching_config_validates;
    Alcotest.test_case "batching conserves requests" `Quick test_batching_conserves;
    Alcotest.test_case "batching raises dispatcher capacity" `Slow
      test_batching_raises_dispatcher_capacity;
  ]

let test_sls_tracing () =
  let tracer = Repro_runtime.Tracing.create () in
  let (_ : Metrics.summary) =
    Sls.run
      ~config:(Sls.concord_sls ~n_workers:2 ~quantum_ns:2_000 ())
      ~mix:(fixed_mix 20_000)
      ~arrival:(Arrival.Poisson { rate_rps = 80_000.0 })
      ~n_requests:200 ~tracer ()
  in
  let entries = Repro_runtime.Tracing.entries tracer in
  let has kind_pred = List.exists (fun e -> kind_pred e.Repro_runtime.Tracing.kind) entries in
  Alcotest.(check bool) "arrivals traced" true
    (has (function Repro_runtime.Tracing.Arrived _ -> true | _ -> false));
  Alcotest.(check bool) "preemptions traced" true
    (has (function Repro_runtime.Tracing.Preempted _ -> true | _ -> false));
  Alcotest.(check bool) "completions traced" true
    (has (function Repro_runtime.Tracing.Completed _ -> true | _ -> false));
  (* Every request completes exactly once. *)
  let completions =
    List.filter
      (fun e ->
        match e.Repro_runtime.Tracing.kind with
        | Repro_runtime.Tracing.Completed _ -> true
        | _ -> false)
      entries
  in
  Alcotest.(check int) "one completion per request" 200 (List.length completions)

let suite =
  suite @ [ Alcotest.test_case "sls tracing" `Quick test_sls_tracing ]
