(* Policy-frontier tests: spec parsing, the noisy-SRPT noise model, the
   Gittins degeneracy theorems, the SRPT-beats-FCFS mean-delay property,
   and the adaptive preemption quanta. *)

module Policy = Repro_runtime.Policy
module Config = Repro_runtime.Config
module Systems = Repro_runtime.Systems
module Server = Repro_runtime.Server
module Metrics = Repro_runtime.Metrics
module Gittins = Repro_workload.Gittins
module Service_dist = Repro_workload.Service_dist
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival
module Presets = Repro_workload.Presets

(* --- spec parsing ------------------------------------------------------- *)

let test_of_spec_valid () =
  let parse spec =
    match Policy.of_spec spec ~mix:Presets.usr with
    | Ok kind -> Policy.kind_name kind
    | Error e -> Alcotest.failf "of_spec %S: %s" spec e
  in
  Alcotest.(check string) "fcfs" "fcfs" (parse "fcfs");
  Alcotest.(check string) "srpt" "srpt" (parse "srpt");
  Alcotest.(check string) "bare srpt-noisy defaults sigma 1" "srpt-noisy:1" (parse "srpt-noisy");
  Alcotest.(check string) "srpt-noisy:0.5" "srpt-noisy:0.5" (parse "srpt-noisy:0.5");
  Alcotest.(check string) "srpt-noisy:0 is legal" "srpt-noisy:0" (parse "srpt-noisy:0");
  Alcotest.(check string) "gittins" "gittins" (parse "gittins");
  Alcotest.(check string) "srpt-kv" "srpt-kv" (parse "srpt-kv");
  Alcotest.(check string) "locality-fcfs" "locality-fcfs" (parse "locality-fcfs")

let test_of_spec_invalid () =
  let rejects spec =
    match Policy.of_spec spec ~mix:Presets.usr with
    | Ok _ -> Alcotest.failf "of_spec %S should have failed" spec
    | Error _ -> ()
  in
  rejects "foo";
  rejects "srpt-noisy:-1";
  rejects "srpt-noisy:abc";
  rejects "srpt-noisy:nan";
  rejects "gittins:3";
  rejects "srpt-kv:3"

(* --- noisy SRPT --------------------------------------------------------- *)

let fingerprint (s : Metrics.summary) =
  Printf.sprintf "p50=%.17g p99=%.17g goodput=%.17g preempt=%d" s.Metrics.p50_slowdown
    s.Metrics.p99_slowdown s.Metrics.goodput_rps s.Metrics.preemptions

let run_concord_with kind ~seed =
  let config = Systems.concord () in
  let config = { config with Config.policy = kind } in
  Server.run ~config ~mix:Presets.usr
    ~arrival:(Arrival.Poisson { rate_rps = 2.0e6 })
    ~n_requests:2_000 ~seed ()

(* sigma = 0 draws no estimate noise AND must not perturb any existing RNG
   stream: the run is bit-identical to exact SRPT, not merely close. *)
let test_noisy_sigma_zero_identical () =
  let exact = run_concord_with Policy.Srpt ~seed:42 in
  let noisy = run_concord_with (Policy.Srpt_noisy { sigma = 0.0 }) ~seed:42 in
  Alcotest.(check string) "sigma=0 == srpt" (fingerprint exact) (fingerprint noisy)

let test_noisy_sigma_two_differs () =
  let exact = run_concord_with Policy.Srpt ~seed:42 in
  let noisy = run_concord_with (Policy.Srpt_noisy { sigma = 2.0 }) ~seed:42 in
  Alcotest.(check bool) "sigma=2 perturbs the schedule" true
    (fingerprint exact <> fingerprint noisy)

(* --- srpt-kv (per-opcode mean estimates) --------------------------------- *)

(* A GET/SCAN store: two opcode classes, each with intra-class dispersion,
   so the class mean is a genuine estimate rather than the exact size. *)
let kv_mix () =
  Mix.of_classes ~name:"get-scan"
    [|
      Mix.simple_class ~name:"GET" ~weight:0.8
        ~dist:(Service_dist.Exponential { mean_ns = 2_000.0 });
      Mix.simple_class ~name:"SCAN" ~weight:0.2
        ~dist:(Service_dist.Exponential { mean_ns = 80_000.0 });
    |]

let run_with_mix kind ~mix ~seed =
  let config = Systems.concord () in
  let config = { config with Config.policy = kind } in
  let rate_rps =
    0.7 *. float_of_int config.Config.n_workers /. Mix.mean_service_ns mix *. 1e9
  in
  Server.run ~config ~mix ~arrival:(Arrival.Poisson { rate_rps }) ~n_requests:4_000 ~seed ()

let test_srpt_kv_estimates_class_means () =
  (* On exact (Fixed) per-class sizes the sampled table must recover the
     declared sizes exactly — the estimator has nothing to estimate. *)
  let fixed_mix =
    Mix.of_classes ~name:"fixed-two"
      [|
        Mix.simple_class ~name:"GET" ~weight:0.8 ~dist:(Service_dist.Fixed 1_000.0);
        Mix.simple_class ~name:"SCAN" ~weight:0.2 ~dist:(Service_dist.Fixed 100_000.0);
      |]
  in
  (match Policy.of_spec "srpt-kv" ~mix:fixed_mix with
  | Ok (Policy.Srpt_kv { means_ns }) ->
    Alcotest.(check (array int)) "exact sizes recovered" [| 1_000; 100_000 |] means_ns
  | Ok k -> Alcotest.failf "srpt-kv parsed to %s" (Policy.kind_name k)
  | Error e -> Alcotest.fail e);
  (* On dispersed classes the estimates must land near the declared means
     (4096 samples: a few percent of Monte-Carlo error). *)
  match Policy.of_spec "srpt-kv" ~mix:(kv_mix ()) with
  | Ok (Policy.Srpt_kv { means_ns }) ->
    Alcotest.(check int) "one estimate per class" 2 (Array.length means_ns);
    List.iteri
      (fun i declared ->
        let got = float_of_int means_ns.(i) in
        if Float.abs (got -. declared) /. declared > 0.10 then
          Alcotest.failf "class %d estimate %.0f vs declared mean %.0f" i got declared)
      [ 2_000.0; 80_000.0 ]
  | Ok k -> Alcotest.failf "srpt-kv parsed to %s" (Policy.kind_name k)
  | Error e -> Alcotest.fail e

(* With one class of constant size the estimate equals the exact size, so
   srpt-kv must be bit-identical to srpt — not merely close. *)
let test_srpt_kv_fixed_identical_to_srpt () =
  let mix = Mix.of_dist ~name:"fixed" (Service_dist.Fixed 3_000.0) in
  let kv =
    match Policy.of_spec "srpt-kv" ~mix with Ok k -> k | Error e -> Alcotest.fail e
  in
  let exact = run_with_mix Policy.Srpt ~mix ~seed:42 in
  let est = run_with_mix kv ~mix ~seed:42 in
  Alcotest.(check string) "constant sizes: srpt-kv == srpt" (fingerprint exact)
    (fingerprint est)

(* With intra-class dispersion the class mean is a coarse estimate: the
   schedule must diverge from exact-size SRPT (that is the point of the
   counterfactual), while still completing the run. *)
let test_srpt_kv_dispersion_differs () =
  let mix = kv_mix () in
  let kv =
    match Policy.of_spec "srpt-kv" ~mix with Ok k -> k | Error e -> Alcotest.fail e
  in
  let exact = run_with_mix Policy.Srpt ~mix ~seed:42 in
  let est = run_with_mix kv ~mix ~seed:42 in
  Alcotest.(check bool) "estimate-based schedule diverges" true
    (fingerprint exact <> fingerprint est);
  Alcotest.(check bool) "srpt-kv run completes" true (est.Metrics.completed > 0)

(* --- SRPT vs FCFS mean delay -------------------------------------------- *)

(* On a high-dispersion mix at high load, SRPT must not lose to FCFS on
   mean sojourn (the classic optimality result, up to preemption overhead
   and quantum granularity). YCSB-A's 50/50 bimodal keeps every seed's
   long-request population large enough that the comparison is stable
   per seed; rarer-long mixes (p_short = 0.99) need cross-seed averaging
   because a handful of 500 us requests dominates the mean. Checked per
   seed with a 1% overhead allowance. *)
let test_srpt_mean_sojourn_beats_fcfs () =
  let mix = Presets.ycsb_a in
  let util = 0.85 in
  let config = Systems.concord () in
  let rate_rps =
    util *. float_of_int config.Config.n_workers /. Mix.mean_service_ns mix *. 1e9
  in
  List.iter
    (fun seed ->
      let run kind =
        Server.run
          ~config:{ config with Config.policy = kind }
          ~mix
          ~arrival:(Arrival.Poisson { rate_rps })
          ~n_requests:8_000 ~seed ()
      in
      let fcfs = run Policy.Fcfs in
      let srpt = run Policy.Srpt in
      if srpt.Metrics.mean_sojourn_ns > 1.01 *. fcfs.Metrics.mean_sojourn_ns then
        Alcotest.failf "seed %d: SRPT mean sojourn %.0f ns > FCFS %.0f ns" seed
          srpt.Metrics.mean_sojourn_ns fcfs.Metrics.mean_sojourn_ns)
    [ 1; 2; 3 ]

(* --- Gittins degeneracies ------------------------------------------------ *)

(* Deterministic sizes: the Gittins rank must collapse to SRPT's remaining
   work, rank(a) ~ s - a, up to the 192-point log-grid discretization
   (~2-3% near age 0, where the grid is coarsest relative to s). *)
let test_gittins_fixed_is_srpt () =
  let s = 10_000.0 in
  let t = Gittins.of_dist (Service_dist.Fixed s) in
  let check ~age expected =
    let got = float_of_int (Gittins.rank_ns t ~age_ns:age) in
    if Float.abs (got -. expected) /. expected > 0.05 then
      Alcotest.failf "rank(age=%d) = %.0f, want ~%.0f" age got expected
  in
  check ~age:0 s;
  check ~age:5_000 (s /. 2.0);
  Alcotest.(check int) "rank0 precompute agrees" (Gittins.rank_ns t ~age_ns:0)
    (Gittins.rank0_ns t)

(* Memoryless sizes: attained service carries no information, so the rank
   must be (near-)constant in age — Gittins degenerates to FCFS among
   started requests. *)
let test_gittins_exponential_is_flat () =
  let mean = 5_000.0 in
  let t = Gittins.of_dist (Service_dist.Exponential { mean_ns = mean }) in
  let r0 = float_of_int (Gittins.rank_ns t ~age_ns:0) in
  List.iter
    (fun age ->
      let r = float_of_int (Gittins.rank_ns t ~age_ns:age) in
      if Float.abs (r -. r0) /. r0 > 0.05 then
        Alcotest.failf "rank(age=%d) = %.0f drifted from rank(0) = %.0f" age r r0)
    [ 500; 2_500; 10_000; 25_000 ]

let suite =
  [
    Alcotest.test_case "of_spec accepts the frontier" `Quick test_of_spec_valid;
    Alcotest.test_case "of_spec rejects malformed specs" `Quick test_of_spec_invalid;
    Alcotest.test_case "srpt-noisy sigma=0 bit-identical to srpt" `Quick
      test_noisy_sigma_zero_identical;
    Alcotest.test_case "srpt-noisy sigma=2 perturbs the schedule" `Quick
      test_noisy_sigma_two_differs;
    Alcotest.test_case "srpt-kv estimates per-class means" `Quick
      test_srpt_kv_estimates_class_means;
    Alcotest.test_case "srpt-kv on constant sizes bit-identical to srpt" `Quick
      test_srpt_kv_fixed_identical_to_srpt;
    Alcotest.test_case "srpt-kv diverges under intra-class dispersion" `Quick
      test_srpt_kv_dispersion_differs;
    Alcotest.test_case "SRPT mean sojourn beats FCFS on high dispersion" `Slow
      test_srpt_mean_sojourn_beats_fcfs;
    Alcotest.test_case "gittins degenerates to SRPT for Fixed" `Quick
      test_gittins_fixed_is_srpt;
    Alcotest.test_case "gittins rank flat for Exponential" `Quick
      test_gittins_exponential_is_flat;
  ]
