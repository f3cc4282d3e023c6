(* Tests for service-time distributions, arrival processes, mixes, and the
   paper's workload presets. *)

module Rng = Repro_engine.Rng
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival
module Mix = Repro_workload.Mix
module Presets = Repro_workload.Presets

let sample_mean dist n =
  let rng = Rng.create ~seed:17 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Service_dist.sample dist rng
  done;
  !total /. float_of_int n

(* --- distributions ----------------------------------------------------- *)

let test_fixed () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10 do
    Alcotest.(check (float 0.0)) "fixed" 1000.0 (Service_dist.sample (Service_dist.Fixed 1000.0) rng)
  done

let test_bimodal_values_and_mean () =
  let d = Service_dist.Bimodal { p_short = 0.9; short_ns = 100.0; long_ns = 10_000.0 } in
  let rng = Rng.create ~seed:2 in
  for _ = 1 to 1000 do
    let s = Service_dist.sample d rng in
    if s <> 100.0 && s <> 10_000.0 then Alcotest.failf "unexpected bimodal value %f" s
  done;
  Alcotest.(check (float 1e-9)) "analytic mean" 1090.0 (Service_dist.mean_ns d);
  let m = sample_mean d 200_000 in
  Alcotest.(check bool) "MC mean within 2%" true (Float.abs (m -. 1090.0) /. 1090.0 < 0.02)

let test_discrete_mean () =
  let d = Service_dist.discrete [| (1.0, 10.0); (3.0, 20.0) |] in
  Alcotest.(check (float 1e-9)) "weighted mean" 17.5 (Service_dist.mean_ns d)

(* The binary search over precomputed cumulative weights must pick
   bit-identical indices to the left-to-right linear scan it replaced
   ([Rng.categorical]'s algorithm), including the last-slot roundoff
   fallback. Mirror two same-seed streams through both algorithms. *)
let test_discrete_matches_linear_scan () =
  let entries =
    Array.init 97 (fun i -> (1.0 +. float_of_int (i * 13 mod 7), float_of_int (10 + i)))
  in
  let d = Service_dist.discrete entries in
  let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 entries in
  let n = Array.length entries in
  let rng_fast = Rng.create ~seed:12 in
  let rng_ref = Rng.create ~seed:12 in
  let linear_pick () =
    let x = Rng.float rng_ref *. total in
    let rec go i acc =
      if i >= n - 1 then n - 1
      else
        let acc = acc +. fst entries.(i) in
        if x < acc then i else go (i + 1) acc
    in
    snd entries.(go 0 0.0)
  in
  for i = 1 to 50_000 do
    let got = Service_dist.sample d rng_fast in
    let want = linear_pick () in
    if got <> want then Alcotest.failf "draw %d: binary search %f, linear scan %f" i got want
  done

let test_exponential_mc_mean () =
  let d = Service_dist.Exponential { mean_ns = 5_000.0 } in
  let m = sample_mean d 200_000 in
  Alcotest.(check bool) "within 2%" true (Float.abs (m -. 5_000.0) /. 5_000.0 < 0.02)

let test_lognormal_mean () =
  let d = Service_dist.Lognormal { mu = 7.0; sigma = 0.5 } in
  let analytic = Service_dist.mean_ns d in
  let m = sample_mean d 300_000 in
  Alcotest.(check bool) "MC matches analytic within 2%" true
    (Float.abs (m -. analytic) /. analytic < 0.02)

let test_squared_cv () =
  (match Service_dist.squared_cv (Service_dist.Fixed 5.0) with
  | Some cv -> Alcotest.(check (float 1e-9)) "fixed scv" 0.0 cv
  | None -> Alcotest.fail "fixed has scv");
  (match Service_dist.squared_cv (Service_dist.Exponential { mean_ns = 10.0 }) with
  | Some cv -> Alcotest.(check (float 1e-6)) "exponential scv = 1" 1.0 cv
  | None -> Alcotest.fail "exp has scv");
  match Service_dist.squared_cv (Service_dist.Pareto { scale_ns = 1.0; shape = 1.5 }) with
  | None -> ()
  | Some _ -> Alcotest.fail "heavy pareto has no finite scv"

let test_scale () =
  let d = Service_dist.Bimodal { p_short = 0.5; short_ns = 10.0; long_ns = 100.0 } in
  let scaled = Service_dist.scale d 2.0 in
  Alcotest.(check (float 1e-9)) "mean doubles" (2.0 *. Service_dist.mean_ns d)
    (Service_dist.mean_ns scaled)

let test_trace () =
  let d = Service_dist.Trace [| 5.0; 15.0 |] in
  Alcotest.(check (float 1e-9)) "trace mean" 10.0 (Service_dist.mean_ns d);
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 100 do
    let s = Service_dist.sample d rng in
    if s <> 5.0 && s <> 15.0 then Alcotest.failf "trace sample %f" s
  done

let prop_samples_positive =
  QCheck.Test.make ~count:200 ~name:"all distribution samples are positive"
    QCheck.(pair (float_range 1.0 1e6) (float_range 1.0 1e6))
    (fun (a, b) ->
      let rng = Rng.create ~seed:4 in
      List.for_all
        (fun d -> Service_dist.sample d rng > 0.0)
        [
          Service_dist.Fixed a;
          Service_dist.Bimodal { p_short = 0.5; short_ns = a; long_ns = b };
          Service_dist.Exponential { mean_ns = a };
          Service_dist.Pareto { scale_ns = a; shape = 1.5 };
        ])

(* --- arrivals ----------------------------------------------------------- *)

let test_poisson_rate () =
  let a = Arrival.Poisson { rate_rps = 1.0e6 } in
  let rng = Rng.create ~seed:5 in
  let n = 200_000 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + Arrival.next_gap_ns a rng ~index:i
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean gap ~1000ns" true (Float.abs (mean -. 1000.0) < 20.0)

(* Integer gaps must be an unbiased rounding of the underlying exponential
   stream: mirror two same-seed streams, one through [next_gap_ns] and one
   through the raw [Rng.exponential] draws, and compare realized means.
   The old floor-truncation sat ~0.5 ns low — at 1M rps that inflates the
   realized rate by ~0.05%, visible in saturation sweeps. *)
let test_poisson_gap_rounding_unbiased () =
  let a = Arrival.Poisson { rate_rps = 1.0e6 } in
  let rng_int = Rng.create ~seed:11 in
  let rng_real = Rng.create ~seed:11 in
  let n = 200_000 in
  let sum_int = ref 0.0 and sum_real = ref 0.0 in
  for i = 0 to n - 1 do
    sum_int := !sum_int +. float_of_int (Arrival.next_gap_ns a rng_int ~index:i);
    sum_real := !sum_real +. Rng.exponential rng_real ~mean:1000.0
  done;
  let bias = (!sum_int -. !sum_real) /. float_of_int n in
  Alcotest.(check bool) "per-gap rounding bias under 0.1 ns" true (Float.abs bias < 0.1)

let test_uniform_gaps () =
  let a = Arrival.Uniform { rate_rps = 2.0e6 } in
  let rng = Rng.create ~seed:6 in
  Alcotest.(check int) "deterministic gap" 500 (Arrival.next_gap_ns a rng ~index:0)

let test_burst_pattern () =
  let a = Arrival.Burst_poisson { rate_rps = 1.0e6; burst = 4 } in
  let rng = Rng.create ~seed:7 in
  (* Indices 0,1,2 are inside the batch (gap 0); index 3 ends it. *)
  Alcotest.(check int) "intra-burst" 0 (Arrival.next_gap_ns a rng ~index:0);
  Alcotest.(check int) "intra-burst" 0 (Arrival.next_gap_ns a rng ~index:1);
  Alcotest.(check int) "intra-burst" 0 (Arrival.next_gap_ns a rng ~index:2);
  Alcotest.(check bool) "batch gap positive" true (Arrival.next_gap_ns a rng ~index:3 > 0)

let test_with_rate () =
  let a = Arrival.with_rate (Arrival.Poisson { rate_rps = 1.0 }) 5.0 in
  Alcotest.(check (float 1e-9)) "rate updated" 5.0 (Arrival.rate_rps a)

(* Modulated processes (diurnal ramp, MMPP flash crowds) reshape the
   arrival stream but must keep the long-run offered load comparable to
   plain Poisson — otherwise sweeps at "the same rate" would not be. *)
let realized_rate a ~n ~seed =
  let rng = Rng.create ~seed in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + Arrival.next_gap_ns a rng ~index:i
  done;
  float_of_int n /. (float_of_int !total /. 1.0e9)

let test_diurnal_rate_and_shape () =
  let a = Arrival.Diurnal { rate_rps = 1.0e6; amplitude = 0.8; period_s = 0.02 } in
  let r = realized_rate a ~n:200_000 ~seed:13 in
  Alcotest.(check bool)
    (Printf.sprintf "long-run rate %.0f within 5%% of 1e6" r)
    true
    (Float.abs (r -. 1.0e6) < 5.0e4);
  (* The envelope must actually modulate: gaps drawn near the peak of the
     sinusoid run measurably shorter than gaps near the trough. *)
  let rng = Rng.create ~seed:14 in
  let window = 5_000 in
  let mean_gap lo =
    let t = ref 0 in
    for i = lo to lo + window - 1 do
      t := !t + Arrival.next_gap_ns a rng ~index:i
    done;
    float_of_int !t /. float_of_int window
  in
  (* period 0.02 s at 1e6 rps = 20_000 arrivals per cycle: indices
     0..5000 climb toward the peak, 10_000..15_000 fall into the trough. *)
  let peak = mean_gap 0 in
  let trough = mean_gap 10_000 in
  Alcotest.(check bool)
    (Printf.sprintf "peak gaps %.0f < trough gaps %.0f" peak trough)
    true (peak < trough)

let test_mmpp_rate_and_burst () =
  let a =
    Arrival.Mmpp { rate_rps = 1.0e6; burst_factor = 8.0; cycle = 1_000; duty = 0.1 }
  in
  let r = realized_rate a ~n:200_000 ~seed:15 in
  Alcotest.(check bool)
    (Printf.sprintf "long-run rate %.0f within 5%% of 1e6" r)
    true
    (Float.abs (r -. 1.0e6) < 5.0e4);
  (* Inside the burst window gaps run ~burst_factor shorter than outside. *)
  let rng = Rng.create ~seed:16 in
  let burst_t = ref 0 and calm_t = ref 0 and burst_n = ref 0 and calm_n = ref 0 in
  for i = 0 to 99_999 do
    let gap = Arrival.next_gap_ns a rng ~index:i in
    if i mod 1_000 < 100 then (burst_t := !burst_t + gap; incr burst_n)
    else (calm_t := !calm_t + gap; incr calm_n)
  done;
  let burst_mean = float_of_int !burst_t /. float_of_int !burst_n in
  let calm_mean = float_of_int !calm_t /. float_of_int !calm_n in
  Alcotest.(check bool)
    (Printf.sprintf "burst gaps %.0f at least 3x shorter than calm %.0f" burst_mean
       calm_mean)
    true
    (calm_mean > 3.0 *. burst_mean)

let test_arrival_of_spec () =
  let ok spec f =
    match Arrival.of_spec spec ~rate_rps:1.0e6 with
    | Ok a -> Alcotest.(check bool) spec true (f a)
    | Error e -> Alcotest.failf "%s rejected: %s" spec e
  in
  ok "poisson" (function Arrival.Poisson { rate_rps } -> rate_rps = 1.0e6 | _ -> false);
  ok "uniform" (function Arrival.Uniform _ -> true | _ -> false);
  ok "burst:8" (function Arrival.Burst_poisson { burst; _ } -> burst = 8 | _ -> false);
  ok "diurnal:0.5:10" (function
    | Arrival.Diurnal { amplitude; period_s; _ } -> amplitude = 0.5 && period_s = 10.0
    | _ -> false);
  ok "mmpp:8:1000:0.1" (function
    | Arrival.Mmpp { burst_factor; cycle; duty; _ } ->
      burst_factor = 8.0 && cycle = 1_000 && duty = 0.1
    | _ -> false);
  let rejected s =
    match Arrival.of_spec s ~rate_rps:1.0e6 with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "garbage rejected" true (rejected "weibull");
  Alcotest.(check bool) "diurnal amplitude >= 1 rejected" true (rejected "diurnal:1.5:10");
  Alcotest.(check bool) "mmpp duty out of range rejected" true (rejected "mmpp:8:1000:1.5")

(* --- mixes ----------------------------------------------------------- *)

let test_mix_class_proportions () =
  let mix =
    Mix.of_classes ~name:"two"
      [|
        Mix.simple_class ~name:"a" ~weight:0.25 ~dist:(Service_dist.Fixed 1.0);
        Mix.simple_class ~name:"b" ~weight:0.75 ~dist:(Service_dist.Fixed 2.0);
      |]
  in
  let rng = Rng.create ~seed:8 in
  let counts = Array.make 2 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let p = Mix.sample mix rng in
    counts.(p.Mix.class_id) <- counts.(p.Mix.class_id) + 1
  done;
  let frac = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool) "class weights respected" true (Float.abs (frac -. 0.25) < 0.01)

let test_mix_mean () =
  let mix =
    Mix.of_classes ~name:"two"
      [|
        Mix.simple_class ~name:"a" ~weight:1.0 ~dist:(Service_dist.Fixed 100.0);
        Mix.simple_class ~name:"b" ~weight:3.0 ~dist:(Service_dist.Fixed 200.0);
      |]
  in
  Alcotest.(check (float 1e-9)) "weighted mean" 175.0 (Mix.mean_service_ns mix)

let test_mix_validation () =
  Alcotest.check_raises "no classes" (Invalid_argument "Mix.of_classes: no classes")
    (fun () -> ignore (Mix.of_classes ~name:"x" [||]));
  Alcotest.check_raises "bad weight" (Invalid_argument "Mix.of_classes: non-positive weight")
    (fun () ->
      ignore
        (Mix.of_classes ~name:"x"
           [| Mix.simple_class ~name:"a" ~weight:0.0 ~dist:(Service_dist.Fixed 1.0) |]))

(* A NaN weight sent every request to the last class and made the mean
   NaN; an infinite one starved its class. *)
let test_mix_refuses_non_finite_weight () =
  List.iter
    (fun (weight, shown) ->
      Alcotest.check_raises shown
        (Invalid_argument
           (Printf.sprintf "Mix.of_classes: class \"b\" weight %s is not finite" shown))
        (fun () ->
          ignore
            (Mix.of_classes ~name:"x"
               [|
                 Mix.simple_class ~name:"a" ~weight:1.0 ~dist:(Service_dist.Fixed 1.0);
                 Mix.simple_class ~name:"b" ~weight ~dist:(Service_dist.Fixed 2.0);
               |])))
    [ (Float.nan, "nan"); (Float.infinity, "inf") ]

(* --- paper presets -------------------------------------------------------- *)

let test_preset_parameters () =
  (* 5.2's workloads, in nanoseconds. *)
  Alcotest.(check (float 1.0)) "YCSB-A mean 50.5us" 50_500.0 (Mix.mean_service_ns Presets.ycsb_a);
  Alcotest.(check (float 1.0)) "USR mean ~3us" 2_997.5 (Mix.mean_service_ns Presets.usr);
  Alcotest.(check (float 1.0)) "Fixed(1)" 1_000.0 (Mix.mean_service_ns Presets.fixed_1us);
  Alcotest.(check (float 5.0)) "TPCC mean ~19.1us" 19_064.0 (Mix.mean_service_ns Presets.tpcc);
  Alcotest.(check int) "TPCC classes" 5 (Array.length Presets.tpcc.Mix.classes);
  Alcotest.(check string) "TPCC class name" "NewOrder" (Mix.class_name Presets.tpcc 2)

let test_preset_lookup () =
  List.iter
    (fun name ->
      match Presets.by_name name with
      | Some _ -> ()
      | None -> Alcotest.failf "missing preset %s" name)
    [ "ycsb-a"; "usr"; "fixed-1"; "tpcc"; "leveldb-get-scan"; "zippydb" ];
  Alcotest.(check bool) "unknown preset" true (Presets.by_name "nope" = None)

let suite =
  [
    Alcotest.test_case "fixed distribution" `Quick test_fixed;
    Alcotest.test_case "bimodal values and mean" `Slow test_bimodal_values_and_mean;
    Alcotest.test_case "discrete weighted mean" `Quick test_discrete_mean;
    Alcotest.test_case "discrete search matches linear scan" `Slow
      test_discrete_matches_linear_scan;
    Alcotest.test_case "exponential MC mean" `Slow test_exponential_mc_mean;
    Alcotest.test_case "lognormal analytic vs MC mean" `Slow test_lognormal_mean;
    Alcotest.test_case "squared CV" `Quick test_squared_cv;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "trace distribution" `Quick test_trace;
    QCheck_alcotest.to_alcotest prop_samples_positive;
    Alcotest.test_case "poisson rate" `Slow test_poisson_rate;
    Alcotest.test_case "poisson gap rounding unbiased" `Slow test_poisson_gap_rounding_unbiased;
    Alcotest.test_case "uniform gaps" `Quick test_uniform_gaps;
    Alcotest.test_case "burst pattern" `Quick test_burst_pattern;
    Alcotest.test_case "with_rate" `Quick test_with_rate;
    Alcotest.test_case "diurnal long-run rate and modulation" `Slow
      test_diurnal_rate_and_shape;
    Alcotest.test_case "mmpp long-run rate and burstiness" `Slow test_mmpp_rate_and_burst;
    Alcotest.test_case "arrival spec parsing" `Quick test_arrival_of_spec;
    Alcotest.test_case "mix class proportions" `Slow test_mix_class_proportions;
    Alcotest.test_case "mix weighted mean" `Quick test_mix_mean;
    Alcotest.test_case "mix validation" `Quick test_mix_validation;
    Alcotest.test_case "mix refuses a NaN or infinite weight" `Quick
      test_mix_refuses_non_finite_weight;
    Alcotest.test_case "paper preset parameters" `Quick test_preset_parameters;
    Alcotest.test_case "preset lookup" `Quick test_preset_lookup;
  ]
