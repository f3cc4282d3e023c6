(* Tests for the deterministic RNG and its distributions. *)

module Rng = Repro_engine.Rng

let test_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_split_independence () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let c1 = Rng.bits64 child in
  (* Re-derive: same parent seed, same split point, same child stream. *)
  let parent' = Rng.create ~seed:7 in
  let child' = Rng.split parent' in
  Alcotest.(check int64) "split is deterministic" c1 (Rng.bits64 child')

let test_float_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_int_bounds () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng ~bound:7 in
    if x < 0 || x >= 7 then Alcotest.failf "int out of range: %d" x
  done;
  Alcotest.check_raises "bound must be positive"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng ~bound:0))

let mean_of n f =
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. f ()
  done;
  !total /. float_of_int n

let test_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let m = mean_of 100_000 (fun () -> Rng.exponential rng ~mean:250.0) in
  Alcotest.(check bool) "mean within 2%" true (Float.abs (m -. 250.0) < 5.0)

let test_normal_moments () =
  let rng = Rng.create ~seed:6 in
  let n = 100_000 in
  let samples = Array.init n (fun _ -> Rng.normal rng ~mu:10.0 ~sigma:3.0) in
  let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
  let var =
    Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.0)) 0.0 samples /. float_of_int n
  in
  Alcotest.(check bool) "mean ~10" true (Float.abs (mean -. 10.0) < 0.05);
  Alcotest.(check bool) "sigma ~3" true (Float.abs (sqrt var -. 3.0) < 0.05)

let test_normal_positive_one_sided () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let x = Rng.normal_positive rng ~mu:5.0 ~sigma:2.0 in
    if x < 5.0 then Alcotest.failf "one-sided sample below mu: %f" x
  done

let test_pareto_support () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 10_000 do
    let x = Rng.pareto rng ~scale:2.0 ~shape:1.5 in
    if x < 2.0 then Alcotest.failf "pareto below scale: %f" x
  done

let test_categorical_weights () =
  let rng = Rng.create ~seed:9 in
  let counts = Array.make 3 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.categorical rng ~weights:[| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "w0 ~0.1" true (Float.abs (frac 0 -. 0.1) < 0.01);
  Alcotest.(check bool) "w1 ~0.2" true (Float.abs (frac 1 -. 0.2) < 0.01);
  Alcotest.(check bool) "w2 ~0.7" true (Float.abs (frac 2 -. 0.7) < 0.01)

let test_categorical_rejects_zero () =
  let rng = Rng.create ~seed:10 in
  Alcotest.check_raises "zero weights rejected"
    (Invalid_argument "Rng.categorical: weights must sum to a positive value") (fun () ->
      ignore (Rng.categorical rng ~weights:[| 0.0; 0.0 |]))

let prop_lognormal_positive =
  QCheck.Test.make ~count:200 ~name:"lognormal samples are positive"
    QCheck.(pair (float_bound_exclusive 3.0) (float_bound_exclusive 2.0))
    (fun (mu, sigma) ->
      let rng = Rng.create ~seed:12 in
      Rng.lognormal rng ~mu ~sigma > 0.0)

let suite =
  [
    Alcotest.test_case "same seed, same stream" `Quick test_determinism;
    Alcotest.test_case "different seeds diverge" `Quick test_seed_sensitivity;
    Alcotest.test_case "split is deterministic" `Quick test_split_independence;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "int respects bounds" `Quick test_int_bounds;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "normal moments" `Slow test_normal_moments;
    Alcotest.test_case "normal_positive is one-sided" `Quick test_normal_positive_one_sided;
    Alcotest.test_case "pareto support" `Quick test_pareto_support;
    Alcotest.test_case "categorical follows weights" `Slow test_categorical_weights;
    Alcotest.test_case "categorical rejects all-zero" `Quick test_categorical_rejects_zero;
    QCheck_alcotest.to_alcotest prop_lognormal_positive;
  ]
