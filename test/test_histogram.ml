(* Tests for the HDR-style log-bucketed histogram. *)

module Histogram = Repro_engine.Histogram

let test_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check int) "max_recorded" 0 (Histogram.max_recorded h);
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Histogram.percentile h 50.0))

let test_small_values_exact () =
  let h = Histogram.create ~significant_bits:7 () in
  List.iter (Histogram.record h) [ 3; 3; 5; 100 ];
  (* Values below 2^7 land in exact buckets. *)
  Alcotest.(check int) "p50 exact" 3 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100 exact" 100 (Histogram.percentile h 100.0)

let test_relative_error () =
  let h = Histogram.create ~significant_bits:7 () in
  let values = List.init 1000 (fun i -> 1_000 + (i * 9_999)) in
  List.iter (Histogram.record h) values;
  List.iter
    (fun p ->
      let est = Histogram.percentile h p in
      let sorted = List.sort compare values in
      let rank = int_of_float (ceil (p /. 100.0 *. 1000.0)) in
      let exact = List.nth sorted (max 0 (rank - 1)) in
      let err = Float.abs (float_of_int (est - exact)) /. float_of_int exact in
      if err > 0.02 then Alcotest.failf "p%.1f: est %d vs exact %d (err %.3f)" p est exact err)
    [ 50.0; 90.0; 99.0; 99.9 ]

let test_negative_rejected () =
  let h = Histogram.create () in
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Histogram.record: negative value") (fun () -> Histogram.record h (-1))

let test_clamping () =
  let h = Histogram.create ~max_value:1_000 () in
  Histogram.record h 1_000_000;
  Alcotest.(check int) "count" 1 (Histogram.count h);
  Alcotest.(check bool) "clamped below 2x max" true (Histogram.max_recorded h <= 2_048)

let test_mean_approx () =
  let h = Histogram.create () in
  for _ = 1 to 100 do
    Histogram.record h 10_000
  done;
  let err = Float.abs (Histogram.mean h -. 10_000.0) /. 10_000.0 in
  Alcotest.(check bool) "mean within 2%" true (err < 0.02)

let test_mean_exact_below_sub_bits () =
  (* Buckets below 2^significant_bits hold one integer each, so the mean
     over small values is exact. *)
  let h = Histogram.create ~significant_bits:7 () in
  List.iter (Histogram.record h) [ 3; 5; 10 ];
  Alcotest.(check (float 1e-9)) "exact mean" 6.0 (Histogram.mean h)

let test_mean_unbiased_within_bucket () =
  (* Regression: mean used to weight each bucket by its inclusive upper
     bound, overestimating by up to the bucket width. Fill one large bucket
     uniformly: the midpoint-weighted mean tracks the true mean to <0.1%,
     while upper-bound weighting was off by ~+0.8% (half a bucket). *)
  let h = Histogram.create ~significant_bits:7 () in
  (* With 7 sub_bits, v = 2^20 starts a bucket of width 2^14. *)
  let lower = 1 lsl 20 and width = 1 lsl 14 in
  let n = 256 in
  let step = width / n in
  let true_sum = ref 0 in
  for j = 0 to n - 1 do
    let v = lower + (j * step) in
    Histogram.record h v;
    true_sum := !true_sum + v
  done;
  let true_mean = float_of_int !true_sum /. float_of_int n in
  let err = Float.abs (Histogram.mean h -. true_mean) /. true_mean in
  if err > 0.001 then
    Alcotest.failf "mean %.1f vs true %.1f (rel err %.4f)" (Histogram.mean h) true_mean err

let test_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 100;
  Histogram.record b 10_000;
  Histogram.merge_into ~src:b ~dst:a;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check bool) "p100 from src" true (Histogram.percentile a 100.0 >= 10_000)

let prop_percentile_upper_bound =
  QCheck.Test.make ~count:200 ~name:"histogram percentile bounds the exact value from above"
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 1 1_000_000))
    (fun values ->
      let h = Repro_engine.Histogram.create () in
      List.iter (Repro_engine.Histogram.record h) values;
      let sorted = List.sort compare values in
      let n = List.length values in
      List.for_all
        (fun p ->
          let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
          let exact = List.nth sorted (max 0 (min (n - 1) (rank - 1))) in
          Repro_engine.Histogram.percentile h p >= exact)
        [ 50.0; 90.0; 99.0 ])

let test_nan_p_rejected () =
  let h = Histogram.create () in
  Histogram.record h 10;
  Alcotest.check_raises "NaN p" (Invalid_argument "Histogram.percentile: p out of range")
    (fun () -> ignore (Histogram.percentile h Float.nan))

(* [percentile] against its definition: bucket each recorded value (clamped
   at [max_value]) by the HDR layout, count the buckets, and scan the
   counts from the lowest bucket up to the nearest rank. *)
let model_upper ~bits ~max_value v =
  let v = min v max_value in
  if v < 1 lsl bits then v
  else begin
    let rec msb v = if v <= 1 then 0 else 1 + msb (v lsr 1) in
    let k = msb v - bits + 1 in
    (((v lsr k) + 1) lsl k) - 1
  end

let scan_percentile uppers p =
  let counts =
    List.fold_left
      (fun acc u ->
        match acc with (u', c) :: rest when u' = u -> (u, c + 1) :: rest | _ -> (u, 1) :: acc)
      [] (List.sort compare uppers)
    |> List.rev
  in
  let total = List.length uppers in
  let rank = max 1 (int_of_float (ceil ((p *. float_of_int total /. 100.0) -. 1e-9))) in
  let rec scan acc = function
    | [ (u, _) ] -> u
    | (u, c) :: rest -> if acc + c >= rank then u else scan (acc + c) rest
    | [] -> assert false
  in
  scan 0 counts

let ps_near = [ 0.0; 1e-9; 0.1; 49.99; 50.0; 50.01; 99.0; 99.9; 99.99; 100.0 ]

let gen_case =
  let open QCheck.Gen in
  let* bits = int_range 2 9 in
  let* max_value = oneof [ int_range 2 5_000; return 10_000_000_000 ] in
  let value =
    oneof [ int_range 0 300; int_range 0 1_000_000; int_range max_value (max_value + 1_000) ]
  in
  let* a = list_size (int_range 1 120) value in
  let* b = list_size (int_range 0 120) value in
  let* c = list_size (int_range 0 40) value in
  let* p = float_range 0.0 100.0 in
  return (bits, max_value, a, b, c, p)

let print_case (bits, max_value, a, b, c, p) =
  let ints l = String.concat "; " (List.map string_of_int l) in
  Printf.sprintf "bits %d, max_value %d, p %g\na [%s]\nb [%s]\nc [%s]" bits max_value p (ints a)
    (ints b) (ints c)

let prop_percentile_is_linear_scan =
  QCheck.Test.make ~count:300 ~name:"percentile equals a linear scan of the bucket counts"
    (QCheck.make ~print:print_case gen_case)
    (fun (bits, max_value, a, b, c, p) ->
      let create () = Histogram.create ~max_value ~significant_bits:bits () in
      let fill vs =
        let h = create () in
        List.iter (Histogram.record h) vs;
        h
      in
      let agrees h vs =
        let uppers = List.map (model_upper ~bits ~max_value) vs in
        List.for_all (fun p -> Histogram.percentile h p = scan_percentile uppers p) (p :: ps_near)
      in
      (* [a] recorded; [b] merged in; [c] recorded after the merge. *)
      let h = fill a in
      let ok_a = agrees h a in
      Histogram.merge_into ~src:(fill b) ~dst:h;
      let ok_merged = agrees h (a @ b) in
      List.iter (Histogram.record h) c;
      ok_a && ok_merged && agrees h (a @ b @ c))

let suite =
  [
    Alcotest.test_case "empty histogram" `Quick test_empty;
    Alcotest.test_case "small values are exact" `Quick test_small_values_exact;
    Alcotest.test_case "bounded relative error" `Quick test_relative_error;
    Alcotest.test_case "negative values rejected" `Quick test_negative_rejected;
    Alcotest.test_case "values clamp at max" `Quick test_clamping;
    Alcotest.test_case "approximate mean" `Quick test_mean_approx;
    Alcotest.test_case "mean exact on small values" `Quick test_mean_exact_below_sub_bits;
    Alcotest.test_case "mean unbiased within a bucket" `Quick test_mean_unbiased_within_bucket;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "NaN p rejected" `Quick test_nan_p_rejected;
    QCheck_alcotest.to_alcotest prop_percentile_upper_bound;
    QCheck_alcotest.to_alcotest prop_percentile_is_linear_scan;
  ]
