(* Tests for sample statistics and percentile computation. *)

module Stats = Repro_engine.Stats

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let of_list xs =
  let t = Stats.create () in
  List.iter (Stats.add t) xs;
  t

(* The nearest-rank sample of an ascending array. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let test_empty () =
  let t = Stats.create () in
  Alcotest.(check bool) "is_empty" true (Stats.is_empty t);
  Alcotest.(check (float 1e-9)) "mean of empty" 0.0 (Stats.mean t);
  Alcotest.check_raises "percentile of empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.percentile t 50.0))

let test_mean () =
  let t = of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean t)

(* The extreme ranks are the minimum and the maximum. *)
let test_min_max () =
  let t = of_list [ 3.0; -1.0; 7.5 ] in
  Alcotest.(check (float 1e-9)) "min" (-1.0) (Stats.percentile t 0.0);
  Alcotest.(check (float 1e-9)) "max" 7.5 (Stats.percentile t 100.0)

let test_percentile_nearest_rank () =
  let t = of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "p50 of 1..100" 50.0 (Stats.percentile t 50.0);
  Alcotest.(check (float 1e-9)) "p99 of 1..100" 99.0 (Stats.percentile t 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile t 100.0);
  Alcotest.(check (float 1e-9)) "p0 clamps to first" 1.0 (Stats.percentile t 0.0)

let test_percentile_after_growth () =
  let t = Stats.create ~capacity:1 () in
  for i = 1 to 1000 do
    Stats.add t (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p99.9 of 1..1000" 999.0 (Stats.percentile t 99.9)

let test_interleaved_add_query () =
  (* Percentile queries reorder in place; later adds must still be seen. *)
  let t = of_list [ 5.0; 1.0; 3.0 ] in
  ignore (Stats.percentile t 50.0);
  Stats.add t 100.0;
  Alcotest.(check (float 1e-9)) "new max visible" 100.0 (Stats.percentile t 100.0);
  Alcotest.(check int) "count" 4 (Stats.count t)

let test_merge () =
  let a = of_list [ 1.0; 2.0 ] and b = of_list [ 3.0 ] in
  let m = Stats.merge_all [ a; b ] in
  Alcotest.(check int) "merged count" 3 (Stats.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 2.0 (Stats.mean m)

let test_merge_sorted_inputs () =
  (* A percentile query leaves each input partly ordered; the merge must
     still come back fully sorted, interleaving the inputs. *)
  let a = of_list [ 5.0; 1.0; 3.0 ] and b = of_list [ 4.0; 2.0; 6.0 ] in
  ignore (Stats.percentile a 50.0);
  ignore (Stats.percentile b 50.0);
  let m = Stats.merge_all [ a; b ] in
  Alcotest.(check bool) "interleaved sorted values" true
    (Stats.values m = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |]);
  Alcotest.(check (float 1e-9)) "percentiles correct" 6.0 (Stats.percentile m 100.0);
  Alcotest.(check (float 1e-9)) "median correct" 3.0 (Stats.percentile m 50.0);
  (* A merged collection merges again like any other. *)
  let c = of_list [ 9.0; 7.0 ] in
  let m2 = Stats.merge_all [ m; c ] in
  Alcotest.(check int) "count" 8 (Stats.count m2);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.percentile m2 100.0)

let test_merge_all () =
  (* merge_all must hold exactly the inputs' samples, sorted, whether or
     not a query has reordered an input. *)
  let mk l = of_list l in
  let lists = [ [ 5.0; 1.0; 3.0 ]; []; [ 4.0; 2.0 ]; [ 6.0; 0.5; 7.5; 2.5 ] ] in
  let parts = List.map mk lists in
  (* Reorder one input with a query. *)
  ignore (Stats.percentile (List.nth parts 0) 50.0);
  let m = Stats.merge_all parts in
  let expected = Array.of_list (List.concat lists) in
  Array.sort Float.compare expected;
  Alcotest.(check int) "count" 9 (Stats.count m);
  Alcotest.(check (array (float 0.0))) "born sorted" expected (Stats.values m);
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f is the nearest rank" p)
        (nearest_rank expected p) (Stats.percentile m p))
    [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ];
  (* Inputs are untouched. *)
  Alcotest.(check int) "input count intact" 4 (Stats.count (List.nth parts 3));
  (* Degenerate cases. *)
  Alcotest.(check int) "empty list" 0 (Stats.count (Stats.merge_all []));
  Alcotest.(check (float 1e-9))
    "singleton" 3.0
    (Stats.percentile (Stats.merge_all [ mk [ 3.0 ] ]) 50.0)

let test_merge_all_degenerate () =
  (* The pinned contract for role summaries with no members: merging
     nothing is an ordinary empty collection, never a trap. *)
  let e = Stats.merge_all [] in
  Alcotest.(check bool) "merge_all [] is empty" true (Stats.is_empty e);
  Alcotest.(check int) "merge_all [] count" 0 (Stats.count e);
  Alcotest.(check (float 1e-9)) "merge_all [] mean" 0.0 (Stats.mean e);
  Alcotest.check_raises "merge_all [] percentile raises"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile e 99.0));
  (* A list of only-empty inputs behaves the same. *)
  let e2 = Stats.merge_all [ Stats.create (); Stats.create () ] in
  Alcotest.(check bool) "all-empty inputs merge to empty" true (Stats.is_empty e2);
  Alcotest.(check (float 1e-9)) "all-empty mean" 0.0 (Stats.mean e2);
  (* Singleton list: an independent copy of the one input. *)
  let src = of_list [ 7.0 ] in
  let s = Stats.merge_all [ src ] in
  Alcotest.(check int) "singleton count" 1 (Stats.count s);
  Alcotest.(check (float 1e-9)) "singleton p0" 7.0 (Stats.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "singleton p99" 7.0 (Stats.percentile s 99.0);
  Stats.add src 100.0;
  Alcotest.(check int) "copy independent of input" 1 (Stats.count s)

let test_values_insertion_order () =
  let t = of_list [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check bool) "values keep insertion order before a query" true
    (Stats.values t = [| 3.0; 1.0; 2.0 |])

let prop_percentile_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"percentile equals nearest-rank oracle"
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.0)) (int_range 0 100))
    (fun (xs, p) ->
      let t = of_list xs in
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let rank =
        int_of_float (ceil ((float_of_int p *. float_of_int n /. 100.0) -. 1e-9))
      in
      let idx = max 0 (min (n - 1) (rank - 1)) in
      feq (Stats.percentile t (float_of_int p)) (List.nth sorted idx))

let prop_sort_matches_float_compare =
  (* The monomorphic in-place select and sort must order exactly like
     [Array.sort Float.compare] on all-finite samples. [percentiles] must
     answer every rank as a test-side sort of the same samples does, for
     ranks asked in any order and queries interleaved with adds: each
     query [(at, ps)] runs after the first [at mod (n + 1)] adds, against
     a sort of the samples added so far. Sizes straddle the
     insertion-sort cutoff (32) and include heavy duplicates to hit every
     partition case. *)
  QCheck.Test.make ~count:200 ~name:"percentiles match Array.sort Float.compare oracle"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 400)
           (map (fun i -> float_of_int i /. 4.0) (int_range (-200) 200)))
        (small_list
           (pair small_nat
              (list_of_size (Gen.int_range 1 5)
                 (map (fun i -> float_of_int i /. 10.0) (int_range 0 1000))))))
    (fun (xs, queries) ->
      let n = List.length xs in
      let t = Stats.create () and added = ref [] in
      let selections_agree i =
        List.for_all
          (fun (at, ps) ->
            at mod (n + 1) <> i
            || Stats.is_empty t
            ||
            let sorted = Array.of_list !added in
            Array.sort Float.compare sorted;
            let ps = Array.of_list ps in
            Stats.percentiles t ps = Array.map (nearest_rank sorted) ps)
          queries
      in
      let agree = ref true in
      List.iteri
        (fun i x ->
          agree := !agree && selections_agree i;
          Stats.add t x;
          added := x :: !added)
        xs;
      !agree
      && selections_agree n
      &&
      let oracle = Array.of_list xs in
      Array.sort Float.compare oracle;
      List.for_all
        (fun p -> Stats.percentile t p = nearest_rank oracle p)
        [ 0.0; 10.0; 50.0; 90.0; 99.0; 99.9; 100.0 ]
      && Stats.values (Stats.merge_all [ t ]) = oracle)

(* 100k samples in shapes that defeat naive pivots. Selection, one rank at
   a time and several at once, must agree with a test-side sort and stay
   near-linear: a quadratic partition loop would spend seconds of CPU
   here, not milliseconds. *)
let test_percentiles_adversarial_100k () =
  let n = 100_000 in
  let ps = [| 50.0; 99.9; 0.0; 99.0; 100.0; 50.0 |] in
  let cpu f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  List.iter
    (fun (name, sample) ->
      let t = Stats.create () and one_by_one = Stats.create () in
      for i = 0 to n - 1 do
        Stats.add t (sample i);
        Stats.add one_by_one (sample i)
      done;
      let sorted = Array.init n sample in
      Array.sort Float.compare sorted;
      let expected = Array.map (nearest_rank sorted) ps in
      let got_one, one_s = cpu (fun () -> Array.map (Stats.percentile one_by_one) ps) in
      let got, select_s = cpu (fun () -> Stats.percentiles t ps) in
      Alcotest.(check (array (float 0.0))) (name ^ ", one rank at a time") expected got_one;
      Alcotest.(check (array (float 0.0))) name expected got;
      if one_s > 1.0 || select_s > 1.0 then
        Alcotest.failf "%s: %.2f s of CPU for one-rank selects, %.2f s for one multi-rank \
                        select of 100k samples" name one_s select_s)
    [
      ("sorted", float_of_int);
      ("reversed", fun i -> float_of_int (n - i));
      ("all-equal", fun _ -> 3.0);
      ("organ-pipe", fun i -> float_of_int (Int.min i (n - i)));
    ]

(* McIlroy's "A Killer Adversary for Quicksort" (Software: Practice and
   Experience 29(4), 1999), aimed at Stats' own partition. A replica of
   its quicksort (median-of-three pivot, Hoare partition, smaller side
   first, insertion sort below 32 samples, no depth limit) sorts item ids
   under a comparator that decides their values lazily: every item starts
   as "gas", above every decided value, and when two gas items meet, the
   one that is not the current pivot candidate is frozen at the next
   smallest value, which keeps each pivot as small as the comparisons
   allow. The decided values are an input on which the same quicksort
   makes the same comparisons. The replica stops after [rounds]
   partitions, each of which split off a few samples; the items still gas
   then take the next values in array order, which keeps every answer
   given so far. *)
exception Enough

type adversary = {
  value : int array;  (* by item id; [gas] while undecided *)
  gas : int;
  mutable solid : int;  (* the next value to decide *)
  mutable candidate : int;  (* the gas item last compared: the likely pivot *)
  mutable rounds_left : int;
}

let freeze k x =
  k.value.(x) <- k.solid;
  k.solid <- k.solid + 1

let cmp k x y =
  if k.value.(x) = k.gas && k.value.(y) = k.gas then
    if x = k.candidate then freeze k x else freeze k y;
  if k.value.(x) = k.gas then k.candidate <- x
  else if k.value.(y) = k.gas then k.candidate <- y;
  k.value.(x) - k.value.(y)

let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let replica_insertion k (a : int array) lo hi =
  for i = lo + 1 to hi do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && cmp k a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let replica_partition k (a : int array) lo hi =
  if k.rounds_left = 0 then raise Enough;
  k.rounds_left <- k.rounds_left - 1;
  let mid = lo + ((hi - lo) / 2) in
  if cmp k a.(mid) a.(lo) < 0 then swap a lo mid;
  if cmp k a.(hi) a.(lo) < 0 then swap a lo hi;
  if cmp k a.(hi) a.(mid) < 0 then swap a mid hi;
  let pivot = a.(mid) in
  let i = ref lo and j = ref hi in
  while !i <= !j do
    while cmp k a.(!i) pivot < 0 do
      incr i
    done;
    while cmp k a.(!j) pivot > 0 do
      decr j
    done;
    if !i <= !j then begin
      swap a !i !j;
      incr i;
      decr j
    end
  done;
  !j

let rec replica_sort k a lo hi =
  if hi - lo < 32 then replica_insertion k a lo hi
  else begin
    let j = replica_partition k a lo hi in
    if j - lo < hi - j then begin
      replica_sort k a lo j;
      replica_sort k a (j + 1) hi
    end
    else begin
      replica_sort k a (j + 1) hi;
      replica_sort k a lo j
    end
  end

let mcilroy_killer ~n ~rounds =
  let k = { value = Array.make n n; gas = n; solid = 0; candidate = -1; rounds_left = rounds } in
  let a = Array.init n Fun.id in
  (try replica_sort k a 0 (n - 1) with Enough -> ());
  Array.iter (fun x -> if k.value.(x) = k.gas then freeze k x) a;
  Array.map float_of_int k.value

let cpu_seconds f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* 2,000 adversarial partitions of ~100k samples: without a depth limit
   the sort (or the select's fallback sort) pays ~2e8 comparisons on this
   input, ~0.3 s; the heapsort backstop stops partitioning after
   2 log2 n = 32 and the whole sort costs ~10 ms. *)
let test_killer_input_100k () =
  let n = 100_000 in
  let killer = mcilroy_killer ~n ~rounds:2_000 in
  let expected = Array.copy killer in
  Array.sort Float.compare expected;
  let stats () =
    let t = Stats.create ~capacity:n () in
    Array.iter (Stats.add t) killer;
    t
  in
  let bound = 0.1 in
  let sorted, sort_s = cpu_seconds (fun () -> Stats.values (Stats.merge_all [ stats () ])) in
  Alcotest.(check bool) "sorts to Array.sort Float.compare's order" true (sorted = expected);
  let ps = [| 99.9; 99.0; 50.0; 0.0; 100.0 |] in
  let t = stats () in
  let got, select_s = cpu_seconds (fun () -> Stats.percentiles t ps) in
  let rank p =
    expected.(Int.max 0 (int_of_float (ceil ((p *. float_of_int n /. 100.0) -. 1e-9)) - 1))
  in
  Alcotest.(check (array (float 0.0))) "selects the sorted ranks" (Array.map rank ps) got;
  if sort_s > bound || select_s > bound then
    Alcotest.failf "killer input: %.3f s of CPU to sort, %.3f s to select (bound %.2f s)" sort_s
      select_s bound

(* The mean is the sum in insertion order. These samples sum to a
   different float in sorted order (the small ones are absorbed by 1e17),
   so a mean recomputed over the reordered samples would move. *)
let test_mean_independent_of_queries () =
  let t = of_list [ 0.1; 1e17; 0.2; -1e17; 0.3 ] in
  let bits () = Int64.bits_of_float (Stats.mean t) in
  let before = bits () in
  ignore (Stats.percentiles t [| 50.0; 99.0 |]);
  Alcotest.(check int64) "after percentiles" before (bits ());
  ignore (Stats.percentile t 50.0);
  Alcotest.(check int64) "after percentile" before (bits ());
  Stats.add t 0.4;
  Alcotest.(check (float 0.0)) "adds still counted" (0.7 /. 6.0) (Stats.mean t);
  (* A merged collection sums its samples as stored: sorted, for merge_all. *)
  Alcotest.(check (float 0.0)) "merge_all sums its sorted result" 0.0
    (Stats.mean (Stats.merge_all [ of_list [ 0.1; 1e17; 0.2; -1e17; 0.3 ] ]))

let test_nan_p_rejected () =
  let t = of_list [ 3.0; 1.0; 2.0 ] in
  Alcotest.check_raises "percentile" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile t Float.nan));
  Alcotest.check_raises "percentiles" (Invalid_argument "Stats.percentiles: p out of range")
    (fun () -> ignore (Stats.percentiles t [| 50.0; Float.nan |]))

let prop_sort_floats_prefix =
  QCheck.Test.make ~count:200 ~name:"sort_floats sorts the prefix as Array.sort compare does"
    QCheck.(pair (list (map float_of_int (int_range 0 50))) small_nat)
    (fun (xs, n) ->
      let a = Array.of_list xs in
      let n = min n (Array.length a) in
      let expected = Array.copy a in
      let head = Array.sub a 0 n in
      Array.sort compare head;
      Array.blit head 0 expected 0 n;
      Stats.sort_floats a n;
      a = expected)

let prop_mean_bounded =
  QCheck.Test.make ~count:300 ~name:"mean lies between min and max"
    QCheck.(list_of_size (Gen.int_range 1 60) (float_range (-50.0) 50.0))
    (fun xs ->
      let t = of_list xs in
      let m = Stats.mean t in
      m >= Stats.percentile t 0.0 -. 1e-9 && m <= Stats.percentile t 100.0 +. 1e-9)

let suite =
  [
    Alcotest.test_case "empty stats" `Quick test_empty;
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile_nearest_rank;
    Alcotest.test_case "percentile after array growth" `Quick test_percentile_after_growth;
    Alcotest.test_case "interleaved add and query" `Quick test_interleaved_add_query;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "merge keeps sorted invariant" `Quick test_merge_sorted_inputs;
    Alcotest.test_case "merge_all: sorted, percentile-invariant" `Quick test_merge_all;
    Alcotest.test_case "merge_all: empty/singleton pinned" `Quick test_merge_all_degenerate;
    Alcotest.test_case "values keep insertion order" `Quick test_values_insertion_order;
    Alcotest.test_case "percentiles on 100k adversarial inputs" `Quick
      test_percentiles_adversarial_100k;
    Alcotest.test_case "McIlroy killer input sorts and selects in O(n log n)" `Quick
      test_killer_input_100k;
    Alcotest.test_case "mean independent of percentile queries" `Quick
      test_mean_independent_of_queries;
    QCheck_alcotest.to_alcotest prop_percentile_matches_oracle;
    QCheck_alcotest.to_alcotest prop_sort_matches_float_compare;
    Alcotest.test_case "NaN p rejected" `Quick test_nan_p_rejected;
    QCheck_alcotest.to_alcotest prop_mean_bounded;
    QCheck_alcotest.to_alcotest prop_sort_floats_prefix;
  ]
