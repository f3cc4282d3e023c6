(* A one-field all-float record is stored flat, so [add] updates the
   running sum in place; a float field of the mixed record [t] would box a
   fresh float on every add. *)
type cell = { mutable v : float }

type t = {
  mutable data : float array;
  mutable size : int;
  sum : cell; (* the samples summed in the order [add] saw them *)
}

let create ?(capacity = 1024) () =
  { data = Array.make (max capacity 1) 0.0; size = 0; sum = { v = 0.0 } }

let add t x =
  if t.size = Array.length t.data then begin
    let bigger = Array.make (2 * t.size) 0.0 in
    Array.blit t.data 0 bigger 0 t.size;
    t.data <- bigger
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sum.v <- t.sum.v +. x

let count t = t.size
let is_empty t = t.size = 0
let mean t = if t.size = 0 then 0.0 else t.sum.v /. float_of_int t.size

(* In-place sort and select over [a.(lo..hi)] specialised to float
   arrays. Going through [Array.sort Float.compare] boxes both floats on
   every comparison (the closure takes them as [float] arguments through a
   generic call), which once made percentile queries the second-hottest
   path in the whole simulator; direct [<] comparisons on an unboxed float
   array cost one instruction each. Samples are finite (slowdowns,
   latencies, shares), so NaN ordering is not a concern; for all-finite
   data the result is exactly what [Float.compare] would produce. *)
let swap (a : float array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let insertion_sort (a : float array) lo hi =
  for i = lo + 1 to hi do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Median-of-three pivot, then a Hoare partition of [a.(lo..hi)] (at least
   three samples). Returns [j], lo <= j < hi: every sample in [lo..j] is <=
   the pivot and every sample in [j+1..hi] is >= it. *)
let partition (a : float array) lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if a.(mid) < a.(lo) then swap a lo mid;
  if a.(hi) < a.(lo) then swap a lo hi;
  if a.(hi) < a.(mid) then swap a mid hi;
  let pivot = a.(mid) in
  let i = ref lo and j = ref hi in
  while !i <= !j do
    while a.(!i) < pivot do
      incr i
    done;
    while a.(!j) > pivot do
      decr j
    done;
    if !i <= !j then begin
      swap a !i !j;
      incr i;
      decr j
    end
  done;
  !j

(* Heapsort of [a.(lo..hi)]: O(n log n) on any input. *)
let heapsort (a : float array) lo hi =
  let rec sift root len =
    let child = (2 * root) + 1 in
    if child < len then begin
      let child =
        if child + 1 < len && a.(lo + child) < a.(lo + child + 1) then child + 1 else child
      in
      if a.(lo + root) < a.(lo + child) then begin
        swap a (lo + root) (lo + child);
        sift child len
      end
    end
  in
  let n = hi - lo + 1 in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    swap a lo (lo + last);
    sift 0 last
  done

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* Introsort: quicksort that recurses on the smaller side first, so the
   stack stays logarithmic, and hands a range to heapsort once [depth]
   partitions have not brought it down to insertion-sort size. A crafted
   input can defeat the median-of-three pivots (McIlroy's adversary
   makes every partition split off two samples); the depth limit of
   2 log2 n bounds the whole sort at O(n log n) anyway. *)
let rec intro_sort (a : float array) lo hi ~depth =
  if hi - lo < 32 then insertion_sort a lo hi
  else if depth = 0 then heapsort a lo hi
  else begin
    let j = partition a lo hi in
    let depth = depth - 1 in
    if j - lo < hi - j then begin
      intro_sort a lo j ~depth;
      intro_sort a (j + 1) hi ~depth
    end
    else begin
      intro_sort a (j + 1) hi ~depth;
      intro_sort a lo j ~depth
    end
  end

let sort_range a lo hi = intro_sort a lo hi ~depth:(2 * log2 (hi - lo + 1))

(* Introselect: put the [k]-th smallest sample of [a.(lo..hi)] at [a.(k)],
   with everything in [lo..k-1] <= it and everything in [k+1..hi] >= it.
   Each partition keeps only the side holding [k]; once [budget]
   partitions have not narrowed the range to insertion-sort size, the
   pivots are bad for this input and the rest of the range is sorted
   instead: at worst [budget] partition passes on top of a full sort. *)
let rec select (a : float array) lo hi k ~budget =
  if hi - lo < 32 then insertion_sort a lo hi
  else if budget = 0 then sort_range a lo hi
  else begin
    let j = partition a lo hi in
    if k <= j then select a lo j k ~budget:(budget - 1)
    else select a (j + 1) hi k ~budget:(budget - 1)
  end

let sort_floats (a : float array) n = if n > 1 then sort_range a 0 (n - 1)

(* Nearest rank: the index, in sorted order, of the smallest sample such
   that at least p% of the samples are <= it. *)
let rank_index t who p =
  if t.size = 0 then invalid_arg (who ^ ": empty");
  if not (p >= 0.0 && p <= 100.0) then invalid_arg (who ^ ": p out of range");
  let rank = int_of_float (ceil ((p *. float_of_int t.size /. 100.0) -. 1e-9)) in
  Int.max 0 (Int.min (t.size - 1) (rank - 1))

(* Put the sample of sorted index [k] at [data.(k)], selecting within
   [data.(0..hi)]. *)
let select_rank t ~hi k = select t.data 0 hi k ~budget:(2 * log2 (hi + 1))

let percentile t p =
  let k = rank_index t "Stats.percentile" p in
  select_rank t ~hi:(t.size - 1) k;
  t.data.(k)

let percentiles t ps =
  let idx = Array.map (rank_index t "Stats.percentiles") ps in
  (* Highest rank first: a select leaves only samples <= its answer to its
     left, so each lower rank is selected within that prefix. *)
  let ranks = Array.copy idx in
  Array.sort (fun a b -> Int.compare b a) ranks;
  let hi = ref (t.size - 1) in
  Array.iter
    (fun k ->
      if k <= !hi then begin
        select_rank t ~hi:!hi k;
        hi := k - 1
      end)
    ranks;
  Array.map (fun k -> t.data.(k)) idx

let values t = Array.sub t.data 0 t.size

let merge_all ts =
  (* One allocation and one sort for the whole list. The sort fixes the
     order the merged mean sums the samples in, whatever order queries
     left each input's samples in. *)
  let n = List.fold_left (fun acc t -> acc + t.size) 0 ts in
  let data = Array.make (max n 1) 0.0 in
  let off = ref 0 in
  List.iter
    (fun t ->
      Array.blit t.data 0 data !off t.size;
      off := !off + t.size)
    ts;
  sort_floats data n;
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. data.(i)
  done;
  { data; size = n; sum = { v = !sum } }
