(* HDR-style histogram: values below 2^b are exact; above that, each power-
   of-two range is split into 2^(b-1) sub-buckets, bounding relative error
   by 2^-(b-1).

   Rank index. [tree] is a Fenwick (binary indexed) tree over [counts]:
   for 1 <= j <= n, [tree.(j)] sums the counts of the buckets in
   [j - lowbit j, j - 1], where [lowbit j = j land (-j)]; [tree.(0)] is
   unused. [record] adds one along the O(log n) nodes covering its bucket,
   and [merge_into] adds [src]'s tree entry by entry (the tree is linear in
   the counts, and both trees have the same shape). [percentile] then finds
   the bucket holding a rank by descending the tree in O(log n) instead of
   summing the counts from the lowest bucket: a pct: hedge trigger asks at
   every dispatch. *)

type t = {
  sub_bits : int;
  max_value : int;
  counts : int array;
  tree : int array; (* length [Array.length counts + 1] *)
  top : int; (* the largest power of two <= [Array.length counts] *)
  mutable total : int;
}

let msb v =
  (* Position of the most significant set bit of v >= 1. *)
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let create ?(max_value = 10_000_000_000) ?(significant_bits = 7) () =
  if significant_bits < 2 || significant_bits > 16 then
    invalid_arg "Histogram.create: significant_bits out of range";
  if max_value < 2 then invalid_arg "Histogram.create: max_value too small";
  let sub_bits = significant_bits in
  let sub_count = 1 lsl sub_bits in
  let half = sub_count / 2 in
  let k_max = max 1 (msb max_value - sub_bits + 1) in
  let buckets = sub_count + (k_max * half) in
  {
    sub_bits;
    max_value;
    counts = Array.make buckets 0;
    tree = Array.make (buckets + 1) 0;
    top = 1 lsl msb buckets;
    total = 0;
  }

let index t v =
  let sub_count = 1 lsl t.sub_bits in
  if v < sub_count then v
  else begin
    let half = sub_count / 2 in
    let k = msb v - t.sub_bits + 1 in
    let i = sub_count + ((k - 1) * half) + ((v lsr k) - half) in
    min i (Array.length t.counts - 1)
  end

(* Inclusive upper bound of the value range covered by bucket [i]. *)
let bucket_upper t i =
  let sub_count = 1 lsl t.sub_bits in
  if i < sub_count then i
  else begin
    let half = sub_count / 2 in
    let r = i - sub_count in
    let k = (r / half) + 1 in
    let off = r mod half in
    ((half + off + 1) lsl k) - 1
  end

(* Midpoint of the value range covered by bucket [i]: the unbiased
   representative for aggregate statistics. Exact buckets below
   2^sub_bits are their own midpoint. *)
let bucket_mid t i =
  let sub_count = 1 lsl t.sub_bits in
  if i < sub_count then float_of_int i
  else begin
    let half = sub_count / 2 in
    let r = i - sub_count in
    let k = (r / half) + 1 in
    let off = r mod half in
    let lower = (half + off) lsl k in
    let upper = ((half + off + 1) lsl k) - 1 in
    float_of_int (lower + upper) /. 2.0
  end

let record t v =
  if v < 0 then invalid_arg "Histogram.record: negative value";
  let v = min v t.max_value in
  let i = index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  let tree = t.tree in
  let rec bump j =
    if j < Array.length tree then begin
      Array.unsafe_set tree j (Array.unsafe_get tree j + 1);
      bump (j + (j land -j))
    end
  in
  bump (i + 1)

let count t = t.total

(* The smallest bucket whose cumulative count reaches [rank]: the descent
   keeps [pos] the largest tree index whose prefix sum is below [rank], so
   bucket [pos] (0-based) holds it. A rank above the total would end at
   [pos = n]; it maps to the top bucket, as a scan past the end would. *)
let percentile t p =
  if t.total = 0 then invalid_arg "Histogram.percentile: empty";
  if not (p >= 0.0 && p <= 100.0) then invalid_arg "Histogram.percentile: p out of range";
  let rank = max 1 (int_of_float (ceil ((p *. float_of_int t.total /. 100.0) -. 1e-9))) in
  let n = Array.length t.counts in
  let rec descend pos rem step =
    if step = 0 then pos
    else begin
      let j = pos + step in
      if j <= n && Array.unsafe_get t.tree j < rem then
        descend j (rem - Array.unsafe_get t.tree j) (step lsr 1)
      else descend pos rem (step lsr 1)
    end
  in
  bucket_upper t (min (descend 0 rank t.top) (n - 1))

let mean t =
  if t.total = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to Array.length t.counts - 1 do
      if t.counts.(i) > 0 then
        (* Weight by the bucket midpoint, not its upper bound: the upper
           bound overestimates the mean by up to the bucket width. *)
        sum := !sum +. (float_of_int t.counts.(i) *. bucket_mid t i)
    done;
    !sum /. float_of_int t.total
  end

let max_recorded t =
  let rec scan i = if i < 0 then 0 else if t.counts.(i) > 0 then bucket_upper t i else scan (i - 1) in
  scan (Array.length t.counts - 1)

let merge_into ~src ~dst =
  if
    src.sub_bits <> dst.sub_bits
    || Array.length src.counts <> Array.length dst.counts
  then invalid_arg "Histogram.merge_into: incompatible histograms";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  Array.iteri (fun j c -> dst.tree.(j) <- dst.tree.(j) + c) src.tree;
  dst.total <- dst.total + src.total
