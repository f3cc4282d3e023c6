(** Sample collection and summary statistics.

    Experiments accumulate per-request samples (latency, slowdown) into a
    {!t} and then query percentiles. {!percentile} sorts the backing array
    once and reuses the sorted order until new samples arrive;
    {!percentiles} answers several ranks at once by selection, without a
    sort. The sort is an introsort (median-of-three quicksort that hands a
    range to heapsort after [2 log2 n] partitions), so both stay
    O(n log n) on any input, crafted ones included. Both reorder the stored samples; {!mean} and {!count} do not
    depend on that order. *)

type t
(** A growable collection of float samples. *)

val create : ?capacity:int -> unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool

val mean : t -> float
(** Arithmetic mean. 0 for an empty collection. The sum is kept as samples
    are added, in the order {!add} saw them, so percentile queries never
    change it. A collection made by {!merge} or {!merge_all} sums its
    samples in the order they are stored in the result. *)

val stddev : t -> float
(** Population standard deviation (divides by [n], not [n-1]). This is the
    convention throughout the library: {!Online.stddev} computes the same
    quantity, so the two are directly comparable on identical samples.
    0 for fewer than two samples. *)

val min_value : t -> float
(** Smallest sample. Raises [Invalid_argument] when empty. *)

val max_value : t -> float
(** Largest sample. Raises [Invalid_argument] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100]: nearest-rank percentile of the
    samples. Raises [Invalid_argument] when empty or [p] out of range.
    [percentile t 99.9] is the paper's p99.9 metric. *)

val percentiles : t -> float array -> float array
(** [percentiles t ps] is [Array.map (percentile t) ps], exactly, from one
    multi-rank introselect instead of a sort: the highest rank is selected
    first, and each lower one within the samples left of the previous
    answer. A select whose partitions keep failing to narrow its range
    sorts what is left of it, with the same introsort, after at most
    [2 log2 n] partition passes.
    [ps] may be in any order and repeat ranks. Leaves the samples partly
    ordered; a later {!percentile} still sorts them. Raises
    [Invalid_argument] when [t] is empty or a [p] is out of range. *)

val median : t -> float
(** [median t] is [percentile t 50.0]. *)

val sort_floats : float array -> int -> unit
(** [sort_floats a n] sorts [a.(0 .. n-1)] into ascending order in place,
    with the introsort {!percentile} uses: direct float comparisons, no
    boxing, O(n log n) on any input. On finite samples the result equals
    [Array.sort compare]'s. *)

val values : t -> float array
(** Copy of the samples in stored order: insertion order until a
    percentile query reorders them. *)

val merge : t -> t -> t
(** [merge a b] is a fresh collection with the samples of both. When both
    inputs are already in sorted state (e.g. each has answered a percentile
    query), the samples are combined with a linear two-way merge and the
    result is born sorted — a subsequent percentile query pays no sort.
    Otherwise samples are concatenated in insertion order. *)

val merge_all : t list -> t
(** [merge_all ts] is a fresh collection holding every sample of every input,
    built with a single allocation and a single sort (the result is born
    sorted, so a subsequent percentile query pays no sort). Equivalent to
    folding {!merge} over the list but never quadratic: folding re-copies the
    growing accumulator on each step. Inputs are not mutated.

    Degenerate inputs are well-defined, not traps: [merge_all []] (and a
    list of only-empty collections) is an ordinary empty collection —
    [is_empty] holds, [count] is [0], [mean]/[stddev] are [0.0], and
    {!percentile} raises [Invalid_argument] exactly as on any other empty
    collection. [merge_all [t]] is an independent copy of [t]. Callers
    summarizing a role with no members (e.g. the followers of a
    single-node group) can therefore merge first and guard once. *)

(** Online mean/variance accumulator (Welford) for streams where retaining
    samples is unnecessary. *)
module Online : sig
  type acc

  val create : unit -> acc
  val add : acc -> float -> unit
  val count : acc -> int
  val mean : acc -> float

  val stddev : acc -> float
  (** Population standard deviation, same convention as the top-level
      [stddev]: on identical samples the two agree (up to float
      rounding). *)
end
