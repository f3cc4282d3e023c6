(** Sample collection and summary statistics.

    Experiments accumulate per-request samples (latency, slowdown) into a
    {!t} and then query percentiles. Every rank is answered by an
    introselect over the stored samples, which reorders them in place; a
    select whose pivots keep failing sorts what is left of its range with
    an introsort (median-of-three quicksort that hands a range to heapsort
    after [2 log2 n] partitions), so a query stays O(n log n) on any input,
    crafted ones included. {!mean} and {!count} do not depend on the
    order. *)

type t
(** A growable collection of float samples. *)

val create : ?capacity:int -> unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool

val mean : t -> float
(** Arithmetic mean. 0 for an empty collection. The sum is kept as samples
    are added, in the order {!add} saw them, so percentile queries never
    change it. A collection made by {!merge_all} sums its samples in their
    sorted order. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100]: nearest-rank percentile of the
    samples, found by one select. Raises [Invalid_argument] when empty or
    [p] out of range. [percentile t 99.9] is the paper's p99.9 metric. *)

val percentiles : t -> float array -> float array
(** [percentiles t ps] is [Array.map (percentile t) ps], exactly, from one
    multi-rank introselect: the highest rank is selected first, and each
    lower one within the samples left of the previous answer. [ps] may be
    in any order and repeat ranks. Raises [Invalid_argument] when [t] is
    empty or a [p] is out of range. *)

val sort_floats : float array -> int -> unit
(** [sort_floats a n] sorts [a.(0 .. n-1)] into ascending order in place,
    with the introsort a select falls back on: direct float comparisons,
    no boxing, O(n log n) on any input. On finite samples the result
    equals [Array.sort compare]'s. *)

val values : t -> float array
(** Copy of the samples in stored order: insertion order until a
    percentile query reorders them. *)

val merge_all : t list -> t
(** [merge_all ts] is a fresh collection holding every sample of every
    input, built with a single allocation and stored sorted: the sort fixes
    the order its {!mean} sums them in, whatever order earlier queries left
    the inputs in. Inputs are not mutated.

    Degenerate inputs are well-defined, not traps: [merge_all []] (and a
    list of only-empty collections) is an ordinary empty collection —
    [is_empty] holds, [count] is [0], [mean] is [0.0], and {!percentile}
    raises [Invalid_argument] exactly as on any other empty collection.
    [merge_all [t]] is an independent copy of [t]. Callers summarizing a
    role with no members (e.g. the followers of a single-node group) can
    therefore merge first and guard once. *)
