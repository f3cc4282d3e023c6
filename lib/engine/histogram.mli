(** Log-bucketed latency histogram (HDR-histogram style).

    Records non-negative integer values (nanoseconds in this codebase) into
    buckets whose width grows geometrically, giving a bounded relative
    quantile error with O(1) memory regardless of sample count. The hedge
    trigger keeps its slowdown estimate in one. *)

type t

val create : ?max_value:int -> ?significant_bits:int -> unit -> t
(** [create ()] covers values up to [max_value] (default 10^10 ns ≈ 10 s)
    with [significant_bits] bits of sub-bucket precision (default 7, i.e.
    < 1 % relative error). *)

val record : t -> int -> unit
(** Record one value. Values above [max_value] clamp to the top bucket;
    negative values raise [Invalid_argument]. *)

val count : t -> int
(** Total number of recorded values. *)

val percentile : t -> float -> int
(** [percentile t p] is an upper bound of the bucket containing the
    nearest-rank [p]-th percentile. Raises [Invalid_argument] when empty or
    [p] is out of [0, 100]. *)
