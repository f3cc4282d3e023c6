(** Zipfian (power-law) item popularity.

    Key-value workloads in production are famously skewed (YCSB's zipfian
    default, Meta's cache traces); the kvstore workload generators use this
    to draw hot keys. Sampling is O(log n) by binary search over the
    precomputed CDF. *)

type t

val create : n:int -> alpha:float -> t
(** Distribution over ranks [0, n): P(rank = k) proportional to
    1/(k+1)^alpha. [alpha = 0] is uniform. Raises [Invalid_argument] on
    [n] < 1 or a negative or NaN [alpha]. *)

val sample : t -> Rng.t -> int
(** Draw a rank in [0, n). Rank 0 is the most popular item. *)

val probability : t -> int -> float
(** Probability mass of a rank. *)
