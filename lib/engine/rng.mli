(** Deterministic pseudo-random number generation for simulations.

    The generator is xoshiro256** seeded through splitmix64, so a single
    integer seed reproduces an entire experiment. Every distribution used by
    the workload generators and cost models lives here so that all
    randomness flows through one audited interface. *)

type t
(** Generator state. Mutable; not thread-safe (simulations are
    single-threaded and deterministic by design). *)

val create : seed:int -> t
(** [create ~seed] builds a generator whose stream is a pure function of
    [seed]. *)

val split : t -> t
(** [split t] derives an independent generator from [t]'s stream, advancing
    [t]. Used to give each simulation component its own stream so that
    adding draws in one component does not perturb another. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val int : t -> bound:int -> int
(** Uniform integer in [0, bound). [bound] must be positive. *)

val bool : t -> bool
(** Fair coin flip. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean (> 0). *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian sample (Box–Muller). *)

val normal_positive : t -> mu:float -> sigma:float -> float
(** One-sided Gaussian: resamples until the value is >= [mu]. Models
    mechanisms that can only be late, never early (the paper's one-sided
    N(quantum, sigma) preemption-lateness model, Fig. 5). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal sample: [exp (normal ~mu ~sigma)]. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto sample with minimum [scale] and tail index [shape]. *)

val categorical : t -> weights:float array -> int
(** Index drawn proportionally to [weights] (non-negative, not all zero). *)
