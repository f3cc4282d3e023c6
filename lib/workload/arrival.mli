(** Open-loop arrival processes.

    The paper's client "sends requests according to a Poisson process …
    to mimic the bursty behavior of production traffic" (§5.1). The uniform
    process is provided for controlled experiments (Figs. 2, 12, 15 feed a
    fixed stream of back-to-back requests). *)

type t =
  | Poisson of { rate_rps : float }  (** exponential inter-arrival gaps *)
  | Uniform of { rate_rps : float }  (** deterministic, evenly spaced *)
  | Burst_poisson of { rate_rps : float; burst : int }
      (** Poisson batch arrivals: [burst] requests land together at each
          epoch; epochs arrive at [rate_rps / burst]. Models coalesced NIC
          batches and stresses tail behaviour. *)
  | Diurnal of { rate_rps : float; amplitude : float; period_s : float }
      (** Poisson with a sinusoidal rate envelope:
          [rate(i) = rate_rps * (1 + amplitude * sin phase)], phase advancing
          with expected elapsed time — a compressed day/night ramp.
          [amplitude] in [0, 1); long-run average stays [rate_rps]. *)
  | Mmpp of { rate_rps : float; burst_factor : float; cycle : int; duty : float }
      (** Markov-modulated Poisson, discretized per arrival: within every
          [cycle] arrivals, the first [duty] fraction come [burst_factor]x
          faster than the mean and the rest proportionally slower, so the
          long-run rate is exactly [rate_rps]. Models correlated flash
          crowds ([burst_factor] >= ~5 at short [duty]) without breaking
          rate comparability across generators. *)

val rate_rps : t -> float
(** Long-run offered load in requests per second. *)

val validate : t -> unit
(** Raises [Invalid_argument], with a message naming the rate, unless the
    rate is finite and positive and its mean gap fits in an [int] of
    nanoseconds. The run entry points call it once before simulating. *)

val next_gap_ns : t -> Repro_engine.Rng.t -> index:int -> int
(** Nanoseconds between arrival number [index] and arrival [index + 1]
    (both 0-based). Burst processes return 0 inside a batch. *)

val name : t -> string

val with_rate : t -> float -> t
(** Same process shape at a different offered load. *)

val of_spec : string -> rate_rps:float -> (t, string) result
(** Parses a CLI arrival spec:
    ["poisson" | "uniform" | "burst:N" | "diurnal:AMP:PERIOD_S" |
     "mmpp:FACTOR:CYCLE:DUTY"]. *)
