(** Load-balancer request hedging (Dean & Barroso, "The Tail at Scale").

    A hedging policy decides {e when} the balancer should duplicate a
    not-yet-completed request onto a second server. The cluster layer owns
    the duplicate-and-cancel mechanics (first completion wins, the loser is
    cancelled through the server's preemption machinery); this module only
    picks the delay:

    - [Fixed]: hedge any request still incomplete after a constant delay;
    - [Percentile]: hedge past the observed p-th percentile {e slowdown}
      (sojourn normalized by the request's own service estimate), from an
      online estimator fed by completed requests — the classic "defer to
      the tail percentile" rule, stated in the slowdown units the paper's
      SLO uses so the trigger scales to short and long requests alike, and
      capping duplicate load at roughly [100 - p] percent;
    - [Adaptive]: percentile-triggered (p97, a little ahead of the SLO
      tail) but additionally capped by an explicit duplicate budget,
      expressed as a fraction of primary dispatches — the knob production
      systems actually expose. *)

type t =
  | Off
  | Fixed of { delay_ns : int }
  | Percentile of { pct : float }  (** in (0, 100) *)
  | Adaptive of { budget : float }  (** max duplicates / primaries, in (0, 1] *)

val name : t -> string

val validate : t -> (unit, string) result
(** [Ok ()] when every parameter is in range: a non-negative fixed delay, a
    percentile in (0, 100), a budget in (0, 1] ([nan] is never in range).
    Otherwise an error naming the spec. {!of_string} and the tiers'
    constructors ([Cluster.make], [Raft.homogeneous]) apply it. *)

val of_string : string -> (t, string) result
(** Parses ["off" | "fixed:<ns>" | "pct:<p>" | "adaptive:<budget>"], then
    {!validate}s the result. *)

val all_names : string list

type estimator
(** Online slowdown-distribution estimate (log-bucketed histogram of
    sojourn / service, in milli-units). *)

val make_estimator : unit -> estimator

val observe : estimator -> sojourn_ns:int -> service_ns:int -> unit
(** Feed one completed request's end-to-end sojourn and service demand. *)

val min_samples : int
(** Completions required before percentile-based policies start hedging. *)

val delay_ns : t -> estimator -> estimate_ns:int -> lead_ns:int -> int option
(** Hedge delay to arm at dispatch time for a request whose service
    estimate is [estimate_ns], or [None] when this policy does not hedge
    right now (disabled, or the estimator is still cold). Percentile
    delays scale with the estimate and are {e deadline-aware}: [lead_ns]
    (the wire-plus-redo time a duplicate needs to finish) is subtracted so
    the backup can complete by the targeted percentile slowdown rather
    than merely start there. [Fixed] ignores both. *)

val within_budget : t -> hedges:int -> primaries:int -> bool
(** Whether issuing one more duplicate keeps the policy inside its budget
    ([Adaptive]); unconditionally true for fixed/percentile hedging. *)
