(** One in-flight request and its execution progress.

    Progress is measured in nanoseconds of *un-instrumented* service time
    (the paper's slowdown denominator); the server converts progress to
    wall time through the instrumentation multiplier of whatever thread is
    executing the request. *)

type t = {
  id : int;  (** arrival order, 0-based *)
  class_id : int;  (** index into the workload mix *)
  arrival_ns : int;  (** arrival at the server *)
  service_ns : int;  (** total un-instrumented work *)
  lock_windows : (int * int) array;
      (** sorted, disjoint [start, stop) windows of progress during which
          safety-first preemption is deferred (§3.1) *)
  probe_spacing_ns : float;  (** 0 = cost-model default *)
  mutable estimate_ns : int;
      (** the scheduler's size estimate; defaults to [service_ns] (exact
          demand) and is perturbed once at arrival by the server when the
          policy is {!Policy.Srpt_noisy} — policies order by this, never by
          the true size *)
  mutable done_ns : int;  (** completed progress *)
  mutable started : bool;
  mutable dispatcher_owned : bool;
      (** the work-conserving dispatcher has executed (part of) this request
          under its rdtsc instrumentation (§3.3); it may still hand the
          saved context back to an idle worker via the central queue *)
  mutable last_worker : int;  (** worker that last ran it, or -1 *)
  mutable preemptions : int;
  mutable completion_ns : int;  (** -1 until completed *)
  mutable cancelled : bool;
      (** the balancer revoked this request (losing hedge leg); the server
          discards it at the next touch instead of running it further *)
  hedge_of : int;
      (** id of the primary request this is a hedge duplicate of, or -1 for
          a primary; duplicates share the primary's arrival and profile but
          carry a fresh id so per-leg progress stays separate *)
}

val create :
  id:int -> arrival_ns:int -> profile:Repro_workload.Mix.profile -> t

val hedge_dup : t -> id:int -> t
(** A duplicate of [primary] for hedged dispatch: shares its arrival time
    and service profile, carries the fresh [id], and points back via
    [hedge_of]. Progress, estimate and cancellation state start clean. *)

val origin_id : t -> int
(** The arrival this leg accounts against: [hedge_of] for a duplicate,
    [id] otherwise. Warmup filtering and per-request metrics key on this
    so hedging never changes which arrivals are measured. *)

val remaining_ns : t -> int
val is_complete : t -> bool

val defer_past_locks : t -> int -> int
(** [defer_past_locks t p] is the earliest progress >= [p] at which the
    request may be preempted: [p] itself when outside every lock window,
    otherwise the end of the window containing [p] (clamped to
    [service_ns]). *)

val stop_point :
  t ->
  seg_start_ns:int ->
  seg_start_progress:int ->
  mult:float ->
  completion_at:int ->
  candidate:int ->
  (int * int) option
(** Where a preemption wished for at wall time [candidate] stops a
    segment that started at [seg_start_ns] with [seg_start_progress] done,
    runs [mult] ns of wall time per ns of progress and completes at
    [completion_at]: [Some (stop_time, stop_progress)], with the stop
    deferred past any lock window ({!defer_past_locks}) and never before
    [candidate]; or [None] when the request would complete first. *)

val probe_spacing : t -> default:float -> float
(** The request's mean probe spacing, or [default] (the cost model's) when
    its profile leaves it at 0. *)

val sojourn_ns : t -> int
(** Completion minus arrival. Raises if not complete. *)

val slowdown : t -> float
(** Sojourn divided by un-instrumented service time (>= 1 in any sane
    schedule). Raises if not complete. *)
