(** The simulated microsecond-scale server.

    One dispatcher thread plus [n] worker threads, pinned to cores (§2.1).
    The dispatcher is a serial processor of micro-operations — network
    ingress, completion flags, re-enqueues, preemption signals, sends and
    JBSQ pushes — each costing cycles from the configured cost model. This
    is what produces the paper's emergent effects: workers stall on the
    synchronous single-queue hand-off (cnext, §2.2.2), preemption signals
    arrive late when the dispatcher is loaded (§3.3), and the dispatcher
    itself saturates for very short requests (Fig. 8a).

    Workers execute requests under the configured preemption mechanism.
    Progress, probe lateness, lock deferral and instrumentation slowdown
    follow the task model described in DESIGN.md §3. *)

type event
(** One instance-internal simulation step (a dispatcher micro-op finishing,
    a worker quantum elapsing, ...). Opaque: a host simulation receives
    values of this type only through the [lift] injection given to
    {!Instance.create} and must pass them back to {!Instance.handle}
    untouched. *)

(** An embeddable server instance: the same dispatcher/worker model as
    {!run}, but driven by an external {!Repro_engine.Sim} clock so several
    instances can interleave in one simulation (the rack-scale cluster
    layer). The host's {!Driver} owns arrival generation and the end of the
    run; the instance owns everything from NIC ingress to completion. *)
module Instance : sig
  type 'e t

  val create :
    sim:'e Repro_engine.Sim.t ->
    lift:(event -> 'e) ->
    config:Config.t ->
    warmup_before:int ->
    n_classes:int ->
    rng:Repro_engine.Rng.t ->
    ?speed_factor:float ->
    ?tracer:Tracing.t ->
    ?on_complete:(Request.t -> unit) ->
    ?on_cancelled:(Request.t -> unit) ->
    unit ->
    'e t
  (** [warmup_before] is the global request-id warm-up cutoff (ids are
      assigned by the host, so the cutoff is shared across instances).
      [rng] drives this instance's preemption-lateness draws — give each
      instance its own split stream. [speed_factor] > 1 models a straggler:
      dispatcher micro-ops and application execution take proportionally
      more wall time (1.0, the default, is the exact fast path). It must be
      finite, and one that scales an op cost past the int range raises.
      [on_complete] fires after each completion is recorded; [on_cancelled]
      fires exactly once per revoked request, when the instance actually
      discards it (its [done_ns] is the partial work wasted). *)

  val inject : 'e t -> Request.t -> unit
  (** Land a request in the instance's NIC queue at the current sim time.
      The request's [arrival_ns] is not modified, so any load-balancer
      delay the host charged before injection shows up in the sojourn. *)

  val handle : 'e t -> event -> unit
  (** Advance the instance by one of its own events (the host unwraps its
      event type and forwards). *)

  val cancel : 'e t -> Request.t -> unit
  (** Revoke a request previously injected here (the losing hedge leg).
      The cancel is queued through the dispatcher and charged one queue
      operation (the requeue cost); a queued or preempted-and-saved leg is
      discarded, an executing leg is stopped through the preemption
      mechanism where one exists (it runs out and is discarded at
      completion otherwise). No-op when the request is no longer live
      here. The request must already carry [cancelled = true]. *)

  val surrender : 'e t -> Request.t option
  (** Give up one not-yet-started request from the central queue so the
      host can migrate it to an idle peer (rack-level work stealing), or
      [None] when everything queued has already run at least once.
      The surrendered request is no longer live here. *)

  val censor_all : ?also:(Request.t -> unit) -> 'e t -> now_ns:int -> unit
  (** Record every in-flight request as censored (end of run); [also] is
      called on each, letting the host mirror the record into a merged
      accumulator. *)

  val metrics : 'e t -> Metrics.t
  val inflight : 'e t -> int
  (** Requests injected but not yet completed — the queue-length signal an
      inter-server load balancer observes. *)

  val completed : 'e t -> int
  val n_workers : 'e t -> int
end

val run :
  config:Config.t ->
  mix:Repro_workload.Mix.t ->
  arrival:Repro_workload.Arrival.t ->
  n_requests:int ->
  ?warmup_frac:float ->
  ?drain_cap_ns:int ->
  ?seed:int ->
  ?tracer:Tracing.t ->
  unit ->
  Metrics.summary
(** Simulate [n_requests] open-loop arrivals and return the run summary.
    [warmup_frac], [drain_cap_ns] and [seed] are checked and defaulted by
    {!Driver.check}. Requests still incomplete at the drain cap are
    recorded as censored (their lower-bound slowdown enters the tail, so
    overload shows as an exploding p99.9 rather than missing data); every
    random stream derives from [seed], so runs are exactly reproducible.
    [tracer], when given, records request-lifecycle events (see
    {!Tracing}); tracing does not perturb the simulation. *)

val run_detailed :
  config:Config.t ->
  mix:Repro_workload.Mix.t ->
  arrival:Repro_workload.Arrival.t ->
  n_requests:int ->
  ?warmup_frac:float ->
  ?drain_cap_ns:int ->
  ?seed:int ->
  ?tracer:Tracing.t ->
  ?events_out:int ref ->
  unit ->
  Metrics.summary * Repro_engine.Stats.t
(** Like {!run}, but also returns the raw post-warm-up slowdown samples so
    callers (e.g. the independent-replica oracle of the cluster tests) can
    merge several runs and recompute joint percentiles. The returned
    samples are owned by the caller.
    [events_out], when given, receives the total simulation events processed
    (the numerator of the benchmark suite's events/sec figure). *)
