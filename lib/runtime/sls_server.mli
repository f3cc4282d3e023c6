(** Single-logical-queue systems (§6: "How Concord extends to
    single-logical-queue systems").

    Shenango/Caladan/ZygOS-style runtimes keep no dedicated dispatcher:
    arrivals are steered round-robin to per-worker queues and idle workers
    *steal* from loaded ones, forming one logical queue. A dedicated
    scheduler hyperthread (Caladan's model) only monitors elapsed quanta,
    scanning each core every 1 µs, and — in the Concord extension — writes
    the per-core preemption cache line; it never touches the queues, so the
    single-dispatcher throughput bottleneck disappears.

    This module exists to demonstrate the paper's claim that
    compiler-enforced cooperation composes with logical queues: compare
    {!Systems.concord} (physical queue, dispatcher-bound) with
    [run ~config:(concord_sls ())] on a short-request workload. *)

type config = {
  name : string;
  n_workers : int;
  quantum_ns : int;
  mechanism : Repro_hw.Mechanism.t;
      (** [Cache_line] = Concord-on-SLS; [No_preempt] = Shenango-like
          run-to-completion; [Ipi] = interrupt-based preemption. *)
  steal : bool;  (** false degenerates to d-FCFS (partitioned queues) *)
  costs : Repro_hw.Costs.t;
}

val concord_sls : ?n_workers:int -> ?quantum_ns:int -> ?costs:Repro_hw.Costs.t -> unit -> config
(** Cooperative preemption + work stealing. *)

val shenango_like : ?n_workers:int -> ?quantum_ns:int -> ?costs:Repro_hw.Costs.t -> unit -> config
(** Work stealing, run-to-completion (no preemption). *)

val partitioned_fcfs :
  ?n_workers:int -> ?quantum_ns:int -> ?costs:Repro_hw.Costs.t -> unit -> config
(** d-FCFS: static partitioning, no stealing, no preemption — the
    queueing-theory worst case the paper's single-queue argument targets. *)

val run :
  config:config ->
  mix:Repro_workload.Mix.t ->
  arrival:Repro_workload.Arrival.t ->
  n_requests:int ->
  ?warmup_frac:float ->
  ?drain_cap_ns:int ->
  ?seed:int ->
  ?tracer:Tracing.t ->
  unit ->
  Metrics.summary
(** Same contract as {!Server.run}, including optional lifecycle tracing. *)
