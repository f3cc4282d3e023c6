(** Per-request latency-breakdown reconstruction.

    Replays a {!Tracing} event stream and decomposes every completed
    request's sojourn into

    {v sojourn = ingress + central-queue + local-queue + handoff
              + context switches + service + instrumentation
              + preemption/notification + consensus + other v}

    The attribution tiles the [arrival, completion] interval exactly —
    components sum to the measured sojourn by construction — and [other]
    collects any interval the transition rules do not recognise, so tests
    can pin it to 0. This makes the paper's aggregate overhead claims
    (dispatcher budget of Fig. 8, the cnext gap of Fig. 3, cproc/cnotif of
    §2.2) inspectable request by request. *)

(** Where one request's sojourn went, all in wall-clock nanoseconds. *)
type components = {
  ingress_ns : int;  (** NIC queue → central queue (dispatcher admission) *)
  central_ns : int;
      (** waiting in the central (or single logical) queue, including time
          parked in the dispatcher's saved-context buffer *)
  local_ns : int;  (** waiting in a core-local JBSQ slot *)
  handoff_ns : int;  (** dispatch/receive path: coherence misses, local pop *)
  cswitch_ns : int;  (** context switches into the request *)
  service_ns : int;  (** un-instrumented application work *)
  instr_ns : int;
      (** instrumentation overhead: execution wall time beyond service
          progress (cache-line probes, rdtsc probes on the dispatcher) *)
  preempt_ns : int;
      (** preemption/notification overhead: from the preemption point to
          the re-queue, minus the carved context switch *)
  consensus_ns : int;
      (** replication-tier time: from the front-end [Arrived] through the
          [Replicated] hand-off to a member instance (log append, quorum
          wait, wire delay); 0 outside the Raft tier *)
  other_ns : int;  (** unattributed — 0 unless the schema grows a new edge *)
}

val zero : components
val total_ns : components -> int
val add : components -> components -> components

val component_names : string list
(** Labels in field order, for tables/CSV. *)

val to_list : components -> (string * int) list

type request_breakdown = {
  request : int;
  arrival_ns : int;
  completion_ns : int;
  sojourn_ns : int;
  service_ns : int;  (** demand from the [Arrived] event *)
  preemptions : int;
  final_worker : int;  (** -1: completed on the dispatcher *)
  components : components;
}

val of_entries : ?cswitch_cost_ns:int -> Tracing.entry list -> request_breakdown list
(** Reconstruct every *complete* lifecycle (retained [Arrived] through
    [Completed]) from a raw event list, oldest first; truncated or censored
    lifecycles are skipped. [cswitch_cost_ns] (default 0) carves a context
    switch out of handoff/preemption intervals at least that long. *)

val of_trace : ?cswitch_cost_ns:int -> Tracing.t -> request_breakdown list

val check : request_breakdown -> (unit, string) result
(** All components non-negative and summing exactly to the sojourn. *)

val render : request_breakdown list -> string
(** Percentile table (mean/p50/p99/p99.9 per component, µs) plus each
    component's share of total sojourn. *)

val to_csv : request_breakdown list -> string
(** One row per request: id, sojourn, then every component. *)

(** {2 Per-system overhead attribution} *)

type attribution_row = {
  system : string;
  n : int;  (** completed, fully-traced requests *)
  mean_sojourn_ns : float;
  mean : components;  (** per-request means, ns *)
}

val attribution : system:string -> request_breakdown list -> attribution_row

val render_attribution : attribution_row list -> string
(** Aligned table: one row per system, mean ns per component. *)

val run_systems :
  ?systems:string list ->
  ?workload:Repro_workload.Mix.t ->
  ?n_workers:int ->
  ?rate_rps:float ->
  ?n_requests:int ->
  ?seed:int ->
  unit ->
  attribution_row list
(** Run a traced simulation of each named system (default: Concord vs
    Shinjuku vs Persephone vs the JBSQ/cooperation ablations) at one load
    point and attribute overheads — the Concord-vs-Shinjuku
    where-do-the-cycles-go story as a table. Raises [Invalid_argument]
    with {!Systems.lookup}'s message on an unknown name, before any run. *)

val default_systems : string list
