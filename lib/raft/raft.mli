(** Replicated KV tier: a simulated Raft group over {!Repro_runtime.Server}
    instances.

    The cluster layer routes to [N] {e independent} servers; real
    microsecond-scale deployments replicate state. This module runs a Raft
    group whose members are full {!Repro_runtime.Server.Instance}s under one
    shared {!Repro_engine.Sim} clock, so consensus work competes with
    client work in the same dispatchers the paper models:

    - {b Writes} go to the leader, which appends to a replicated log. The
      local append is a consensus mini-request in two parts: a CPU part,
      the encode cost of one record through the real
      {!Repro_kvstore.Wal} encoder, priced once when the module loads and
      executed by the leader's own dispatcher/workers, then a device part,
      the fsync, a timer that holds no worker (Concord's probes are
      compiled into application code, so nothing can preempt a thread
      blocked in fsync). AppendEntries fan out to the followers over
      per-link one-way delays ([rtt_cycles / 2]) once the fsync completes.
      Each follower's AppendEntries processing is another such
      mini-request through that follower's instance. When a majority
      (including the leader) has acknowledged, the entry commits and the
      {e actual} client request is injected into the leader — its sojourn
      therefore contains the whole consensus round, attributed to the
      [consensus] component of {!Repro_runtime.Breakdown} via the
      [Replicated] trace event.
    - {b Reads} bypass consensus under leases: a quorum-acknowledged
      heartbeat extends every reachable member's lease, and any alive
      member holding an unexpired lease may serve a read locally (checked
      against the simulated clock at dispatch — the lease-expiry safety
      check; the lease is no longer than the election timeout, so no new
      leader can be elected while an old-term lease is still valid). Reads at the leader
      are linearizable; follower lease reads are bounded-staleness (at
      most one lease of lag), which is what the SNIPPETS systems ship.
      Without [read_leases], reads ride the full consensus round — the
      "consensus read" counterfactual of the overhead study.
    - {b Failure}: heartbeat-driven failure detection with
      randomized-timeout elections drawn from per-node split {!Rng}
      streams, so a [kill_leader_at_ns] failover elects the same new
      leader on every run at the same seed. In-flight client requests
      routed through the dead leader are resubmitted (fresh legs,
      original arrival time) once the new leader emerges.

    Everything is deterministic: same seed, same history. *)

module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Cluster = Repro_cluster.Cluster
module Lb_policy = Repro_cluster.Lb_policy
module Hedge = Repro_cluster.Hedge

type role = Follower | Candidate | Leader

val role_name : role -> string

type t = {
  read_lb : Lb_policy.t;
      (** how lease reads pick among leased members (the leader is a
          candidate like any other, so queue-aware policies shift reads
          away from a consensus-loaded leader) *)
  rtt_cycles : int;
      (** inter-member round trip in cycles of the first member's cost
          model; every protocol message (AppendEntries, acks, heartbeats,
          votes) takes rtt/2 one way. Client legs are delivered
          synchronously — the client is rack-local, the consensus links
          are what cost. *)
  read_leases : bool;  (** serve reads from leases instead of the log *)
  write_ratio : float;
      (** probability an arrival is a write, drawn per arrival from a
          dedicated stream (always drawn, so read/write service sequences
          match across ratios) *)
  hedge : Hedge.t;
      (** lease-read hedging only: a still-incomplete lease read is
          duplicated onto another leased member after the policy delay;
          first completion wins, the loser is cancelled. Writes are never
          hedged — duplicating a write would double-commit through
          consensus; the run asserts this guard and
          {!check_invariants} re-checks [writes_hedged = 0]. *)
  kill_leader_at_ns : int option;
      (** crash the current leader at this simulated time: it stops
          heartbeating, voting and acking; survivors elect a replacement *)
  specs : Cluster.instance_spec array;
}

val homogeneous :
  ?read_lb:Lb_policy.t ->
  ?rtt_cycles:int ->
  ?read_leases:bool ->
  ?write_ratio:float ->
  ?hedge:Hedge.t ->
  ?kill_leader_at_ns:int ->
  ?stragglers:(int * float) list ->
  nodes:int ->
  Config.t ->
  t
(** [nodes] identical members; [stragglers] overrides speed factors as in
    {!Cluster.homogeneous}. Defaults (at the 2 GHz reference clock):
    [Po2c] read routing, [rtt_cycles = 880_000] (440 us), leases on,
    [write_ratio = 0.5], no hedging. Validates the config and rejects any
    [read_lb] or [hedge] that {!Lb_policy.validate} or {!Hedge.validate}
    refuses.

    The protocol's timings are constants: heartbeat 100 us; election
    timeout 500 us, redrawn uniformly below twice that on every reset;
    lease 500 us, extended by each quorum-acknowledged heartbeat (a lease
    must outlive the RTT, or the leader's own lease expires before the
    quorum ack that would renew it arrives, and it never exceeds the
    election timeout); a durable log append at the leader and
    AppendEntries processing (decode + append + fsync) at each follower,
    each a mini-request whose WAL encode (~1.8 us) runs through that
    member's own instance and whose fsync wait (140 us at the leader,
    180 us at a follower) holds no worker — calibrated so a 50 us direct
    operation lands near the Concord/Ra consensus table: ~3.6x at one
    member, ~15x at three. *)

val capacity_rps : t -> Repro_workload.Mix.t -> float
(** Ideal direct capacity of the group, every member running the first
    member's config, from the work that holds a worker: each client leg,
    plus one WAL encode at every member for each request through the log
    (the writes; every request when [read_leases] is off). It is the lower
    of all members' workers over that work and the leader's workers over
    the logged requests' encodes and client legs, which all run at the
    leader. The fsync waits hold no worker and do not count. *)

type summary = {
  nodes : int;
  read_leases : bool;
  requests : int;
  writes : int;  (** client arrivals classified as writes *)
  reads : int;
  client : Metrics.summary;
      (** end-to-end client view: every arrival completes or is censored
          exactly once here, whatever legs/replays it took *)
  write_mean_ns : float;
      (** client sojourn of writes and of reads after the warm-up cut;
          each of these six is [nan] when its class has no post-warm-up
          sample (a write-only group has no read latency, a read-only one
          no write latency) *)
  write_p50_ns : float;
  write_p99_ns : float;
  read_mean_ns : float;
  read_p50_ns : float;
  read_p99_ns : float;
  per_node : Metrics.summary array;
      (** member-level view, consensus mini-requests included (they carry
          the synthetic ["RAFT"] class) *)
  roles : role array;  (** final role of each member *)
  alive : bool array;
  final_leader : int option;
  final_term : int;
  elections : int;  (** leaderships established (the t=0 leader counts) *)
  leader_changes : int;  (** leadership moved to a different member *)
  committed : int;  (** log entries committed (no-ops included) *)
  commit_indexes : int array;
  log_lengths : int array;
  wal_records : int array;
      (** WAL records each member appended: one per log append, including
          appends that a later conflict truncation superseded, so never
          below the member's log length *)
  resubmissions : int;  (** client legs replayed after a leader death *)
  parked : int;  (** times a request waited for a leader/lease/credit *)
  routed : int array;  (** client legs injected into each member *)
  hedges : int;
  hedge_wins : int;
  hedge_cancels : int;
  hedge_wasted_ns : int;
  writes_hedged : int;  (** must be 0: the write-hedging guard *)
  leader_p99_slowdown : float;  (** 0 when the final leader has no samples *)
  follower_p99_slowdown : float;
      (** merged over follower members ({!Repro_engine.Stats.merge_all});
          0 for a single-member group *)
  invariant_failures : string list;
      (** protocol violations observed during the run: commit-index
          regression, two leaders in one term, committed-entry loss *)
}

val run :
  raft:t ->
  mix:Repro_workload.Mix.t ->
  arrival:Repro_workload.Arrival.t ->
  n_requests:int ->
  ?warmup_frac:float ->
  ?drain_cap_ns:int ->
  ?seed:int ->
  ?tracer:Repro_runtime.Tracing.t ->
  unit ->
  summary

val run_detailed :
  raft:t ->
  mix:Repro_workload.Mix.t ->
  arrival:Repro_workload.Arrival.t ->
  n_requests:int ->
  ?warmup_frac:float ->
  ?drain_cap_ns:int ->
  ?seed:int ->
  ?tracer:Repro_runtime.Tracing.t ->
  ?events_out:int ref ->
  unit ->
  summary * Repro_engine.Stats.t
(** Like {!run}, plus the merged post-warm-up client slowdown samples.
    One service-time and one read/write-classification stream are drawn
    at the front-end before routing, so runs at one seed see identical
    request sequences whatever the group size, lease setting or policy.
    [warmup_frac]/[drain_cap_ns]/[seed]/[tracer] as in
    {!Repro_runtime.Server.run}; when tracing, client arrivals record a
    front-end [Arrived] and every consensus/routing hand-off records
    [Replicated], so {!Repro_runtime.Breakdown} attributes the gap to its
    [consensus] component. *)

val client_breakdowns :
  summary ->
  Repro_runtime.Breakdown.request_breakdown list ->
  Repro_runtime.Breakdown.request_breakdown list * int
(** Of a traced run's lifecycles, those of client arrivals (the request
    ids below [requests]; the group numbers everything else it injects
    after them), and how many others were left out: the consensus
    mini-requests and the hedge duplicates. At most one lifecycle per
    arrival remains. A leg replayed after a failover starts at its
    hand-off, not at an [Arrived], so the breakdown has none to leave out. *)

val check_invariants : summary -> (unit, string) result
(** [Ok] iff the run kept the Raft invariants (commit indexes monotone,
    at most one leader per term, every committed entry present in the
    final leader's log), conservation holds (completed + censored =
    requests), and no write was ever hedged. *)

val summary_to_string : summary -> string
(** Multi-line human-readable report (roles, terms, per-node and
    read/write latency split; a [nan] latency prints as [-]). *)
