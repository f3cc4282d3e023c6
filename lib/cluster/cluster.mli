(** Rack-scale cluster layer: N Concord server instances under one clock.

    The paper's answer to the single-dispatcher bottleneck (§6) is
    replicating single-dispatcher instances over disjoint core sets, which
    is this rack under {!Lb_policy.Random} at [rtt_cycles = 0]; at rack
    scale the *inter-server* policy that feeds those instances dominates
    tail latency (RackSched, SNIPPETS/PAPERS). This module runs
    [N] full {!Repro_runtime.Server} instances — each with its own
    dispatcher, workers, JBSQ(k) and preemption mechanism, heterogeneous
    configurations allowed — behind a pluggable {!Lb_policy} load
    balancer, either inside one shared {!Repro_engine.Sim} discrete-event
    clock or under the windowed parallel engine ({!Repro_engine.Par_sim});
    one balancer implementation serves both engines.

    State staleness is modelled with send/credit accounting: the balancer
    increments its per-server queue view when it dispatches a request and
    decrements it when the server's completion notification arrives, one
    inter-server RTT later. With [rtt_cycles = 0] the view equals the true
    instantaneous queue length (notifications are applied synchronously);
    as the RTT grows, JSQ's view goes stale and its tail advantage over
    Po2c/random shrinks — the rack-level effect this layer exists to
    reproduce. *)

module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics

type instance_spec = {
  config : Config.t;
  speed_factor : float;
      (** straggler multiplier: 2.0 = this server executes everything
          (dispatcher micro-ops and application work) twice as slowly *)
}

val spec : ?speed_factor:float -> Config.t -> instance_spec
(** [speed_factor] defaults to 1.0. *)

type t = {
  policy : Lb_policy.t;
  rtt_cycles : int;
      (** inter-server round trip, in cycles of the first instance's cost
          model: requests take rtt/2 from balancer to server, completion
          credits take the remaining rtt/2 back *)
  hedge : Hedge.t;
      (** balancer-side request hedging: when a dispatched request is still
          incomplete after the policy's delay, a duplicate leg is sent to
          the shortest-view other server; the first completion wins and the
          loser is revoked through {!Repro_runtime.Server.Instance.cancel}
          (duplicate-and-cancel, Tail at Scale §"Hedged requests") *)
  steal : bool;
      (** rack-level work stealing: a server whose view drains to zero
          probes the fullest-view peer for one not-yet-started request *)
  specs : instance_spec array;
}

val make :
  ?policy:Lb_policy.t -> ?rtt_cycles:int -> ?hedge:Hedge.t -> ?steal:bool ->
  instance_spec array -> t
(** Defaults: [Po2c], [rtt_cycles = 0], hedging {!Hedge.Off}, no stealing.
    Validates every spec eagerly, [policy] and [hedge] with
    {!Lb_policy.validate} and {!Hedge.validate}; raises [Invalid_argument]
    naming the bad value. *)

val homogeneous :
  ?policy:Lb_policy.t -> ?rtt_cycles:int -> ?hedge:Hedge.t -> ?steal:bool ->
  ?stragglers:(int * float) list -> instances:int -> Config.t -> t
(** [instances] identical servers; [stragglers] then overrides the listed
    indices' speed factors, e.g. [[ (2, 3.0) ]] makes server 2 a 3x
    straggler. Raises [Invalid_argument] as {!homogeneous_specs}. *)

val homogeneous_specs :
  who:string -> stragglers:(int * float) list -> int -> Config.t -> instance_spec array
(** [homogeneous_specs ~who ~stragglers n config] is [n] copies of
    [config] at speed factor 1, except that each [(i, f)] in [stragglers]
    makes member [i] an [f]x straggler. This is the one straggler rule of
    both tiers' [homogeneous] constructors: raises [Invalid_argument],
    prefixed with [who], on an index outside [0, n) or a factor that is not
    [>= 1] (a straggler is slower, never faster). A rack of mixed speeds is
    built with {!spec} and {!make}. *)

type summary = {
  policy : Lb_policy.t;
  rtt_cycles : int;
  instances : int;
  requests : int;  (** total open-loop arrivals offered to the rack *)
  total_workers : int;
  cluster : Metrics.summary;
      (** rack-level view: counts, goodput and slowdown percentiles over
          the merged population (every instance's samples plus the
          requests censored balancer-side), the mean slowdown summed over
          that population sorted, preemption/busy counters summed or
          worker-weighted across instances. [median_idle_gap_ns] is 0 at
          this level — idle-gap detail only makes sense per instance. *)
  per_instance : Metrics.summary array;
  routed : int array;  (** requests dispatched to each instance *)
  lb_held : int;
      (** arrivals that waited at the balancer for a JBSQ(n) credit *)
  lb_unrouted : int;
      (** requests still parked at the balancer at end of run (censored) *)
  lb_censored : int;
      (** requests censored while still balancer-side (parked or on the
          wire) — they enter the rack accumulator, never any instance *)
  hedge : Hedge.t;
  steal : bool;
  hedges : int;  (** duplicate legs dispatched *)
  hedge_wins : int;  (** hedged requests whose duplicate finished first *)
  hedge_cancels : int;  (** losing legs revoked (includes end-of-run) *)
  hedge_wasted_ns : int;
      (** service-ns of partial work executed by losing legs before their
          discard — the true cost of hedging beyond the duplicate rate *)
  steals : int;  (** requests migrated between servers by work stealing *)
  engine : Repro_engine.Par_sim.t;
      (** the engine that actually ran — [Seq] when a [Par] request was
          degraded (zero lookahead, hedging, tracing; a warning explains) *)
  domains_used : int;  (** 1 under [Seq]; the clamped domain count under [Par] *)
}

val run :
  cluster:t ->
  mix:Repro_workload.Mix.t ->
  arrival:Repro_workload.Arrival.t ->
  n_requests:int ->
  ?warmup_frac:float ->
  ?drain_cap_ns:int ->
  ?seed:int ->
  ?tracer:Repro_runtime.Tracing.t ->
  ?on_decision:(views:int array -> lengths:int array -> chosen:int -> unit) ->
  ?engine:Repro_engine.Par_sim.t ->
  unit ->
  summary
(** Simulate [n_requests] open-loop arrivals at the load balancer. One
    service-time stream is drawn at the balancer (before routing), so two
    runs at the same seed see identical request sequences regardless of
    policy — policies are compared on the same work.

    [engine] (default [Seq]) selects the shared-clock sequential engine or
    the conservative time-window parallel engine
    ({!Repro_engine.Par_sim}): one domain per server instance,
    synchronized every [rtt/2] wire leg. Both engines run the same
    balancer code, so results are identical to [Seq] up to
    same-nanosecond cross-instance tie-breaks, and independent of the
    domain count. A [Par] request degrades to [Seq] with a stderr warning
    when the model has no lookahead ([rtt_cycles] rounding to a 0 ns wire
    leg), when hedging is on (its synchronous winner-takes-all flag is a
    zero-delay coupling), or when [tracer]/[on_decision] need the shared
    clock; it raises when called inside {!Repro_engine.Pool.parallel_map}
    (a [--jobs] sweep already owns the domains).

    [warmup_frac]/[drain_cap_ns]/[seed] as in {!Repro_runtime.Server.run};
    the warm-up cutoff applies to global arrival ids, shared by the rack
    and per-instance metrics. [tracer] records all instances into one
    trace (request ids are globally unique; worker ids repeat across
    instances). [on_decision] fires at every placement with the balancer's
    stale [views], the true instantaneous queue [lengths], and the chosen
    instance — the hook the policy tests audit. *)

val run_detailed :
  cluster:t ->
  mix:Repro_workload.Mix.t ->
  arrival:Repro_workload.Arrival.t ->
  n_requests:int ->
  ?warmup_frac:float ->
  ?drain_cap_ns:int ->
  ?seed:int ->
  ?tracer:Repro_runtime.Tracing.t ->
  ?on_decision:(views:int array -> lengths:int array -> chosen:int -> unit) ->
  ?events_out:int ref ->
  ?engine:Repro_engine.Par_sim.t ->
  unit ->
  summary * Repro_engine.Stats.t
(** Like {!run}, also returning the merged post-warm-up slowdown samples
    of the whole rack (completed and censored, sorted).
    [events_out], when given, receives the total simulation events
    processed (the benchmark suite's events/sec numerator). *)

val check_invariants : summary -> (unit, string) result
(** Conservation and sanity checks used by [make cluster-smoke] and tests:
    per-instance completions sum to the cluster count, every arrival is
    either completed, censored, or parked; routed + unrouted covers all
    arrivals plus hedge duplicates (exactly one leg per arrival completes
    or is censored — losing legs are discarded without entering either
    population); goodput does not exceed offered load (5 % measurement
    tolerance). *)
