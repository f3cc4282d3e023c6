(** Load sweeps: the paper's core experimental procedure (§5.1).

    A sweep runs the same system/workload at increasing offered loads and
    records the tail-slowdown summary at each point; the SLO analysis in
    {!Slo} then extracts "maximum throughput under a p99.9 slowdown of
    50×" — the number every comparison in the paper reports. *)

type point = { rate_rps : float; summary : Repro_runtime.Metrics.summary }

type t = {
  system : string;  (** configuration name *)
  workload : string;
  points : point list;  (** ascending offered load *)
}

val run :
  config:Repro_runtime.Config.t ->
  mix:Repro_workload.Mix.t ->
  rates:float list ->
  ?n_requests:int ->
  ?seed:int ->
  ?burst:int ->
  ?domains:int ->
  unit ->
  t
(** Simulate each offered load with a Poisson open-loop client ([burst] > 1
    switches to batched Poisson). [n_requests] (default 60 000) arrivals per
    point; the warm-up tenth is discarded.

    Points run fanned across [domains] domains (default
    {!Repro_engine.Pool.default_jobs}); because every point is an
    independent simulation seeded from [seed], the result is bit-identical
    for any [domains], and [~domains:1] recovers strictly sequential
    execution. Mixes whose generators share mutable state
    ([Mix.parallel_safe = false], e.g. kvstore-backed ones) always run
    sequentially. *)

val run_cluster :
  cluster:Repro_cluster.Cluster.t ->
  mix:Repro_workload.Mix.t ->
  rates:float list ->
  ?n_requests:int ->
  ?seed:int ->
  ?burst:int ->
  ?domains:int ->
  unit ->
  t
(** Like {!run} but each point simulates the whole rack through
    {!Repro_cluster.Cluster.run}; [rates] are total offered loads across the
    cluster and each point's [summary] is the rack-level merged view, so the
    result plugs into {!Slo} and {!p999_series} unchanged. The same
    determinism contract holds: points fan across [domains] with
    bit-identical results for any domain count. *)

val default_rates :
  mix:Repro_workload.Mix.t -> n_workers:int -> ?points:int -> ?max_util:float -> unit -> float list
(** Evenly spaced offered loads from ~5 % to [max_util] (default 0.95) of
    the ideal worker capacity [n_workers / mean service time]. *)

val p999_series : t -> (float * float) list
(** (offered load, p99.9 slowdown) pairs. *)

(** {2 Policy frontier}

    The policy-extension study (§3.1 "what if the central queue were
    smarter?"): cross mechanism configurations with central-queue policy
    specs and a service-time dispersion axis, at fixed utilization. *)

type frontier_point = {
  config_name : string;  (** mechanism configuration (pre-override name) *)
  policy_spec : string;  (** {!Repro_runtime.Policy.spec_syntax} spec *)
  workload : string;
  squared_cv : float;  (** squared coefficient of variation of service time *)
  util : float;  (** offered load as a fraction of ideal worker capacity *)
  rate_rps : float;
  summary : Repro_runtime.Metrics.summary;
}

val squared_cv_of_dist : Repro_workload.Service_dist.t -> float
(** E[S^2]/E[S]^2 - 1; nan when the distribution has no closed-form second
    moment (traces). *)

val dispersion_axis :
  short_ns:float -> long_ns:float -> p_shorts:float list -> (float * Repro_workload.Mix.t) list
(** Bimodal mixes with fixed mode locations and varying short-request
    probability — the knob that moves CV^2 while keeping both modes
    recognisable (the kvstore GET/SCAN shape). Returns (CV^2, mix) pairs.
    Raises [Invalid_argument] naming the value when [short_ns] or [long_ns]
    is not finite and > 0, or a [p_short] is outside [0, 1] (NaN
    included). *)

val run_frontier :
  configs:Repro_runtime.Config.t list ->
  policies:string list ->
  workloads:(float * Repro_workload.Mix.t) list ->
  ?utils:float list ->
  ?n_requests:int ->
  ?seed:int ->
  ?domains:int ->
  unit ->
  frontier_point list
(** Run every cell of configs x policies x workloads x utils (utils
    default [0.7]). Each cell resolves its policy spec against the cell's
    own mix (["gittins"] fits there), derives the offered rate from the
    configuration's worker count and the mix's mean service time, and runs
    one standalone load point. Cells fan across [domains] with
    bit-identical results when every mix is [parallel_safe].

    Raises [Invalid_argument] on a malformed policy spec. *)

val frontier_csv : frontier_point list -> string

val render_frontier : frontier_point list -> string
(** Aligned "p99 (p99.9)" heat-table: one block per utilization, one row
    per config x policy, one column per CV^2. *)

(** {2 Tail-tolerance study}

    The rack-level hedging study: cross inter-server RTT, hedge policy and
    LB routing policy at fixed utilization and measure the p99 reduction a
    duplicate-and-cancel balancer buys per percent of duplicate load. *)

type hedge_point = {
  lb_policy : string;  (** {!Repro_cluster.Lb_policy.of_string} spec *)
  rtt_cycles : int;
  hedge_spec : string;  (** {!Repro_cluster.Hedge.of_string} spec *)
  steal : bool;
  util : float;
  rate_rps : float;  (** total rack offered load *)
  hedges : int;
  hedge_wins : int;
  hedge_cancels : int;
  hedge_wasted_ns : int;
  steals : int;
  dup_frac : float;  (** hedges / arrivals — the duplicate overhead *)
  summary : Repro_runtime.Metrics.summary;  (** rack-level merged view *)
}

val run_hedge_study :
  config:Repro_runtime.Config.t ->
  mix:Repro_workload.Mix.t ->
  rtts:int list ->
  hedges:string list ->
  policies:string list ->
  ?steal:bool ->
  ?stragglers:(int * float) list ->
  ?instances:int ->
  ?util:float ->
  ?n_requests:int ->
  ?seed:int ->
  ?domains:int ->
  unit ->
  hedge_point list
(** Run every cell of rtts x hedges x policies on a homogeneous
    [instances]-server rack (default 3) at [util] (default 0.7) of ideal
    rack capacity. Cells fan across [domains] with bit-identical results
    when the mix is [parallel_safe]. Raises [Invalid_argument] on a
    malformed hedge or policy spec. *)

val hedge_csv : hedge_point list -> string

val render_hedge : hedge_point list -> string
(** Aligned "p99 (duplicate %)" table: one block per LB policy, one row
    per hedge spec, one column per RTT. *)
