(** Central-queue scheduling policies.

    The dispatcher's global visibility is what lets Concord support
    policies beyond FCFS (§3.1); this module is that extension point —
    the "policy frontier" the paper's cheap preemption is meant to make
    affordable. Size-based policies never read a request's true
    [service_ns] directly: they order by [estimate_ns], which equals the
    true size for exact-demand SRPT and is perturbed once at arrival for
    {!Srpt_noisy}; {!Gittins} needs only the attained service and the
    mix-level service distribution. *)

type kind =
  | Fcfs
      (** arrival order; preempted requests re-enter at the tail, which
          approximates processor sharing (Shinjuku's policy) *)
  | Srpt  (** least remaining work first; fresh requests use full service *)
  | Srpt_noisy of { sigma : float }
      (** SRPT on multiplicative log-normal size estimates: each request's
          [estimate_ns] is drawn once at arrival as
          [service_ns * exp(sigma * N(0,1))] (median-unbiased; sigma = 0 is
          bit-identical to {!Srpt}). The Scully–Harchol-Balter noise model
          for "how wrong can estimates be before SRPT stops winning". *)
  | Srpt_kv of { means_ns : int array }
      (** SRPT on per-class (per-opcode) empirical mean sizes: each
          request's [estimate_ns] is set at arrival to its class's mean —
          the prediction a kvstore front-end can actually make from the
          opcode (GET vs PUT vs SCAN) without knowing the exact size. No
          noise stream is consumed, so a run with any other policy is
          bit-identical to before this variant existed. Build with
          {!of_spec} ["srpt-kv"], which samples the mix like
          {!Repro_workload.Gittins.of_mix} does. *)
  | Gittins of Repro_workload.Gittins.t
      (** serve the smallest Gittins rank (largest index) computed from the
          empirical service distribution; optimal for unknown sizes. Build
          the table with {!Repro_workload.Gittins.of_mix} /
          {!Repro_workload.Gittins.of_dist}. *)
  | Locality_fcfs
      (** FCFS, but a worker prefers (within a small scan window) a request
          it already executed, to keep its cache warm *)

val kind_name : kind -> string
(** Stable spec-style name: ["fcfs"], ["srpt"], ["srpt-noisy:<sigma>"],
    ["gittins"], ["locality-fcfs"]. *)

val of_spec : string -> mix:Repro_workload.Mix.t -> (kind, string) result
(** Parse a policy spec: [fcfs | srpt | srpt-noisy[:SIGMA] | srpt-kv |
    gittins | locality-fcfs]. [srpt-noisy] without an argument means
    sigma = 1; [srpt-kv] derives per-class mean estimates from [mix];
    [gittins] builds its index table from [mix] (via
    {!Repro_workload.Gittins.of_mix}, reproducible fixed-seed sampling). *)

val spec_syntax : string
(** Human-readable grammar for CLI help/error text. *)

type t
(** A central queue ordered by one of the policies. *)

val create : kind -> t
val kind : t -> kind
val length : t -> int
val is_empty : t -> bool

val push_new : t -> Request.t -> unit
(** Admit a request that has never executed. Raises [Invalid_argument]
    when a rank-ordered policy ranks it [max_int]. *)

val push_preempted : t -> Request.t -> unit
(** Re-admit a preempted request. Raises [Invalid_argument] when a
    rank-ordered policy ranks it [max_int]. *)

val pop : t -> worker:int -> Request.t option
(** Next request to hand to [worker] under the policy. *)

val pop_not_started : t -> Request.t option
(** First request that has never executed — the only kind the
    work-conserving dispatcher may steal (§3.3). O(1) for every policy:
    the rank queues keep fresh requests in their own heap, and the FCFS
    list threads them on an intrusive sublist. *)

val has_not_started : t -> bool
(** O(1). *)
