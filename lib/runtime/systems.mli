(** Named system configurations: the paper's baselines, Concord itself, and
    the ablations of §5.4.

    All constructors share defaults of 14 workers (the paper's testbed,
    §5.1), a 5 µs quantum, and the 2 GHz cost model; every experiment
    overrides what it sweeps. *)

type args = ?n_workers:int -> ?quantum_ns:int -> ?costs:Repro_hw.Costs.t -> unit -> Config.t

val shinjuku : args
(** The state of the art for high-dispersion workloads: posted IPIs, a
    synchronous single queue, FCFS with tail re-enqueue of preempted
    requests, dedicated dispatcher. *)

val shinjuku_whole_call : args
(** Shinjuku as its prototype integrates LevelDB: preemption disabled
    across entire API calls (§3.1), giving lock-safety at the cost of
    unbounded preemption delay. *)

val persephone_fcfs : args
(** Persephone configured with the blind C-FCFS policy (§5.1): a single
    queue, no preemption; its networker shares the dispatcher thread, which
    shows up as a higher per-request ingress cost. *)

val concord : args
(** Full Concord: compiler-enforced cooperation (cache-line polling),
    JBSQ(2), work-conserving dispatcher. *)

val concord_no_steal : args
(** Concord with the dispatcher's work-stealing disabled (the §5.5 opt-out
    that trades throughput for strictly-lower low-load slowdown). *)

val coop_sq : args
(** Ablation (Fig. 11): cooperation replaces IPIs, single queue kept,
    dedicated dispatcher. *)

val coop_jbsq : ?k:int -> args
(** Ablation (Fig. 11): cooperation + JBSQ(k) (default 2), dedicated
    dispatcher. *)

val concord_uipi : args
(** Concord's queueing design but with user-space interrupts as the
    preemption mechanism (§5.6 comparison). *)

val ideal_single_queue : sigma_ns:float -> args
(** Zero-cost queueing model for Fig. 5: a perfect single queue whose
    preemption lands one-sided-normally late with deviation [sigma_ns];
    [sigma_ns = 0] is precise preemption. *)

val ideal_no_preemption : args
(** Zero-cost single queue without preemption (Fig. 5's lower bound). *)

val concord_batched : ?batch:int -> args
(** Concord with coalesced ingress: the dispatcher admits up to [batch]
    (default 8) queued arrivals per micro-op, trading a little latency for
    dispatcher headroom (the batching knob of §6). *)

val srpt : args
(** Extension (§3.1): Concord with a Shortest-Remaining-Processing-Time
    central queue. *)

val srpt_noisy : ?sigma:float -> args
(** Concord with SRPT over log-normal size estimates of noise [sigma]
    (default 1.0); see {!Policy.Srpt_noisy}. *)

val locality : args
(** Extension (§3.1): Concord preferring to re-dispatch preempted requests
    to the core that last ran them. *)

val by_name : string -> args option
(** CLI lookup: "shinjuku", "persephone", "concord", "concord-no-steal",
    "coop-sq", "coop-jbsq", "concord-uipi", "concord-batched", "srpt",
    "srpt-noisy", "locality". *)

val all_names : string list

val lookup : string -> (args, string) result
(** {!by_name}, with the error every caller reports for an unknown name:
    the name and {!all_names}. *)
