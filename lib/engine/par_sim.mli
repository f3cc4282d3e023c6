(** Conservative time-window parallel discrete-event engine.

    A simulation is split into [n_shards] logical processes (one per
    server instance) plus a host process (balancer / protocol front-end),
    and advances in windows of [window_ns] simulated nanoseconds — the
    model's {e lookahead}, one wire leg of the inter-server RTT. Within a
    window every shard runs its private {!Sim} heap on its own domain
    (phase A); a barrier; then the coordinating domain drains the shards'
    SPSC {!Mailbox} outboxes in (timestamp, shard id, push sequence)
    order into the host heap and runs the host through the same window
    (phase B). Host decisions at time [t] reach shards as inbox actions
    stamped [t + lookahead], which is provably at or past the next window
    boundary — no message ever lands in a window its shard has already
    executed, the conservative-PDES safety condition.

    Results are deterministic and {b independent of the domain count}:
    shard ownership is a static map, each domain a contiguous block of
    shards (domain [p] of [d] owns shards [p * n_shards / d] to
    [(p + 1) * n_shards / d - 1]), which decides which OS thread does the
    work but never the merge order. Relative to
    the sequential engine, the event {e dynamics} are identical; the only
    admissible divergence is tie-breaking among events on {e different}
    shards scheduled for the same integer nanosecond, where the
    sequential engine falls back to heap insertion order (DESIGN.md
    "Windowed parallel engine" spells out the argument).

    The rack model ([Repro_cluster.Cluster]) runs the same balancer code
    as the host under either engine; only delivery, the census of live
    requests and the per-instance bookkeeping differ. Models whose
    couplings carry zero delay (a 0-RTT rack, hedging's synchronous
    winner-takes-all flag) have no lookahead and must run sequentially:
    the rack degrades to {!Seq} with a warning rather than compute wrong
    answers, and Raft, whose consensus mini-requests are co-located, has
    no parallel option at all. *)

type t = Seq | Par of { domains : int }

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — what [par] with no
    explicit count requests. *)

val of_string : string -> (t, string) result
(** Parse an engine spec: ["seq"], ["par"] (recommended domain count), or
    ["par:N"]. *)

val to_string : t -> string
val describe : t -> string

(** Sense-reversing combining-tree barrier over [Atomic] counters.
    Arrivals climb a fan-in-4 tree; the last flips a shared sense flag
    that everyone else spins on with [Domain.cpu_relax], parking on a
    condition variable if the flip takes long (fewer cores than parties).

    The protocol is a functor over {!Primitives.S}: production uses
    {!Barrier} (= [Barrier_gen (Primitives.Real)]), the model checker
    instantiates {!Barrier_gen} with traced shims and explores the
    climb / flip / park interleavings exhaustively
    ([concord-sim check-model], scenarios [barrier-*]). *)
module Barrier_gen (P : Primitives.S) : sig
  type t

  val default_spin_limit : int

  val create : ?spin_limit:int -> parties:int -> unit -> t
  (** [spin_limit] (default {!default_spin_limit}) bounds how many
      [cpu_relax] iterations a waiter spins on the sense flag before
      parking on the condition variable. The checker runs with small
      limits so the spin path stays explorable; semantics do not depend
      on the value, only the spin/park mix does. *)

  val wait : t -> me:int -> unit
  (** [me] is this participant's index in [0, parties); each participant
      must use a distinct, stable index. Reusable: episodes alternate the
      sense. With one party, returns immediately. *)
end

(** The production instantiation, [Barrier_gen (Primitives.Real)]. *)
module Barrier : module type of Barrier_gen (Primitives.Real)

val run_windows :
  domains:int ->
  n_shards:int ->
  window_ns:int ->
  shard_step:(shard:int -> until:int -> unit) ->
  shard_next:(shard:int -> int) ->
  host_step:(start:int -> until:int -> int) ->
  host_next:(unit -> int) ->
  stopped:(unit -> bool) ->
  unit ->
  int
(** Drive the window loop; returns the number of windows executed.

    [shard_step ~shard ~until] must drain the shard's inbox and run its
    heap through [until] (inclusive, matching {!Sim.run}'s [?until]);
    [shard_next] reports its earliest pending event ([max_int] if none).
    Both are called for a given shard only from that shard's owning
    domain. [host_step ~start ~until] merges outboxes, runs the host
    window, and returns the earliest timestamp of any inbox action it
    pushed ([max_int] if none) so the next window can skip ahead
    correctly; [host_next] and [stopped] are polled between windows. The
    host-side callbacks run only on the calling domain.

    [domains] is clamped to [1, n_shards]; the calling domain is
    participant 0 and does shard work too, so [domains = 1] exercises the
    full windowed path without spawning. Raises [Invalid_argument] when
    [window_ns <= 0] (zero lookahead) and [Failure] when called from
    inside {!Pool.parallel_map} (refusing to oversubscribe a [--jobs]
    sweep's domains). *)
