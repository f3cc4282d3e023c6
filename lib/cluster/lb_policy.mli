(** Inter-server load-balancing policies (RackSched's design space).

    The rack-level scheduler sees one queue-length estimate per server —
    the [views] array maintained by {!Cluster} from send/credit accounting,
    stale by up to one inter-server RTT — and picks where the next request
    goes. All policies here are drop-free; only rack-level [Jbsq n] may
    decline to place a request (bounded outstanding per server), in which
    case the cluster parks it at the load balancer until a credit returns. *)

type t =
  | Random  (** uniform random split; memoryless, equals independent replicas *)
  | Round_robin  (** strict rotation, oblivious to queue state *)
  | Jsq
      (** join-shortest-queue on the observed views; optimal with fresh
          state, degrades under staleness (herd behaviour) *)
  | Po2c
      (** power-of-two-choices: sample two distinct servers, join the
          shorter view — near-JSQ tails at a fraction of the state traffic,
          and far more robust to stale views *)
  | Jbsq of int
      (** rack-level bounded queues: shortest view among servers with fewer
          than [n] outstanding; parks the request at the LB when every
          server is at its bound (RackSched's JBSQ(n)) *)

val name : t -> string

val validate : t -> (unit, string) result
(** [Ok ()] unless [t] is [Jbsq n] with [n < 1]; the error names the spec.
    {!of_string} and the tiers' constructors ([Cluster.make], [Raft.homogeneous])
    apply it. *)

val of_string : string -> (t, string) result
(** Parses ["random" | "rr" | "round-robin" | "jsq" | "po2c" | "jbsq:<n>"],
    then {!validate}s the result. *)

val all_names : string list
(** Human-readable policy spellings for CLI help. *)

type state
(** Mutable per-run policy state (round-robin cursor, choice RNG). *)

val make_state : rng:Repro_engine.Rng.t -> state

val choose : t -> state -> views:int array -> int option
(** Index of the server the next request should join, or [None] when the
    policy refuses to place it now (only possible for [Jbsq _]). [views]
    must be non-empty. Deterministic given [state]'s RNG stream. [Jsq] and
    [Jbsq _] break ties toward the lowest index; [Po2c] keeps its first
    sample on a tie, which is uniform over servers. *)
