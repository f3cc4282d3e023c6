(** A real skip list: the LevelDB memtable.

    Keys are strings in ascending order; values carry tombstones so deletes
    are writes (as in LevelDB). Every traversal step and comparison is
    charged to an optional {!Cost_meter}, which is how memtable work
    becomes simulated service time. Level choices draw from an explicit
    RNG, so a store built from a seed is fully deterministic. *)

type entry = Value of string | Tombstone

type t

val create : rng:Repro_engine.Rng.t -> unit -> t
val length : t -> int
(** Number of nodes (live values and tombstones). *)

val insert : ?meter:Cost_meter.t -> t -> key:string -> entry -> unit
(** Insert or overwrite. *)

val draw_level : t -> unit
(** Draw one node level from the list's RNG and drop it: exactly what
    inserting a key new to the list takes from the RNG. A bulk load that
    builds its table without inserting calls it once per such key, so
    every later insert draws the levels it would have drawn. *)

val find : ?meter:Cost_meter.t -> t -> key:string -> entry option
(** [Some Tombstone] means "deleted here" (shadowing older tables). *)

val min_key : t -> string option

val fold : t -> init:'a -> f:('a -> string -> entry -> 'a) -> 'a
(** In key order, unmetered (used by flushes and tests). *)

(** Metered forward iteration, used by the scan merge. Reading the
    current position allocates nothing. *)
module Cursor : sig
  type cursor

  val start : t -> cursor

  val at_end : cursor -> bool
  (** Whether the cursor has passed the last node. *)

  val key : cursor -> string
  (** The current node's key. Raises [Invalid_argument] at the end. *)

  val entry : cursor -> entry
  (** The current node's entry. Raises [Invalid_argument] at the end. *)

  val advance : ?meter:Cost_meter.t -> cursor -> unit
end
