(** Immutable sorted string table — LevelDB's "memory-mapped plain table"
    format (§5.3), the read-optimized on-"disk" complement of the memtable.

    Lookups are binary searches charged per probe; scans advance a cursor
    charged per step. Tables are produced by flushing/compacting a store
    (unmetered: LevelDB does this on a background thread). *)

type t

val of_sorted : keys:string array -> vals:Skiplist.entry array -> t
(** The table whose [i]-th entry is [vals.(i)] under [keys.(i)]. The keys
    must be in strictly ascending order. The table keeps both arrays
    rather than copying them, so the caller must not change them
    afterwards. Raises [Invalid_argument] when the keys are unsorted or
    repeat, or the arrays differ in length. *)

val length : t -> int

val get : ?meter:Cost_meter.t -> t -> key:string -> Skiplist.entry option
(** Binary search. *)

val keys : t -> string array
(** The keys in ascending order: the backing array (do not mutate). *)

val vals : t -> Skiplist.entry array
(** The entries, in the order of {!keys}: the backing array (do not
    mutate). *)

module Cursor : sig
  type cursor

  val start : t -> cursor

  val at_end : cursor -> bool
  (** Whether the cursor has passed the last entry. *)

  val key : cursor -> string
  (** The current entry's key. Raises [Invalid_argument] at the end. *)

  val entry : cursor -> Skiplist.entry
  (** The current entry. Raises [Invalid_argument] at the end. *)

  val advance : ?meter:Cost_meter.t -> cursor -> unit
end
