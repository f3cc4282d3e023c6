(** Growable binary min-heap keyed by integer priorities.

    Entries with equal keys are returned in insertion order, which makes the
    event queue of {!Sim} deterministic: two events scheduled for the same
    simulated instant fire in the order they were scheduled.

    The heap is slot-indexed: the heap order is kept in plain [int] arrays
    (key, insertion sequence, payload slot), and each payload is written
    once, into its own slot, when it is added. Sifting therefore moves no
    pointers, and an entry costs one GC write barrier however deep it
    sifts. A popped payload stays reachable from the heap until its slot is
    reused by a later {!add}. *)

type 'a t
(** A min-heap holding values of type ['a]. *)

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty heap. [capacity] pre-sizes the backing array. *)

val length : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val add : 'a t -> key:int -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key]. O(log n). *)

val min_key : 'a t -> int option
(** Smallest key present, or [None] if the heap is empty. O(1). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest key (FIFO among equal
    keys). O(log n). *)

val unsafe_min_key : 'a t -> int
(** Smallest key present, without the option box. O(1), allocation-free.
    The caller must check {!is_empty} first: on an empty heap the result is
    meaningless (whatever key slot 0 last held). *)

val pop_unsafe : 'a t -> 'a
(** Remove the minimum entry and return its value without allocating; read
    the key beforehand with {!unsafe_min_key}. O(log n). Raises
    [Invalid_argument] on an empty heap — guard with {!is_empty}. *)

val clear : 'a t -> unit
(** Remove all entries. Does not shrink the backing array. *)

val iter : 'a t -> f:(key:int -> 'a -> unit) -> unit
(** Apply [f] to every entry in unspecified order. *)
