(** Growable binary min-heap keyed by integer priorities.

    Entries with equal keys are returned in insertion order, which makes the
    event queue of {!Sim} deterministic: two events scheduled for the same
    simulated instant fire in the order they were scheduled.

    The heap is slot-indexed: the heap order is kept in plain [int] arrays
    (key, insertion sequence, payload slot), and each payload is written
    once, into its own slot, when it is added. Sifting therefore moves no
    pointers, and an entry costs one GC write barrier however deep it
    sifts. A popped or removed payload stays reachable from the heap until
    its slot is reused by a later {!add}.

    A position index (slot to heap position, also plain [int]s) lets a
    pending entry be removed through the {!handle} that {!add_removable}
    returned.

    {!pop_unsafe} removes the minimum but leaves its position empty: the
    next {!add} fills it and sifts down from the root, which is cheap when,
    as in an event loop, the entry added next is due soon. {!remove} works
    with the position still empty; every other function first refills it
    from the last entry, as {!pop} does. None of this changes which entry
    comes out next. *)

type 'a t
(** A min-heap holding values of type ['a]. *)

type handle = int
(** Names one entry added by {!add_removable}. It is pending from that call
    until the entry is popped or removed, and after that it never matches
    another entry — not even one that reuses its slot — until the heap has
    taken 2^32 further entries. *)

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty heap. [capacity] pre-sizes the backing array.
    Raises [Invalid_argument] if [capacity] exceeds 2^30. *)

val length : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val add : 'a t -> key:int -> 'a -> unit
(** [add h ~key v] inserts [v] with priority [key]. O(log n). *)

val add_removable : 'a t -> key:int -> 'a -> handle
(** {!add} that also returns the entry's handle, for {!remove}. O(log n),
    allocation-free. *)

val remove : 'a t -> handle -> unit
(** [remove h hd] deletes the pending entry [hd]. The other entries keep
    their (key, insertion) order. O(log n), allocation-free. Raises
    [Invalid_argument] if [hd] is not pending: already popped, already
    removed, or never returned by {!add_removable}. *)

val min_key : 'a t -> int option
(** Smallest key present, or [None] if the heap is empty. O(1). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the entry with the smallest key (FIFO among equal
    keys). O(log n). *)

val next_key : 'a t -> int
(** Smallest key present, or [max_int] if the heap is empty: {!min_key}
    without the option box. O(1), allocation-free. Where an entry may have
    key [max_int], tell the two apart with {!is_empty}. *)

val pop_unsafe : 'a t -> 'a
(** Remove the minimum entry and return its value without allocating; read
    the key beforehand with {!next_key}. The entry's handle is dead from
    this call on. The root position stays empty until the next operation,
    which is then cheaper if it is an {!add} of a small key. O(log n).
    Raises [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit
(** Remove all entries; none of their handles is pending afterwards. Does
    not shrink the backing array. *)

val iter : 'a t -> f:(key:int -> 'a -> unit) -> unit
(** Apply [f] to every entry in unspecified order. *)
