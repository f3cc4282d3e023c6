(** Growable FIFO ring buffer over a flat array.

    A drop-in replacement for [Stdlib.Queue] on hot paths: push/pop touch two
    integer cursors and one array slot, so steady-state use allocates nothing
    (Queue allocates a cons cell per push). The buffer doubles when full and
    never shrinks. Not thread-safe. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty ring. Vacated slots are overwritten with
    [dummy] so the ring does not pin popped values against the GC. [capacity]
    pre-sizes the backing array (default 16, rounded up to a power of two). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail. Amortised O(1); only allocates when doubling. *)

val pop_unsafe : 'a t -> 'a
(** Remove and return the head. Raises [Invalid_argument] when empty —
    guard with {!is_empty}. Allocation-free. *)

val peek_unsafe : 'a t -> 'a
(** The head without removing it. Raises [Invalid_argument] when empty. *)
