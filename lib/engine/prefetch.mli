(** An ordered stream computed ahead on a second domain.

    [start ~n produce] spawns one producer domain that runs [produce 0],
    [produce 1], ..., [produce (n-1)] in that order and hands the results
    to the consumer, in batches, through a fixed-capacity {!Mailbox}. The
    hand-off is bounded: the producer waits while the mailbox is full and
    the consumer waits while it is empty, so the mailbox never grows and
    the producer runs a bounded number of items ahead. Each side spins
    briefly before parking on a condition variable.

    The run driver ([Repro_runtime.Driver]) uses it to draw the arrivals
    of mixes whose generators run real store operations
    ([Mix.parallel_safe = false]), for the hosts where that pays: the
    producer owns the mix and the two random streams for the whole run,
    so every item is exactly what the inline path would have drawn.

    Like {!Mailbox} and {!Pool}, the protocol is a functor over
    {!Primitives.S}: production is [Make (Primitives.Real)], and the
    model checker instantiates {!Make} with traced shims to explore the
    full/empty waits, the stop handshake and failure propagation
    ([concord-sim check-model], scenarios [prefetch-*]). *)

(** The protocol, over any {!Primitives.S} world. *)
module Make (P : Primitives.S) : sig
  type 'a t

  val start : ?capacity:int -> ?batch:int -> ?spin_limit:int -> n:int -> (int -> 'a) -> 'a t
  (** Spawn the producer. Items are handed over in batches of [batch]
      (default 16; the last batch and one ending in a failure are
      shorter) through a mailbox of [capacity] batches (default 4,
      rounded up to a power of two, never changed), so the producer runs
      at most [(capacity + 1) * batch] items ahead of the consumer.
      [spin_limit] (default 4096) bounds how many times a waiting side
      re-checks before it parks. Raises [Invalid_argument] when [n < 0]
      or [batch < 1]. *)

  val next : 'a t -> 'a
  (** The next item, in index order, waiting while none is ready. If
      [produce i] raised, the call that would have returned item [i]
      re-raises that exception with its backtrace, and the stream is
      finished. Consumer-only; raises
      [Invalid_argument] once [n] items were taken or after {!stop}. *)

  val stop : 'a t -> unit
  (** Tell the producer to stop, wake it if it waits for space, and join
      its domain. Idempotent. The consumer must call it however it exits
      (e.g. from [Fun.protect ~finally]), whether or not every item was
      taken: a producer stopped mid-stream finishes the item it is
      computing and discards it. *)

  val capacity : 'a t -> int
  (** The mailbox's capacity in batches, read from the mailbox itself:
      the value {!start} rounded [capacity] to, for the stream's whole
      life. *)
end

(** {1 The production stream}

    [Make (Primitives.Real)] with a fixed [start]; [next], [stop] and
    [capacity] behave as documented in {!Make}. *)

type 'a t = 'a Make(Primitives.Real).t

val start : n:int -> (int -> 'a) -> 'a t
(** [Make.start ~n produce] with the default sizes, on real domains. The
    producer first shrinks its domain's minor heap to 32k words (if that
    raises, item 0 carries the exception): with a default-size one (256k
    words) a [kv-zippydb] run kept 0.8 MiB more resident for no
    measurable speed. Counted by {!producers_started}. *)

val next : 'a t -> 'a
val stop : 'a t -> unit
val capacity : 'a t -> int

val available : unit -> bool
(** Whether a producer domain can run beside the caller: at least two
    recommended domains, and the caller is not a {!Pool} task (a
    [--jobs] sweep already owns the machine's domains). *)

val producers_started : unit -> int
(** Producer domains the production {!start} has spawned in this
    process. *)
