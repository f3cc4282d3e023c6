(** Discrete-event simulation driver.

    A simulation is a clock (integer nanoseconds) plus a priority queue of
    pending events. The event type ['e] is chosen by the model (the server
    runtime uses a variant of worker/dispatcher/arrival events). Events
    scheduled for the same instant fire in scheduling order.

    A model that learns an event will be dead when it fires — a quantum
    outlived by its request, a timeout superseded by a reset — arms it as a
    {!timer} and {!cancel}s it, instead of leaving it in the queue to pop
    as a no-op. *)

type 'e t

type timer = private int
(** A pending event armed by {!arm_at} or {!arm_after}, for {!cancel}. *)

val no_timer : timer
(** Never pending: the value of a timer field with nothing armed.
    [cancel t no_timer] does nothing. *)

val create : ?capacity:int -> unit -> 'e t
(** [capacity] pre-sizes the event heap (default 1024). Models that know
    their in-flight event bound (roughly a few events per worker plus the
    pending arrival) should pass it to avoid repeated doubling. *)

val now : 'e t -> int
(** Current simulated time in nanoseconds. *)

val schedule_at : 'e t -> time:int -> 'e -> unit
(** Enqueue an event for absolute [time]. Raises [Invalid_argument] if
    [time] is in the past or is [max_int] (the empty-queue sentinel of
    {!next_time}). *)

val schedule_after : 'e t -> delay:int -> 'e -> unit
(** Enqueue an event [delay] ns from now ([delay] >= 0). Raises
    [Invalid_argument] if [now + delay] would reach [max_int] or overflow. *)

val arm_at : 'e t -> time:int -> 'e -> timer
(** {!schedule_at} that also returns the event's timer; same checks. *)

val arm_after : 'e t -> delay:int -> 'e -> timer
(** {!schedule_after} that also returns the event's timer; same checks. *)

val cancel : 'e t -> timer -> unit
(** Remove a pending event: it never fires, and {!events_processed} never
    counts it. The other pending events keep their order. O(log n),
    allocation-free. Raises [Invalid_argument] if the timer already fired
    or was cancelled: a model cancels only a timer it knows is pending. *)

val pending : 'e t -> int
(** Number of events neither fired nor cancelled yet. *)

val next_time : 'e t -> int
(** Timestamp of the earliest pending event, or [max_int] when the queue is
    empty. This is the lookahead probe the windowed parallel engine
    ({!Par_sim}) uses to skip empty stretches of simulated time. *)

val events_processed : 'e t -> int
(** Total events popped and handled since [create], across all [run]s.
    Cancelled events never pop, so they are not counted. The golden tests
    pin it through each host's [events_out], and [bench/e2e] divides it by
    the requests run for [engine.events_per_req]. *)

val stop : 'e t -> unit
(** Make the current [run] return after the in-flight handler finishes. *)

val run : 'e t -> ?until:int -> handler:('e t -> 'e -> unit) -> unit -> unit
(** Pop and handle events in time order until the queue drains, [stop] is
    called, or the next event is later than [until]. The clock advances to
    each event's timestamp just before its handler runs. *)
