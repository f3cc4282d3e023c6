(* An ordered stream computed ahead on a second domain, handed over in
   batches through a fixed-capacity SPSC mailbox. The producer pushes
   only after it has seen room, so Mailbox.push never takes its grow
   branch (growth needs a quiescent consumer); the consumer waits for a
   batch. Each waits by spinning on the mailbox's indices, then by
   parking.

   Batches amortise the cross-core traffic of the hand-off: every push or
   pop moves the mailbox's index cache lines between the two cores. A
   producer of trivial items feeding a consumer with 2-5 us of work per
   item added 0.5-0.7 us per item handed over one at a time, and ~0.15 us
   in batches of 16 (2-core Sapphire Rapids Xeon VM).

   Parking protocol: each side has its own spot. A waiter takes the spot's
   lock, sets its [parked] flag, re-checks its condition and waits on the
   spot's condition; the other side, after every push or pop, reads the
   flag and broadcasts under the lock only when it is set. Atomics are
   sequentially consistent, so either the notifier sees the flag, or the
   waiter's re-check sees the notifier's index update: no wakeup is lost,
   and the common path costs one atomic read.

   Functorized over Primitives.S like Mailbox and Pool: production is
   Make (Primitives.Real), and Repro_check instantiates Make with traced
   shims to explore the waits, the stop handshake and failure
   propagation. *)

module Make (P : Primitives.S) = struct
  module M = Mailbox.Make (P)

  type 'a item = Item of 'a | Failed of exn * Printexc.raw_backtrace

  (* Where one side parks: only that side writes [parked]. *)
  type spot = { parked : bool P.Atomic.t; lock : P.Mutex.t; wake : P.Condition.t }

  type 'a t = {
    items : 'a item array M.t;  (* batches of up to [batch] items *)
    batch : int;
    mutable current : 'a item array;  (* consumer-owned: the batch being taken *)
    mutable pos : int;  (* consumer-owned: the next item of [current] *)
    n : int;
    mutable taken : int;  (* consumer-owned: items returned so far *)
    stopped : bool P.Atomic.t;  (* set once, by the consumer *)
    space : spot;  (* the producer waits here for room *)
    filled : spot;  (* the consumer waits here for a batch *)
    spin_limit : int;
    mutable producer : unit P.Dom.t option;  (* None once joined *)
  }

  let capacity t = M.capacity t.items

  let spot () =
    { parked = P.Atomic.make false; lock = P.Mutex.create (); wake = P.Condition.create () }

  let wake s =
    P.Mutex.lock s.lock;
    P.Condition.broadcast s.wake;
    P.Mutex.unlock s.lock

  let notify s = if P.Atomic.get s.parked then wake s

  (* Spin, then park at [s], until [ready ()]. *)
  let await t s ready =
    let rec spin left =
      ready ()
      || left > 0
         && begin
              P.Dom.cpu_relax ();
              spin (left - 1)
            end
    in
    if not (spin t.spin_limit) then begin
      P.Mutex.lock s.lock;
      P.Atomic.set s.parked true;
      while not (ready ()) do
        P.Condition.wait s.wake s.lock
      done;
      P.Atomic.set s.parked false;
      P.Mutex.unlock s.lock
    end

  let stopped t = P.Atomic.get t.stopped

  let has_room t = M.length t.items < capacity t

  (* Push batch [b] once there is room; false when stopped first. Only
     this side advances the tail and the head only advances, so the room
     seen stays until the push, which therefore never grows the ring. *)
  let deliver t b =
    await t t.space (fun () -> has_room t || stopped t);
    has_room t
    && begin
         M.push t.items b;
         notify t.filled;
         true
       end

  (* Items [i .. i+k-1] as one batch, cut short after a failure. *)
  let produce_batch produce i k =
    let item j =
      match produce (i + j) with
      | x -> Item x
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    let first = item 0 in
    let b = Array.make k first in
    let rec fill j =
      if j = k then b
      else
        match item j with
        | Item _ as x ->
          b.(j) <- x;
          fill (j + 1)
        | Failed _ as x ->
          b.(j) <- x;
          Array.sub b 0 (j + 1)
    in
    match first with Item _ -> fill 1 | Failed _ -> [| first |]

  (* The producer's whole life: items 0 .. n-1 in order, in batches; the
     first failure is delivered as its item and ends the stream. A stop is
     seen when the ring is full, so a stopped producer computes at most a
     ring's worth of batches more. *)
  let produce_all t produce =
    let rec go i =
      if i < t.n then begin
        let b = produce_batch produce i (min t.batch (t.n - i)) in
        let failed = match b.(Array.length b - 1) with Item _ -> false | Failed _ -> true in
        if deliver t b && not failed then go (i + Array.length b)
      end
    in
    go 0

  let start ?(capacity = 4) ?(batch = 16) ?(spin_limit = 4096) ~n produce =
    if n < 0 then invalid_arg "Prefetch.start: n must be >= 0";
    if batch < 1 then invalid_arg "Prefetch.start: batch must be >= 1";
    let t =
      {
        items = M.create ~capacity ();
        batch;
        current = [||];
        pos = 0;
        n;
        taken = 0;
        stopped = P.Atomic.make false;
        space = spot ();
        filled = spot ();
        spin_limit;
        producer = None;
      }
    in
    t.producer <- Some (P.Dom.spawn (fun () -> produce_all t produce));
    t

  let stop t =
    t.taken <- t.n;
    match t.producer with
    | None -> ()
    | Some d ->
      t.producer <- None;
      P.Atomic.set t.stopped true;
      wake t.space;
      P.Dom.join d

  let rec take_batch t =
    match M.pop t.items with
    | Some b ->
      notify t.space;
      b
    | None ->
      await t t.filled (fun () -> not (M.is_empty t.items));
      take_batch t

  let next t =
    if t.taken >= t.n then invalid_arg "Prefetch.next: the stream is finished";
    if t.pos = Array.length t.current then begin
      t.current <- take_batch t;
      t.pos <- 0
    end;
    let item = t.current.(t.pos) in
    t.pos <- t.pos + 1;
    match item with
    | Item x ->
      t.taken <- t.taken + 1;
      x
    | Failed (e, bt) ->
      stop t;
      Printexc.raise_with_backtrace e bt
end

module Real = Make (Primitives.Real)
include Real

(* Gc.set resizes the calling domain's minor heap only. *)
let shrink_minor_heap () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 32_768 }

let started = Atomic.make 0

let start ~n produce =
  Atomic.incr started;
  Real.start ~n (fun i ->
      if i = 0 then shrink_minor_heap ();
      produce i)

let available () = Domain.recommended_domain_count () >= 2 && not (Pool.in_pool ())
let producers_started () = Atomic.get started
