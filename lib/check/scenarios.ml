(* The model-checked scenario registry: the engine's four Atomics
   protocols instantiated with {!Trace_prims} and driven to quiescence
   under every DPOR-inequivalent schedule, plus seeded-bug fixtures —
   deliberately broken variants of the same protocols that the checker
   must catch, keeping the checker itself honest ([expect = Caught]).

   Scenario discipline: bounded loops only (a consumer makes a fixed
   number of pop attempts; barriers are created with [~spin_limit:1]), or
   the schedule space diverges. Small instance sizes are not a cop-out:
   the protocol bugs these scenarios guard exhibit within 2 processes and
   2-3 operations, and exhaustiveness at that size beats sampling at
   production size. *)

module M = Repro_engine.Mailbox.Make (Trace_prims)
module B = Repro_engine.Par_sim.Barrier_gen (Trace_prims)
module P = Repro_engine.Pool.Make (Trace_prims)
module PF = Repro_engine.Prefetch.Make (Trace_prims)
module A = Trace_prims.Atomic
module S = Trace_prims.Slots
module D = Trace_prims.Dom

type expect = Pass | Caught

type t = {
  name : string;
  descr : string;
  expect : expect;
  max_schedules : int;
  preemption_bound : int option;
  run : unit -> unit;
}

(* ---- good protocols --------------------------------------------------- *)

(* SPSC mailbox, concurrent endpoints, no growth: FIFO, no loss, no
   duplication. The producer pushes 1..3; the consumer makes 6 bounded
   pop attempts; the parent drains the remainder after joining both. *)
let mailbox_spsc () =
  let mb = M.create ~capacity:4 () in
  let producer =
    D.spawn (fun () ->
        for v = 1 to 3 do
          M.push mb v
        done)
  in
  let got = ref [] in
  let consumer =
    D.spawn (fun () ->
        for _ = 1 to 6 do
          match M.pop mb with Some v -> got := v :: !got | None -> ()
        done)
  in
  D.join producer;
  D.join consumer;
  M.drain mb ~f:(fun v -> got := v :: !got);
  assert (List.rev !got = [ 1; 2; 3 ])

(* Growth across the capacity boundary under the engine's phase
   discipline (producer grows only while the consumer is quiescent —
   which is all the barrier-phased engine ever asks of [grow]): push 2 /
   pop 2 to offset head, then push 3 more so the doubling happens exactly
   when [tail - head = capacity] with wrapped slot indices. *)
let mailbox_growth () =
  let mb = M.create ~capacity:2 () in
  let got = ref [] in
  let phase_a =
    D.spawn (fun () ->
        M.push mb 1;
        M.push mb 2;
        (match M.pop mb with Some v -> got := v :: !got | None -> assert false);
        match M.pop mb with Some v -> got := v :: !got | None -> assert false)
  in
  D.join phase_a;
  let phase_b =
    D.spawn (fun () ->
        M.push mb 3;
        M.push mb 4;
        M.push mb 5 (* tail - head = 2 = capacity: grows here, head = 2 *))
  in
  D.join phase_b;
  M.drain mb ~f:(fun v -> got := v :: !got);
  assert (List.rev !got = [ 1; 2; 3; 4; 5 ])

(* Real barrier, 2 parties x 2 episodes: no early escape (each episode's
   counter reads 2 after the barrier), termination (quiescence = nobody
   left parked). [~spin_limit:1] keeps the spin path short while still
   exercising both the spin-exit and the park/broadcast paths. *)
let barrier_episodes () =
  let b = B.create ~spin_limit:1 ~parties:2 () in
  let c0 = A.make 0 and c1 = A.make 0 in
  let party me () =
    A.incr c0;
    B.wait b ~me;
    assert (A.get c0 = 2);
    A.incr c1;
    B.wait b ~me;
    assert (A.get c1 = 2)
  in
  let d0 = D.spawn (party 0) and d1 = D.spawn (party 1) in
  D.join d0;
  D.join d1

(* Pool task queue, 2 workers (caller + 1 spawned), 3 tasks: every task
   runs exactly once, results keep input order, the stop/broadcast
   shutdown terminates (a lost wakeup would surface as deadlock). *)
let pool_tasks () =
  let r = P.parallel_map ~domains:2 (fun x -> x + 10) [ 1; 2; 3 ] in
  assert (r = [ 11; 12; 13 ])

(* Nesting refusal: inside a pool task, [in_pool] is true and a nested
   [parallel_map] must run inline (no second tier of workers), while
   outside one [in_pool] is false again. *)
let pool_nested () =
  assert (not (P.in_pool ()));
  let r =
    P.parallel_map ~domains:2
      (fun x ->
        assert (P.in_pool ());
        let inner = P.parallel_map ~domains:2 (fun y -> y * 2) [ x; x + 1 ] in
        List.fold_left ( + ) 0 inner)
      [ 1; 2 ]
  in
  assert (r = [ 2 * 1 + 2 * 2; 2 * 2 + 2 * 3 ]);
  assert (not (P.in_pool ()))

(* Prefetch stream over a capacity-2 mailbox, one item per batch: the
   producer fills it while the consumer takes both items, FIFO and with
   none lost. [~spin_limit:1] walks both the spin and the park path of
   the consumer's wait for an item. Two items never meet a full ring, so
   the no-growth half of the claim is checked by prefetch-wake and
   prefetch-stop, where the producer does. *)
let prefetch_fifo () =
  let s = PF.start ~capacity:2 ~batch:1 ~spin_limit:1 ~n:2 (fun i -> 10 + i) in
  let a = PF.next s in
  let b = PF.next s in
  assert (PF.capacity s = 2);
  PF.stop s;
  assert ([ a; b ] = [ 10; 11 ])

(* A producer parked on a full one-slot mailbox must be woken by the
   consumer's pop: item 1 waits for the slot item 0 holds. A pop that
   forgets to notify leaves both sides parked, which the checker reports
   as a deadlock; a producer that pushes item 1 without waiting grows
   the ring, which the capacity check reports. *)
let prefetch_wake () =
  let s = PF.start ~capacity:1 ~batch:1 ~spin_limit:0 ~n:2 (fun i -> i) in
  assert (PF.next s = 0);
  assert (PF.next s = 1);
  PF.stop s;
  assert (PF.capacity s = 1)

(* The stop handshake: a consumer that takes nothing and stops while the
   producer has filled the one slot and may be parked waiting for space.
   The stop must wake it and the join must return. *)
let prefetch_stop () =
  let s = PF.start ~capacity:1 ~batch:1 ~spin_limit:0 ~n:2 (fun i -> i) in
  PF.stop s;
  assert (PF.capacity s = 1)

exception Produce_failed of int

(* Failure propagation: [produce 1] raises inside the first batch of two;
   the consumer gets item 0, then the same exception from the call that
   would have returned item 1, and the stream is finished (joined) after
   it. *)
let prefetch_failure () =
  let s =
    PF.start ~capacity:2 ~batch:2 ~spin_limit:0 ~n:3 (fun i ->
        if i = 1 then raise (Produce_failed i) else i)
  in
  assert (PF.next s = 0);
  (match PF.next s with
  | _ -> assert false
  | exception Produce_failed 1 -> ());
  PF.stop s

(* ---- seeded bugs (the checker must catch every one) ------------------- *)

(* A Mailbox fixture, not a Prefetch run: a producer that pushes without
   waiting for space, as Prefetch's [deliver] would without its wait, on
   a bare capacity-2 ring with a live consumer. The third push can find
   the ring full and double it, which the mailbox licenses only while its
   consumer is quiescent; the consumer's capacity check catches the
   schedules where it does. It shows the checker sees growth under a live
   consumer; prefetch-wake and prefetch-stop make the same capacity check
   against the real [deliver]. *)
let seeded_prefetch_no_wait () =
  let mb = M.create ~capacity:2 () in
  let producer =
    D.spawn (fun () ->
        for v = 1 to 3 do
          M.push mb v (* BUG: no wait for space *)
        done)
  in
  let got = ref [] in
  for _ = 1 to 4 do
    (match M.pop mb with Some v -> got := v :: !got | None -> ());
    assert (M.capacity mb = 2)
  done;
  D.join producer;
  M.drain mb ~f:(fun v -> got := v :: !got);
  assert (List.rev !got = [ 1; 2; 3 ])

(* SPSC mailbox misused as MPSC: two producers race on [tail]; in the
   losing interleaving both read tail = 0, overwrite slot 0 and publish
   tail = 1 — one message vanishes. *)
let seeded_mailbox_mpsc () =
  let mb = M.create ~capacity:4 () in
  let p1 = D.spawn (fun () -> M.push mb 1) in
  let p2 = D.spawn (fun () -> M.push mb 2) in
  D.join p1;
  D.join p2;
  let got = ref [] in
  M.drain mb ~f:(fun v -> got := v :: !got);
  assert (List.length !got = 2 && List.mem 1 !got && List.mem 2 !got)

(* Publication-order bug: the real push stores the slot and THEN
   advances tail (a release publication); this variant advances tail
   first. The concurrent consumer can observe the advanced index, read
   the still-empty slot and advance head past it — the message is lost
   silently. *)
let seeded_lost_publish () =
  let head = A.make 0 and tail = A.make 0 in
  let slots = S.make 4 in
  let buggy_push v =
    let t = A.get tail in
    A.set tail (t + 1) (* BUG: index published before the slot store *);
    S.set slots (t land 3) (Some v)
  in
  let pop () =
    let h = A.get head in
    if h = A.get tail then None
    else begin
      let v = S.get slots (h land 3) in
      S.set slots (h land 3) None;
      A.set head (h + 1);
      v
    end
  in
  let got = ref [] in
  let producer = D.spawn (fun () -> buggy_push 1) in
  let consumer =
    D.spawn (fun () ->
        for _ = 1 to 2 do
          match pop () with Some v -> got := v :: !got | None -> ()
        done)
  in
  D.join producer;
  D.join consumer;
  (match pop () with Some v -> got := v :: !got | None -> ());
  assert (!got = [ 1 ])

(* Sense reversal removed: a flat barrier whose "go" flag is set once
   and never flipped back. Episode 1 is fine; in episode 2 the first
   arrival sees the stale flag and escapes before its peer has arrived —
   the episode-2 counter assertion catches the early escape. Mirrors the
   real barrier's spin-then-park structure so the checker walks both
   paths. *)
let seeded_barrier_no_sense () =
  let count = A.make 0 in
  let flag = A.make false (* BUG: never reset between episodes *) in
  let m = Trace_prims.Mutex.create () in
  let cv = Trace_prims.Condition.create () in
  let parties = 2 in
  let buggy_wait () =
    if A.fetch_and_add count 1 = parties - 1 then begin
      A.set count 0;
      A.set flag true;
      Trace_prims.Mutex.lock m;
      Trace_prims.Condition.broadcast cv;
      Trace_prims.Mutex.unlock m
    end
    else begin
      let spins = ref 0 in
      while (not (A.get flag)) && !spins < 1 do
        incr spins;
        D.cpu_relax ()
      done;
      if not (A.get flag) then begin
        Trace_prims.Mutex.lock m;
        while not (A.get flag) do
          Trace_prims.Condition.wait cv m
        done;
        Trace_prims.Mutex.unlock m
      end
    end
  in
  let c0 = A.make 0 and c1 = A.make 0 in
  let party () =
    A.incr c0;
    buggy_wait ();
    assert (A.get c0 = 2);
    A.incr c1;
    buggy_wait ();
    assert (A.get c1 = 2)
  in
  let d0 = D.spawn party and d1 = D.spawn party in
  D.join d0;
  D.join d1

(* The Mailbox debug-mode SPSC contract assertion itself: two pushers
   from different checker processes must raise [Spsc_violation]. *)
let seeded_spsc_debug () =
  let mb = M.create ~debug_spsc:true ~capacity:4 () in
  let p1 = D.spawn (fun () -> M.push mb 1) in
  let p2 = D.spawn (fun () -> M.push mb 2) in
  D.join p1;
  D.join p2

(* ---- registry --------------------------------------------------------- *)

let all : t list =
  [
    {
      name = "mailbox-spsc";
      descr = "SPSC ring, concurrent endpoints: FIFO, no loss, no duplication";
      expect = Pass;
      max_schedules = 200_000;
      preemption_bound = None;
      run = mailbox_spsc;
    };
    {
      name = "mailbox-growth";
      descr = "capacity-boundary growth under the engine's phase discipline";
      expect = Pass;
      max_schedules = 10_000;
      preemption_bound = None;
      run = mailbox_growth;
    };
    {
      name = "barrier-episodes";
      descr = "sense-reversing barrier: no early escape, termination, 2x2";
      expect = Pass;
      max_schedules = 200_000;
      preemption_bound = None;
      run = barrier_episodes;
    };
    {
      name = "pool-tasks";
      descr = "work-sharing pool: no lost task, ordered results, clean shutdown";
      expect = Pass;
      max_schedules = 200_000;
      preemption_bound = None;
      run = pool_tasks;
    };
    {
      name = "pool-nested";
      descr = "in_pool nesting refusal: nested parallel_map runs inline";
      expect = Pass;
      max_schedules = 200_000;
      preemption_bound = None;
      run = pool_nested;
    };
    {
      name = "prefetch-fifo";
      descr = "prefetch stream fills a capacity-2 mailbox: FIFO, no loss";
      expect = Pass;
      max_schedules = 200_000;
      preemption_bound = None;
      run = prefetch_fifo;
    };
    {
      name = "prefetch-wake";
      descr = "prefetch producer parked on a full mailbox is woken by the pop, no growth";
      expect = Pass;
      max_schedules = 200_000;
      preemption_bound = None;
      run = prefetch_wake;
    };
    {
      name = "prefetch-stop";
      descr = "prefetch stop handshake wakes and joins a producer waiting for space";
      expect = Pass;
      max_schedules = 200_000;
      preemption_bound = None;
      run = prefetch_stop;
    };
    {
      name = "prefetch-failure";
      descr = "prefetch producer exception re-raises at its item, then the stream ends";
      expect = Pass;
      max_schedules = 200_000;
      preemption_bound = None;
      run = prefetch_failure;
    };
    {
      name = "seeded-mailbox-mpsc";
      descr = "SEEDED: SPSC ring driven by two producers loses a message";
      expect = Caught;
      max_schedules = 50_000;
      preemption_bound = None;
      run = seeded_mailbox_mpsc;
    };
    {
      name = "seeded-lost-publish";
      descr = "SEEDED: tail advanced before slot store loses the message";
      expect = Caught;
      max_schedules = 50_000;
      preemption_bound = None;
      run = seeded_lost_publish;
    };
    {
      name = "seeded-barrier-no-sense";
      descr = "SEEDED: barrier without sense reversal escapes episode 2 early";
      expect = Caught;
      max_schedules = 50_000;
      preemption_bound = None;
      run = seeded_barrier_no_sense;
    };
    {
      name = "seeded-spsc-debug";
      descr = "SEEDED: debug-mode SPSC contract assertion fires on MPSC use";
      expect = Caught;
      max_schedules = 50_000;
      preemption_bound = None;
      run = seeded_spsc_debug;
    };
    {
      name = "seeded-prefetch-no-wait";
      descr = "SEEDED: a producer that pushes without waiting grows the ring under a live consumer";
      expect = Caught;
      max_schedules = 50_000;
      preemption_bound = None;
      run = seeded_prefetch_no_wait;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let run_scenario s =
  Sched.check ~max_schedules:s.max_schedules ?preemption_bound:s.preemption_bound s.run

(* A scenario is green when the checker's verdict matches [expect]:
   Pass needs a clean exhaustive exploration (a bound hit means we can
   no longer claim the property), Caught needs a violation. *)
let outcome_ok s (r : Sched.report) =
  match s.expect with
  | Pass -> r.violation = None && not r.bound_hit
  | Caught -> r.violation <> None
