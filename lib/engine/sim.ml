type 'e t = {
  mutable now : int;
  mutable stopped : bool;
  mutable processed : int;
  events : 'e Heap.t;
}

let create ?(capacity = 1024) () =
  { now = 0; stopped = false; processed = 0; events = Heap.create ~capacity () }

let now t = t.now

(* [max_int] is the "no next event" sentinel of [next_time], so no event
   may be scheduled there: under [Par_sim] it would never be run. *)
let schedule_at t ~time e =
  if time < t.now then invalid_arg "Sim.schedule_at: time is in the past";
  if time = max_int then invalid_arg "Sim.schedule_at: time max_int is out of range";
  Heap.add t.events ~key:time e

(* [t.now >= 0], so [max_int - t.now] cannot overflow; comparing against it
   catches a [t.now + delay] that would wrap negative. *)
let schedule_after t ~delay e =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  if delay >= max_int - t.now then invalid_arg "Sim.schedule_after: time overflows max_int";
  Heap.add t.events ~key:(t.now + delay) e

let pending t = Heap.length t.events

let next_time t =
  if Heap.is_empty t.events then max_int else Heap.unsafe_min_key t.events
let events_processed t = t.processed
let stop t = t.stopped <- true

(* The loop body allocates nothing: key and value come out of the heap
   through the unsafe accessors instead of boxed options, so steady-state
   event dispatch is GC-silent (asserted by the allocation regression test
   in test/test_golden_perf.ml). *)
let run t ?until ~handler () =
  t.stopped <- false;
  let horizon = match until with None -> max_int | Some h -> h in
  let events = t.events in
  let rec loop () =
    if (not t.stopped) && not (Heap.is_empty events) then begin
      let key = Heap.unsafe_min_key events in
      if key <= horizon then begin
        let e = Heap.pop_unsafe events in
        t.now <- key;
        t.processed <- t.processed + 1;
        handler t e;
        loop ()
      end
    end
  in
  loop ()
