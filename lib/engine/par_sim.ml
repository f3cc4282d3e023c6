(* Conservative time-window parallel discrete-event engine.

   The model layer partitions a simulation into [n_shards] logical
   processes (one per server instance) plus one host process (the load
   balancer / protocol front-end). When every host -> shard influence
   carries at least [window_ns] of simulated delay (the lookahead: one
   wire leg of the inter-server RTT), the run can proceed in windows of
   that width:

     phase A   all shards run their private event heaps through
               [T, T + window_ns), in parallel, one domain each;
               records of anything the host must see (completions,
               surrender results) are pushed into per-shard SPSC
               outboxes as they happen.
     barrier
     phase B   the coordinating domain drains the outboxes in shard
               order, merges the records into the host heap — giving
               the deterministic (timestamp, shard id, push sequence)
               order — and runs the host through the same window. Host
               decisions made at time t reach a shard as inbox actions
               stamped t + one wire leg >= T + window_ns, i.e. never
               inside a window a shard has already executed. That is
               the whole correctness argument: shards lead, the host
               lags, and no message ever arrives in the past.
     barrier
     repeat at the next window, whose start skips ahead to the
     earliest pending event (shard heaps, host heap, undrained inbox
     actions), so idle stretches cost one barrier round, not
     window-by-window spinning.

   Determinism does not depend on the domain count: shard-to-domain
   assignment only decides which OS thread runs a shard, never the order
   records merge in. The window barrier is a sense-reversing combining
   tree of [Atomic] counters — arrivals climb the tree, the last one
   flips the shared sense, everyone else spins on it briefly with
   [Domain.cpu_relax] and then parks on a condition variable — so a
   window boundary costs two tree traversals on a machine with enough
   cores, and an OS wakeup (not a burned scheduler quantum) on one
   without. *)

type t = Seq | Par of { domains : int }

let default_domains () = max 1 (Domain.recommended_domain_count ())

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "seq" | "sequential" -> Ok Seq
  | "par" | "parallel" -> Ok (Par { domains = default_domains () })
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "par" -> (
      let n = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt n with
      | Some d when d >= 1 -> Ok (Par { domains = d })
      | _ -> Error (Printf.sprintf "engine: bad domain count %S (want par:N, N >= 1)" n))
    | _ -> Error (Printf.sprintf "engine: unknown spec %S (want seq | par | par:N)" s))

let to_string = function
  | Seq -> "seq"
  | Par { domains } -> Printf.sprintf "par:%d" domains

let describe = function
  | Seq -> "seq"
  | Par { domains } -> Printf.sprintf "par (%d domains)" domains

(* ---- sense-reversing combining-tree barrier --------------------------- *)

(* Functor over the primitives world so the identical protocol runs on
   real Atomics in production (Barrier below = Barrier_gen applied to
   Primitives.Real) and under Repro_check's traced shims, where the model
   checker explores every DPOR-inequivalent interleaving of the climb /
   flip / park protocol. *)
module Barrier_gen (P : Primitives.S) = struct
  let fan_in = 4

  (* How long a waiter spins on the sense flag before parking. Spinning
     is the fast path on real multicore hosts (a window boundary costs a
     few hundred ns); parking is what keeps a machine with fewer cores
     than domains from burning whole scheduler quanta per crossing — the
     blocked waiter yields its core to the domain it is waiting for. The
     mutex below exists only for that parking slow path: arrival counting
     and release stay on the atomic tree. Overridable per-barrier so the
     model checker can keep the spin path short (each spin iteration is a
     schedulable step there) while still covering both it and parking. *)
  let default_spin_limit = 1024

  type node = { count : int P.Atomic.t; expected : int; parent : int }

  type t = {
    nodes : node array;  (* level order: leaves first, root last *)
    leaf_of : int array;  (* participant -> leaf node index *)
    sense : bool P.Atomic.t;
    parties : int;
    spin_limit : int;
    park : P.Mutex.t;
    unpark : P.Condition.t;
  }

  let create ?(spin_limit = default_spin_limit) ~parties () =
    if parties < 1 then invalid_arg "Barrier.create: parties must be >= 1";
    (* Build levels bottom-up: level 0 groups participants [fan_in] at a
       time, each further level groups the nodes below it, until one node
       remains. [parent = -1] marks the root. *)
    let nodes = ref [] in
    let n_nodes = ref 0 in
    let leaf_of = Array.make parties 0 in
    let rec build ~children =
      let n = (children + fan_in - 1) / fan_in in
      let level_first = !n_nodes in
      for j = 0 to n - 1 do
        let expected = min fan_in (children - (j * fan_in)) in
        nodes := (level_first + j, expected) :: !nodes;
        incr n_nodes
      done;
      if n > 1 then build ~children:n
    in
    build ~children:parties;
    (* Second pass: parents. Node [j] of a level with [n] nodes reports to
       node [j / fan_in] of the level above; the root reports to nobody. *)
    let specs = List.rev !nodes in
    let arr = Array.make !n_nodes { count = P.Atomic.make 0; expected = 0; parent = -1 } in
    let rec link ~level_first ~n =
      let next_first = level_first + n in
      let n_above = (n + fan_in - 1) / fan_in in
      List.iter
        (fun (idx, expected) ->
          if idx >= level_first && idx < next_first then
            arr.(idx) <-
              {
                count = P.Atomic.make 0;
                expected;
                parent = (if n = 1 then -1 else next_first + ((idx - level_first) / fan_in));
              })
        specs;
      if n > 1 then link ~level_first:next_first ~n:n_above
    in
    link ~level_first:0 ~n:((parties + fan_in - 1) / fan_in);
    for p = 0 to parties - 1 do
      leaf_of.(p) <- p / fan_in
    done;
    {
      nodes = arr;
      leaf_of;
      sense = P.Atomic.make false;
      parties;
      spin_limit;
      park = P.Mutex.create ();
      unpark = P.Condition.create ();
    }

  let wait t ~me =
    if t.parties > 1 then begin
      let sense = P.Atomic.get t.sense in
      (* Climb: the last arrival at each node resets it for the next
         episode and carries the signal one level up; the one that tops
         out at the root flips the shared sense, releasing everyone. All
         counters on the winner's path are zero again before the flip, so
         re-arrivals in the next episode are safe. *)
      let release () =
        P.Atomic.set t.sense (not sense);
        (* Wake any parked waiters. The lock orders this broadcast after
           a parker's predicate re-check, so no wakeup is lost. *)
        P.Mutex.lock t.park;
        P.Condition.broadcast t.unpark;
        P.Mutex.unlock t.park
      in
      let await () =
        let spins = ref 0 in
        while P.Atomic.get t.sense = sense && !spins < t.spin_limit do
          incr spins;
          P.Dom.cpu_relax ()
        done;
        if P.Atomic.get t.sense = sense then begin
          P.Mutex.lock t.park;
          while P.Atomic.get t.sense = sense do
            P.Condition.wait t.unpark t.park
          done;
          P.Mutex.unlock t.park
        end
      in
      let rec climb node =
        let n = t.nodes.(node) in
        if P.Atomic.fetch_and_add n.count 1 + 1 = n.expected then begin
          P.Atomic.set n.count 0;
          if n.parent >= 0 then climb n.parent else release ()
        end
        else await ()
      in
      climb t.leaf_of.(me)
    end
end

module Barrier = Barrier_gen (Primitives.Real)

(* ---- the window loop -------------------------------------------------- *)

let run_windows ~domains ~n_shards ~window_ns ~shard_step ~shard_next ~host_step ~host_next
    ~stopped () =
  if n_shards < 1 then invalid_arg "Par_sim.run_windows: need at least one shard";
  if window_ns <= 0 then
    invalid_arg "Par_sim.run_windows: window_ns must be positive (zero lookahead cannot be \
                 parallelized; run the sequential engine instead)";
  if Pool.in_pool () then
    failwith
      "Par_sim: refusing to start the parallel engine inside Pool.parallel_map (a --jobs \
       sweep already owns the machine's domains); use --engine seq or --jobs 1";
  let parties = max 1 (min domains n_shards) in
  let barrier = Barrier.create ~parties () in
  (* Published by each shard's owner at the end of phase A; read by the
     coordinator when it picks the next window start. *)
  let shard_nexts = Array.init n_shards (fun _ -> Atomic.make max_int) in
  let window_start = Atomic.make 0 in
  let finished = Atomic.make false in
  let windows = ref 0 in
  (* Static shard ownership: participant [p] owns the contiguous block
     of shards [p * n_shards / parties, (p + 1) * n_shards / parties),
     at least one each. A model allocates its per-shard state in shard
     order, so neighbouring shards' hot fields sit side by side in memory:
     a block keeps such neighbours on one core, where interleaved
     ownership would have two cores write to the same cache lines. Fixed
     assignment keeps every mailbox single-consumer and makes the results
     independent of the domain count — ownership only decides who does the
     work, never what order it merges in. *)
  let run_shards participant t =
    let until = t + window_ns - 1 in
    for s = participant * n_shards / parties to ((participant + 1) * n_shards / parties) - 1 do
      shard_step ~shard:s ~until;
      Atomic.set shard_nexts.(s) (shard_next ~shard:s)
    done
  in
  let t0 =
    let m = ref (host_next ()) in
    for s = 0 to n_shards - 1 do
      m := min !m (shard_next ~shard:s)
    done;
    !m
  in
  if t0 = max_int || stopped () then 0
  else begin
    Atomic.set window_start t0;
    let worker_loop participant =
      let rec loop () =
        run_shards participant (Atomic.get window_start);
        Barrier.wait barrier ~me:participant;
        (* coordinator runs phase B here *)
        Barrier.wait barrier ~me:participant;
        if not (Atomic.get finished) then loop ()
      in
      loop ()
    in
    let spawned = Array.init (parties - 1) (fun i -> Domain.spawn (fun () -> worker_loop (i + 1))) in
    let rec coordinate () =
      let t = Atomic.get window_start in
      run_shards 0 t;
      Barrier.wait barrier ~me:0;
      let pending_actions = host_step ~start:t ~until:(t + window_ns - 1) in
      incr windows;
      let next =
        let m = ref (min (host_next ()) pending_actions) in
        Array.iter (fun a -> m := min !m (Atomic.get a)) shard_nexts;
        !m
      in
      if stopped () || next = max_int then Atomic.set finished true
      else Atomic.set window_start next;
      Barrier.wait barrier ~me:0;
      if not (Atomic.get finished) then coordinate ()
    in
    coordinate ();
    Array.iter Domain.join spawned;
    !windows
  end
