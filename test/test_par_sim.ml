(* Tests for the conservative time-window parallel engine: spec parsing,
   the window loop and barrier in isolation, the SPSC mailbox against a
   queue model, and the headline guarantees — results independent of the
   domain count, byte-identical to the sequential engine at pinned
   (config, seed) points, honest degradation everywhere the model has no
   lookahead, and refusal to nest inside a --jobs sweep. *)

module Par_sim = Repro_engine.Par_sim
module Mailbox = Repro_engine.Mailbox
module Pool = Repro_engine.Pool
module Cluster = Repro_cluster.Cluster
module Lb_policy = Repro_cluster.Lb_policy
module Hedge = Repro_cluster.Hedge
module Raft = Repro_raft.Raft
module Systems = Repro_runtime.Systems
module Metrics = Repro_runtime.Metrics
module Tracing = Repro_runtime.Tracing
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival

(* --- engine spec parsing ----------------------------------------------- *)

let test_spec_parsing () =
  let ok s expect =
    match Par_sim.of_string s with
    | Ok got -> Alcotest.(check string) s expect (Par_sim.to_string got)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "seq" "seq";
  ok "sequential" "seq";
  ok "par:3" "par:3";
  ok "PAR:2" "par:2";
  (match Par_sim.of_string "par" with
  | Ok (Par_sim.Par { domains }) ->
    Alcotest.(check bool) "par picks >= 1 domain" true (domains >= 1)
  | _ -> Alcotest.fail "bare par rejected");
  let rejected s = match Par_sim.of_string s with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "par:0 rejected" true (rejected "par:0");
  Alcotest.(check bool) "par:x rejected" true (rejected "par:x");
  Alcotest.(check bool) "garbage rejected" true (rejected "fast")

(* --- the window loop on a toy model ------------------------------------ *)

(* One shard holding a fixed event list; no host events. The loop must
   consume everything, and skip-ahead must cross the large gaps in one
   barrier round each: events {0, 3, 1_000, 5_000} under a 10 ns window
   are three windows, not five hundred. *)
let test_run_windows_skip_ahead () =
  let pending = ref [ 0; 3; 1_000; 5_000 ] in
  let consumed = ref [] in
  let shard_step ~shard:_ ~until =
    let now, later = List.partition (fun t -> t <= until) !pending in
    consumed := !consumed @ now;
    pending := later
  in
  let shard_next ~shard:_ = match !pending with [] -> max_int | t :: _ -> t in
  let windows =
    Par_sim.run_windows ~domains:1 ~n_shards:1 ~window_ns:10 ~shard_step ~shard_next
      ~host_step:(fun ~start:_ ~until:_ -> max_int)
      ~host_next:(fun () -> max_int)
      ~stopped:(fun () -> false)
      ()
  in
  Alcotest.(check (list int)) "all events consumed in order" [ 0; 3; 1_000; 5_000 ] !consumed;
  Alcotest.(check int) "three windows, gaps skipped" 3 windows

let test_run_windows_validation () =
  let nop_shard ~shard:_ ~until:_ = () in
  let no_next ~shard:_ = max_int in
  let raises_invalid f =
    match f () with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "window_ns = 0 rejected" true
    (raises_invalid (fun () ->
         Par_sim.run_windows ~domains:2 ~n_shards:1 ~window_ns:0 ~shard_step:nop_shard
           ~shard_next:no_next
           ~host_step:(fun ~start:_ ~until:_ -> max_int)
           ~host_next:(fun () -> max_int)
           ~stopped:(fun () -> false)
           ()));
  Alcotest.(check bool) "n_shards = 0 rejected" true
    (raises_invalid (fun () ->
         Par_sim.run_windows ~domains:2 ~n_shards:0 ~window_ns:10 ~shard_step:nop_shard
           ~shard_next:no_next
           ~host_step:(fun ~start:_ ~until:_ -> max_int)
           ~host_next:(fun () -> max_int)
           ~stopped:(fun () -> false)
           ()))

(* --- barrier ------------------------------------------------------------ *)

let test_barrier_episodes () =
  (* 5 parties (4 spawned + this domain), 100 episodes. Every party
     increments before the first wait; party 0 checks the full count
     between the waits — exactly the engine's phase structure. Passing
     proves no episode ever releases early and the sense flip is seen by
     parked waiters too (this host may have 1 core). *)
  let parties = 5 and episodes = 100 in
  let b = Par_sim.Barrier.create ~parties () in
  let count = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let party me =
    for ep = 1 to episodes do
      Atomic.incr count;
      Par_sim.Barrier.wait b ~me;
      if me = 0 && Atomic.get count <> parties * ep then Atomic.incr failures;
      Par_sim.Barrier.wait b ~me
    done
  in
  let ds = Array.init (parties - 1) (fun i -> Domain.spawn (fun () -> party (i + 1))) in
  party 0;
  Array.iter Domain.join ds;
  Alcotest.(check int) "no early release" 0 (Atomic.get failures);
  Alcotest.(check int) "all increments seen" (parties * episodes) (Atomic.get count)

(* --- mailbox ------------------------------------------------------------ *)

let test_mailbox_growth () =
  let mb = Mailbox.create ~capacity:3 () in
  Alcotest.(check int) "capacity rounds up to a power of two" 4 (Mailbox.capacity mb);
  for i = 0 to 999 do
    Mailbox.push mb i
  done;
  Alcotest.(check int) "length after pushes" 1_000 (Mailbox.length mb);
  Alcotest.(check bool) "grew" true (Mailbox.capacity mb >= 1_024);
  let got = ref [] in
  Mailbox.drain mb ~f:(fun x -> got := x :: !got);
  Alcotest.(check (list int)) "FIFO across growth" (List.init 1_000 Fun.id) (List.rev !got);
  Alcotest.(check bool) "empty after drain" true (Mailbox.is_empty mb)

(* Random interleavings of pushes and pops against a Queue model. An op
   list is ints: >= 0 pushes the value, < 0 pops once. *)
let prop_mailbox_matches_queue =
  QCheck.Test.make ~count:300 ~name:"mailbox behaves as a FIFO queue"
    QCheck.(list (int_range (-2) 50))
    (fun ops ->
      let mb = Mailbox.create ~capacity:2 () in
      let q = Queue.create () in
      List.for_all
        (fun op ->
          if op >= 0 then begin
            Mailbox.push mb op;
            Queue.push op q;
            Mailbox.length mb = Queue.length q
          end
          else
            match (Mailbox.pop mb, Queue.take_opt q) with
            | None, None -> true
            | Some a, Some b -> a = b
            | _ -> false)
        ops
      && Mailbox.length mb = Queue.length q)

(* --- cluster equivalence ------------------------------------------------ *)

let bimodal =
  Mix.of_dist ~name:"bimodal"
    (Service_dist.Bimodal { p_short = 0.5; short_ns = 1_000.; long_ns = 100_000. })

let run_rack ?(stragglers = []) ?(steal = false) ?(hedge = Hedge.Off) ?(rtt_cycles = 4_000)
    ?tracer ?(n = 4_000) ~seed ~engine () =
  let cluster =
    Cluster.homogeneous ~policy:Lb_policy.Po2c ~rtt_cycles ~hedge ~steal ~stragglers
      ~instances:3
      (Systems.concord ~n_workers:4 ())
  in
  Cluster.run ~cluster ~mix:bimodal
    ~arrival:(Arrival.Poisson { rate_rps = 1.5e6 })
    ~n_requests:n ~seed ?tracer ~engine ()

(* The comparison the ISSUE asks for: p50 / p99 / goodput byte-identical
   at 17 significant digits, plus the routing histogram — if any
   balancer decision differed, [routed] catches it long before the
   percentiles move. *)
let signature (s : Cluster.summary) =
  let m = s.Cluster.cluster in
  Printf.sprintf "p50=%.17g p99=%.17g goodput=%.17g routed=%s per_inst_p99=%s"
    m.Metrics.p50_slowdown m.Metrics.p99_slowdown m.Metrics.goodput_rps
    (String.concat "," (Array.to_list (Array.map string_of_int s.Cluster.routed)))
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun (p : Metrics.summary) -> Printf.sprintf "%.17g" p.Metrics.p99_slowdown)
             s.Cluster.per_instance)))

(* Pinned (config, seed) points where the windowed run is byte-identical
   to the shared-clock run. Identity is seed-dependent by design: the two
   engines may order same-nanosecond events on different shards
   differently (the documented tie-break divergence, DESIGN.md); at these
   seeds no such tie occurs, so any difference is a real engine bug. *)
let check_equivalence ~name ?(stragglers = []) ?(steal = false) ~seed () =
  let expect = signature (run_rack ~stragglers ~steal ~seed ~engine:Par_sim.Seq ()) in
  List.iter
    (fun domains ->
      let s = run_rack ~stragglers ~steal ~seed ~engine:(Par_sim.Par { domains }) () in
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d par:%d == seq" name seed domains)
        expect (signature s);
      Alcotest.(check (result unit string)) "invariants" (Ok ()) (Cluster.check_invariants s);
      Alcotest.(check int) "domains_used clamped to instances" (min domains 3)
        s.Cluster.domains_used)
    [ 1; 2; 4 ]

let test_equivalence_base () = check_equivalence ~name:"po2c" ~seed:2 ()
let test_equivalence_straggler () =
  check_equivalence ~name:"straggler" ~stragglers:[ (2, 2.5) ] ~seed:3 ()
let test_equivalence_steal () = check_equivalence ~name:"steal" ~steal:true ~seed:2 ()

(* The bench/e2e [rack-par] workload at seed 42: 4 default Concord servers,
   po2c, rtt 4000 cycles, the USR mix at 8 MRps. Window starts follow the
   earliest pending event, so cancelling dead timers re-timed its windows
   and reordered same-nanosecond cross-shard ties (p99 5.708 -> 5.774). *)
let run_rack_par ~engine =
  let cluster =
    Cluster.homogeneous ~policy:Lb_policy.Po2c ~rtt_cycles:4_000 ~instances:4
      (Systems.concord ())
  in
  Cluster.run ~cluster ~mix:Repro_workload.Presets.usr
    ~arrival:(Arrival.Poisson { rate_rps = 8.0e6 })
    ~n_requests:60_000 ~seed:42 ~engine ()

let test_domain_count_independence () =
  (* Stronger than seq-identity, and it must hold at EVERY seed: the
     domain count decides who executes a shard, never what order records
     merge in. Seed 4 is a seed where seq and par tie-diverge — the
     independence guarantee survives exactly where identity does not. *)
  List.iter
    (fun (name, run) ->
      let s1 = signature (run (Par_sim.Par { domains = 1 })) in
      let s2 = signature (run (Par_sim.Par { domains = 2 })) in
      let s4 = signature (run (Par_sim.Par { domains = 4 })) in
      Alcotest.(check string) (name ^ ": par:1 == par:2") s1 s2;
      Alcotest.(check string) (name ^ ": par:2 == par:4") s2 s4)
    [
      ("bimodal rack, seed 4", fun engine -> run_rack ~seed:4 ~engine ());
      ("rack-par, seed 42", fun engine -> run_rack_par ~engine);
    ]

let test_straggler_no_deadlock () =
  (* A 20x straggler makes one shard's windows vastly heavier than the
     others; the barrier must still close every window. *)
  let s =
    run_rack ~stragglers:[ (1, 20.0) ] ~n:2_000 ~seed:7
      ~engine:(Par_sim.Par { domains = 2 })
      ()
  in
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Cluster.check_invariants s);
  Alcotest.(check bool) "ran parallel" true (s.Cluster.engine <> Par_sim.Seq)

(* --- degradation -------------------------------------------------------- *)

let test_rtt0_degrades () =
  (* rtt 0 means a zero-width window: no lookahead, nothing to overlap.
     The run must fall back to the sequential engine, not hang or lie. *)
  let s = run_rack ~rtt_cycles:0 ~n:1_000 ~seed:1 ~engine:(Par_sim.Par { domains = 2 }) () in
  Alcotest.(check string) "engine degraded" "seq" (Par_sim.to_string s.Cluster.engine);
  Alcotest.(check int) "one domain" 1 s.Cluster.domains_used;
  let seq = run_rack ~rtt_cycles:0 ~n:1_000 ~seed:1 ~engine:Par_sim.Seq () in
  Alcotest.(check string) "degraded run is the seq run" (signature seq) (signature s)

let test_hedged_degrades () =
  (* Hedging's winner-takes-all cancellation flag is a zero-delay
     cross-shard coupling; a hedged parallel request must degrade and
     match the sequential run exactly (trivially — it IS that run). *)
  let hedge = Hedge.Fixed { delay_ns = 20_000 } in
  let s = run_rack ~hedge ~n:1_500 ~seed:1 ~engine:(Par_sim.Par { domains = 4 }) () in
  Alcotest.(check string) "engine degraded" "seq" (Par_sim.to_string s.Cluster.engine);
  let seq = run_rack ~hedge ~n:1_500 ~seed:1 ~engine:Par_sim.Seq () in
  Alcotest.(check string) "hedged par == hedged seq" (signature seq) (signature s);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Cluster.check_invariants s)

let test_tracer_degrades () =
  let tracer = Tracing.create ~capacity:65_536 () in
  let s = run_rack ~tracer ~n:500 ~seed:1 ~engine:(Par_sim.Par { domains = 2 }) () in
  Alcotest.(check string) "engine degraded" "seq" (Par_sim.to_string s.Cluster.engine)

let test_raft_degrades () =
  (* Consensus hand-offs are co-located (zero lookahead on every edge of
     the member graph); Raft always runs sequentially, whatever was
     asked. *)
  let raft = Raft.homogeneous ~nodes:3 (Systems.concord ~n_workers:4 ()) in
  let s =
    Raft.run ~raft ~mix:bimodal
      ~arrival:(Arrival.Poisson { rate_rps = 2.0e5 })
      ~n_requests:800 ~seed:3
      ~engine:(Par_sim.Par { domains = 3 })
      ()
  in
  Alcotest.(check string) "engine degraded" "seq" (Par_sim.to_string s.Raft.engine);
  Alcotest.(check int) "one domain" 1 s.Raft.domains_used;
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Raft.check_invariants s)

(* --- pool nesting ------------------------------------------------------- *)

let test_pool_nesting_refused () =
  Alcotest.(check bool) "not in pool at top level" false (Pool.in_pool ());
  let inner () =
    Par_sim.run_windows ~domains:2 ~n_shards:1 ~window_ns:10
      ~shard_step:(fun ~shard:_ ~until:_ -> ())
      ~shard_next:(fun ~shard:_ -> max_int)
      ~host_step:(fun ~start:_ ~until:_ -> max_int)
      ~host_next:(fun () -> max_int)
      ~stopped:(fun () -> false)
      ()
  in
  let results =
    Pool.parallel_map ~domains:2
      (fun _ ->
        Alcotest.(check bool) "worker sees in_pool" true (Pool.in_pool ());
        match inner () with
        | (_ : int) -> "ran"
        | exception Failure msg when Astring_contains.contains msg "refusing" -> "refused"
        | exception e -> Printexc.to_string e)
      [ 1; 2 ]
  in
  Alcotest.(check (list string)) "both workers refused" [ "refused"; "refused" ] results

let suite =
  [
    Alcotest.test_case "engine spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "window loop: consume + skip-ahead" `Quick test_run_windows_skip_ahead;
    Alcotest.test_case "window loop: validation" `Quick test_run_windows_validation;
    Alcotest.test_case "barrier: 5 parties x 100 episodes" `Quick test_barrier_episodes;
    Alcotest.test_case "mailbox: growth preserves FIFO" `Quick test_mailbox_growth;
    QCheck_alcotest.to_alcotest prop_mailbox_matches_queue;
    Alcotest.test_case "par == seq (po2c rack)" `Slow test_equivalence_base;
    Alcotest.test_case "par == seq (straggler)" `Slow test_equivalence_straggler;
    Alcotest.test_case "par == seq (stealing)" `Slow test_equivalence_steal;
    Alcotest.test_case "results independent of domain count" `Slow
      test_domain_count_independence;
    Alcotest.test_case "straggler shard cannot deadlock the barrier" `Quick
      test_straggler_no_deadlock;
    Alcotest.test_case "rtt=0 degrades to seq" `Quick test_rtt0_degrades;
    Alcotest.test_case "hedging degrades to seq" `Quick test_hedged_degrades;
    Alcotest.test_case "tracing degrades to seq" `Quick test_tracer_degrades;
    Alcotest.test_case "raft degrades to seq" `Quick test_raft_degrades;
    Alcotest.test_case "nesting inside --jobs refused" `Quick test_pool_nesting_refused;
  ]
