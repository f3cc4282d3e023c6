(* Tests for the replicated tier: consensus overhead shape, lease reads,
   the device wait of consensus persistence, determinism, leader failover,
   the write-hedging guard, and the Instance.cancel-after-completion
   no-op. *)

module Raft = Repro_raft.Raft
module Server = Repro_runtime.Server
module Systems = Repro_runtime.Systems
module Metrics = Repro_runtime.Metrics
module Request = Repro_runtime.Request
module Hedge = Repro_cluster.Hedge
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival
module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng

let fixed_mix us = Mix.of_dist ~name:"fixed" (Service_dist.Fixed (us *. 1e3))

(* 4 workers per member on Fixed(50us): 80 kRps direct capacity per member;
   4 kRps keeps queueing negligible so latency ratios are structural. *)
let small_config () = Systems.concord ~n_workers:4 ()

let run_group ?(nodes = 3) ?(write_ratio = 0.5) ?read_leases ?rtt_cycles ?hedge ?stragglers
    ?kill_leader_at_ns ?(rate = 4.0e3) ?(n = 4_000) ?(seed = 42) () =
  let raft =
    Raft.homogeneous ?read_leases ?rtt_cycles ?hedge ?stragglers ?kill_leader_at_ns
      ~write_ratio ~nodes (small_config ())
  in
  Raft.run ~raft ~mix:(fixed_mix 50.0)
    ~arrival:(Arrival.Poisson { rate_rps = rate })
    ~n_requests:n ~seed ()

(* The direct baseline: the same machinery with consensus off the path —
   one member, no writes, reads served straight from its lease. *)
let direct_p50 () =
  let s = run_group ~nodes:1 ~write_ratio:0.0 () in
  Alcotest.(check bool) "direct baseline has reads" true (s.Raft.read_p50_ns > 0.0);
  s.Raft.read_p50_ns

(* --- consensus overhead shape ------------------------------------------- *)

let test_overhead_shape () =
  (* The SNIPPETS direct-vs-consensus table shape: writes pay ~3-5x at one
     member (durable local append), ~15-25x at three and five (append +
     one-way + follower append + one-way back), while lease reads stay
     within 10% of direct at every group size. *)
  let direct = direct_p50 () in
  List.iter
    (fun (nodes, lo, hi) ->
      let s = run_group ~nodes () in
      Alcotest.(check (result unit string))
        (Printf.sprintf "%d-node invariants" nodes)
        (Ok ()) (Raft.check_invariants s);
      let w = s.Raft.write_p50_ns /. direct in
      if w < lo || w > hi then
        Alcotest.failf "%d nodes: write overhead %.2fx outside [%.1f, %.1f]" nodes w lo hi;
      let r = s.Raft.read_p50_ns /. direct in
      if r < 0.90 || r > 1.10 then
        Alcotest.failf "%d nodes: lease read p50 %.2fx direct (want within 10%%)" nodes r)
    [ (1, 3.0, 6.0); (3, 12.0, 28.0); (5, 12.0, 28.0) ]

let test_reads_through_consensus_when_leases_off () =
  let leased = run_group () in
  let unleased = run_group ~read_leases:false () in
  Alcotest.(check (result unit string)) "invariants" (Ok ())
    (Raft.check_invariants unleased);
  (* without leases a read pays the same quorum round a write does *)
  Alcotest.(check bool) "consensus reads cost like writes" true
    (unleased.Raft.read_p50_ns > 0.8 *. unleased.Raft.write_p50_ns);
  Alcotest.(check bool) "lease reads are much cheaper" true
    (unleased.Raft.read_p50_ns > 5.0 *. leased.Raft.read_p50_ns)

let test_replication_reaches_followers () =
  let s = run_group () in
  let leader = match s.Raft.final_leader with Some l -> l | None -> Alcotest.fail "no leader" in
  Alcotest.(check int) "all writes committed (plus no no-ops in term 1)" s.Raft.writes
    s.Raft.committed;
  Array.iteri
    (fun i len ->
      Alcotest.(check bool)
        (Printf.sprintf "member %d log replicated" i)
        true
        (len >= s.Raft.commit_indexes.(leader) - 8);
      Alcotest.(check bool)
        (Printf.sprintf "member %d WAL backs the log" i)
        true
        (s.Raft.wal_records.(i) >= len))
    s.Raft.log_lengths;
  (* single-member group: no followers to merge — the pinned
     Stats.merge_all [] behavior keeps this 0.0 instead of trapping *)
  let solo = run_group ~nodes:1 ~n:1_500 () in
  Alcotest.(check (float 1e-9)) "no followers, no follower p99" 0.0
    solo.Raft.follower_p99_slowdown

let test_empty_class_has_no_latency () =
  (* A class with no post-warm-up sample reports nan, not a 0.0 latency;
     the other class still reports a positive one. *)
  let absent what ns = Alcotest.(check bool) (what ^ " is nan") true (Float.is_nan ns) in
  let present what ns = Alcotest.(check bool) (what ^ " > 0") true (ns > 0.0) in
  let writes = run_group ~write_ratio:1.0 ~n:1_500 () in
  Alcotest.(check int) "write-only: no reads" 0 writes.Raft.reads;
  absent "write-only read mean" writes.Raft.read_mean_ns;
  absent "write-only read p50" writes.Raft.read_p50_ns;
  absent "write-only read p99" writes.Raft.read_p99_ns;
  present "write-only write p50" writes.Raft.write_p50_ns;
  let reads = run_group ~write_ratio:0.0 ~n:1_500 () in
  Alcotest.(check int) "read-only: no writes" 0 reads.Raft.writes;
  absent "read-only write mean" reads.Raft.write_mean_ns;
  absent "read-only write p50" reads.Raft.write_p50_ns;
  absent "read-only write p99" reads.Raft.write_p99_ns;
  present "read-only read p50" reads.Raft.read_p50_ns

(* --- consensus persistence is a device wait ------------------------------ *)

let fixed_1us_group ?(nodes = 3) config =
  let raft = Raft.homogeneous ~write_ratio:1.0 ~nodes config in
  let s =
    Raft.run ~raft ~mix:Repro_workload.Presets.fixed_1us
      ~arrival:(Arrival.Poisson { rate_rps = 20e3 })
      ~n_requests:2_000 ()
  in
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Raft.check_invariants s);
  s

let member_preemptions (s : Raft.summary) =
  Array.fold_left (fun acc (m : Metrics.summary) -> acc + m.Metrics.preemptions) 0 s.Raft.per_node

(* Only the WAL encode of a mini-request runs on a worker, well inside one
   quantum; the fsync it waits for holds no core a probe or an IPI could
   preempt. With 1 us client legs, no member preempts anything. *)
let test_consensus_never_preempted () =
  List.iter
    (fun (name, config) ->
      let s = fixed_1us_group config in
      Alcotest.(check int) (name ^ " members: no preemption") 0 (member_preemptions s))
    [ ("concord", Systems.concord ()); ("shinjuku", Systems.shinjuku ()) ]

(* One worker, writes only: if the 140 us durable append held the worker,
   20 kRps of writes would ask for 2.8 workers and the queue would grow
   for the whole run. A device wait leaves it ~6% busy. *)
let test_device_wait_frees_worker () =
  let s = fixed_1us_group ~nodes:1 (Systems.concord ~n_workers:1 ()) in
  if s.Raft.write_p50_ns >= 1.5 *. 140e3 then
    Alcotest.failf "write p50 %.1f us: the durable append holds the worker"
      (s.Raft.write_p50_ns /. 1e3)

(* The raft-3node benchmark's group (3 x concord, USR, 20 kRps), at the
   golden row's 2,000 requests. *)
let raft_3node_n = 2_000

let run_raft_3node ?events_out () =
  let raft = Raft.homogeneous ~nodes:3 (Systems.concord ()) in
  ignore
    (Raft.run_detailed ~raft ~mix:Repro_workload.Presets.usr
       ~arrival:(Arrival.Poisson { rate_rps = 20e3 })
       ~n_requests:raft_3node_n ?events_out ())

(* Consensus costs a few events per request, not a preemption every
   quantum. *)
let test_events_per_request () =
  let events = ref 0 in
  run_raft_3node ~events_out:events ();
  let per_req = float_of_int !events /. float_of_int raft_3node_n in
  if per_req > 40.0 then Alcotest.failf "%.1f events per request (want <= 40)" per_req

(* The same group allocates 2,741 B per request since its members count
   WAL records instead of encoding each into a byte log, and requests
   carry no preemption counter of their own; encoding the records
   allocated 2,895 B. The bound sits between the two. [Gc.minor_words]
   counts the words in the current minor heap too, which
   [Gc.quick_stat]'s field leaves out on OCaml 5.1. *)
let test_allocation_per_request () =
  run_raft_3node ();
  let w0 = Gc.minor_words () in
  run_raft_3node ();
  let bytes = (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8) in
  let per_req = bytes /. float_of_int raft_3node_n in
  if per_req > 2_830.0 then
    Alcotest.failf "%.0f B allocated per request (want <= 2,830)" per_req

(* [raft --breakdown]'s table describes the client arrivals: at most one
   lifecycle each, with the consensus minis and the hedge duplicates
   counted apart. Unfiltered, the same trace holds more lifecycles than
   there are arrivals. *)
let test_breakdown_covers_clients () =
  let raft =
    Raft.homogeneous ~hedge:(Hedge.Fixed { delay_ns = 150_000 }) ~stragglers:[ (1, 3.0) ]
      ~nodes:3 (small_config ())
  in
  let n = 3_000 in
  let tracer = Repro_runtime.Tracing.create ~capacity:(n * 64) () in
  let s =
    Raft.run ~raft ~mix:(fixed_mix 50.0) ~arrival:(Arrival.Poisson { rate_rps = 4e3 })
      ~n_requests:n ~tracer ()
  in
  Alcotest.(check bool) "hedges fired" true (s.Raft.hedges > 0);
  let all = Repro_runtime.Breakdown.of_trace tracer in
  let clients, left_out = Raft.client_breakdowns s all in
  let ids = List.map (fun b -> b.Repro_runtime.Breakdown.request) clients in
  Alcotest.(check bool) "unfiltered: more lifecycles than arrivals" true (List.length all > n);
  Alcotest.(check bool) "at most one lifecycle per arrival" true
    (List.length (List.sort_uniq compare ids) = List.length ids && List.length ids <= n);
  Alcotest.(check bool) "only arrivals' ids" true (List.for_all (fun id -> id >= 0 && id < n) ids);
  Alcotest.(check int) "the rest counted as left out" (List.length all - List.length clients)
    left_out

(* --- determinism --------------------------------------------------------- *)

let fingerprint (s : Raft.summary) =
  Printf.sprintf "w50=%.17g w99=%.17g r50=%.17g r99=%.17g c=%d e=%d t=%d resub=%d"
    s.Raft.write_p50_ns s.Raft.write_p99_ns s.Raft.read_p50_ns s.Raft.read_p99_ns
    s.Raft.committed s.Raft.elections s.Raft.final_term s.Raft.resubmissions

let test_determinism () =
  let a = run_group ~n:2_500 () in
  let b = run_group ~n:2_500 () in
  Alcotest.(check string) "same seed, same history" (fingerprint a) (fingerprint b);
  let c = run_group ~n:2_500 ~seed:7 () in
  Alcotest.(check bool) "different seed, different history" true
    (fingerprint a <> fingerprint c)

(* --- failover ------------------------------------------------------------ *)

let failover ?(seed = 42) () =
  (* 8 kRps keeps a few writes in flight at the kill instant so the replay
     path is exercised, not just the election. *)
  run_group ~rate:8.0e3 ~n:3_000 ~kill_leader_at_ns:100_000_000 ~seed ()

let test_failover_elects_new_leader () =
  let s = failover () in
  Alcotest.(check (result unit string)) "invariants across failover" (Ok ())
    (Raft.check_invariants s);
  Alcotest.(check bool) "initial leader is dead" false s.Raft.alive.(0);
  (match s.Raft.final_leader with
  | Some l when l <> 0 -> ()
  | other ->
    Alcotest.failf "expected a new leader, got %s"
      (match other with Some l -> string_of_int l | None -> "none"));
  Alcotest.(check bool) "leadership moved" true (s.Raft.leader_changes >= 1);
  Alcotest.(check bool) "a later term" true (s.Raft.final_term > 1);
  Alcotest.(check int) "every client answered" s.Raft.requests
    (s.Raft.client.Metrics.completed + s.Raft.client.Metrics.censored);
  Alcotest.(check int) "nothing censored" 0 s.Raft.client.Metrics.censored;
  Alcotest.(check bool) "stranded requests were replayed" true (s.Raft.resubmissions > 0)

let test_failover_deterministic () =
  let a = failover () in
  let b = failover () in
  Alcotest.(check string) "same failover, same history" (fingerprint a) (fingerprint b);
  Alcotest.(check (option int)) "same new leader" a.Raft.final_leader b.Raft.final_leader

(* --- hedging (lease reads only) ------------------------------------------ *)

let test_hedge_reads_never_writes () =
  let s =
    run_group
      ~hedge:(Hedge.Fixed { delay_ns = 150_000 })
      ~stragglers:[ (1, 3.0) ] ~n:5_000 ()
  in
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Raft.check_invariants s);
  Alcotest.(check bool) "hedges fired" true (s.Raft.hedges > 0);
  Alcotest.(check int) "writes never hedged" 0 s.Raft.writes_hedged;
  Alcotest.(check int) "every duplicate resolved" s.Raft.hedges
    (s.Raft.hedge_wins + (s.Raft.hedge_cancels - s.Raft.hedge_wins));
  Alcotest.(check bool) "losing legs cancelled" true (s.Raft.hedge_cancels >= s.Raft.hedge_wins)

(* --- capacity -------------------------------------------------------------- *)

(* With no writes, capacity is every member's workers over the mean service
   time. Each write adds one WAL encode at every member and runs its client
   leg at the leader, which then bounds the group. The CLI's default load
   point is 40% of it, the rate of the 5-member straggler failover golden
   row. *)
let test_capacity_rps () =
  let mix = Repro_workload.Presets.ycsb_a in
  let config = Systems.concord () in
  let reads_only = Raft.homogeneous ~write_ratio:0.0 ~nodes:5 config in
  Alcotest.(check (float 0.0)) "no writes: direct capacity"
    (float_of_int (5 * config.Repro_runtime.Config.n_workers) /. Mix.mean_service_ns mix *. 1e9)
    (Raft.capacity_rps reads_only mix);
  let raft = Raft.homogeneous ~nodes:5 ~stragglers:[ (2, 4.0) ] config in
  Alcotest.(check string) "40% of a 5-member group's capacity" "214157.32915216644"
    (Printf.sprintf "%.17g" (0.4 *. Raft.capacity_rps raft mix));
  (* without leases every read is logged and served at the leader too *)
  Alcotest.(check (float 0.0)) "leases off: every request through the log"
    (Raft.capacity_rps (Raft.homogeneous ~write_ratio:1.0 ~nodes:3 config) mix)
    (Raft.capacity_rps (Raft.homogeneous ~read_leases:false ~write_ratio:0.2 ~nodes:3 config) mix)

(* --- Instance.cancel after completion (documented no-op) ------------------ *)

type cancel_ev = Inst of Server.event | Cancel_now

let test_cancel_completed_request_is_noop () =
  let sim : cancel_ev Sim.t = Sim.create ~capacity:64 () in
  let completions = ref 0 in
  let cancels = ref 0 in
  let inst =
    Server.Instance.create ~sim
      ~lift:(fun e -> Inst e)
      ~config:(small_config ()) ~warmup_before:0 ~n_classes:1 ~rng:(Rng.create ~seed:1)
      ~on_complete:(fun _ -> incr completions)
      ~on_cancelled:(fun _ -> incr cancels) ()
  in
  let profile =
    { Mix.class_id = 0; service_ns = 5_000; lock_windows = [||]; probe_spacing_ns = 0.0 }
  in
  let req = Request.create ~id:0 ~arrival_ns:0 ~profile in
  Server.Instance.inject inst req;
  (* long after the 5us request has completed, revoke it *)
  Sim.schedule_at sim ~time:1_000_000 Cancel_now;
  Sim.run sim
    ~handler:(fun _ -> function
      | Inst e -> Server.Instance.handle inst e
      | Cancel_now ->
        Alcotest.(check int) "completed before the cancel" 1 !completions;
        req.Request.cancelled <- true;
        Server.Instance.cancel inst req)
    ();
  Alcotest.(check int) "still exactly one completion" 1 !completions;
  Alcotest.(check int) "no cancellation callback for a dead leg" 0 !cancels;
  Alcotest.(check int) "nothing left in flight" 0 (Server.Instance.inflight inst);
  Alcotest.(check int) "instance completion counter untouched" 1
    (Server.Instance.completed inst)

let suite =
  [
    Alcotest.test_case "consensus overhead shape (1/3/5 nodes)" `Slow test_overhead_shape;
    Alcotest.test_case "leases off: reads pay the quorum round" `Slow
      test_reads_through_consensus_when_leases_off;
    Alcotest.test_case "replication reaches every follower" `Quick
      test_replication_reaches_followers;
    Alcotest.test_case "an empty class reports no latency" `Quick
      test_empty_class_has_no_latency;
    Alcotest.test_case "consensus work is never preempted" `Quick
      test_consensus_never_preempted;
    Alcotest.test_case "a device wait frees the worker" `Quick test_device_wait_frees_worker;
    Alcotest.test_case "the raft-3node group runs at <= 40 events per request" `Quick
      test_events_per_request;
    Alcotest.test_case "the raft-3node group allocates <= 2,830 B per request" `Quick
      test_allocation_per_request;
    Alcotest.test_case "the breakdown covers each arrival at most once" `Quick
      test_breakdown_covers_clients;
    Alcotest.test_case "same seed, same history" `Quick test_determinism;
    Alcotest.test_case "killing the leader elects a replacement" `Quick
      test_failover_elects_new_leader;
    Alcotest.test_case "failover is deterministic" `Quick test_failover_deterministic;
    Alcotest.test_case "hedging duplicates reads, never writes" `Quick
      test_hedge_reads_never_writes;
    Alcotest.test_case "capacity prices writes through consensus" `Quick test_capacity_rps;
    Alcotest.test_case "cancel after completion is a no-op" `Quick
      test_cancel_completed_request_is_noop;
  ]
