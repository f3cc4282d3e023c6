(* Tests for the prefetch stream (Repro_engine.Prefetch) with real domains:
   order and content against an inline loop, a producer exception
   re-raised at its item, a consumer exit that stops a producer parked on
   a full mailbox, a mailbox that never grows, and each host's selection
   rule: a host that draws ahead starts one producer on a LevelDB run when
   a core is free, and inside a Pool task keeps the inline loop and
   computes the same summary; the windowed rack and the Raft group never
   start one. *)

module Prefetch = Repro_engine.Prefetch
module Pool = Repro_engine.Pool
module Rng = Repro_engine.Rng
module Server = Repro_runtime.Server
module Kv_workload = Repro_kvstore.Kv_workload

(* The protocol on real domains with sizes of the test's choosing: a small
   ring and batch make the producer find the ring full quickly. *)
module Sized = Prefetch.Make (Repro_engine.Primitives.Real)

(* A stateful stream: item [i] depends on every draw before it, so any
   reordering or repeated call shows in the values. *)
let seeded_stream ~seed =
  let rng = Rng.create ~seed in
  fun i -> (i, Rng.int rng ~bound:1_000_000)

(* A little consumer-side work, so the producer runs ahead and finds the
   ring full. *)
let busy k =
  let acc = ref 0 in
  for j = 1 to k do
    acc := (!acc * 31) + j
  done;
  ignore (Sys.opaque_identity !acc)

let test_matches_inline_loop () =
  (* Not a multiple of the batch size: the last batch is short. *)
  let n = 20_003 in
  let inline = List.init n (seeded_stream ~seed:3) in
  let p = Prefetch.start ~n (seeded_stream ~seed:3) in
  let got =
    Fun.protect
      ~finally:(fun () -> Prefetch.stop p)
      (fun () ->
        List.init n (fun i ->
            if i mod 1000 < 100 then busy 2_000;
            Prefetch.next p))
  in
  Alcotest.(check bool) "items equal the inline loop's, in order" true (got = inline);
  Alcotest.check_raises "a finished stream refuses more"
    (Invalid_argument "Prefetch.next: the stream is finished") (fun () ->
      ignore (Prefetch.next p))

exception Boom of int

let test_exception_at_its_item () =
  let fail_at = 37 in
  let p = Prefetch.start ~n:100 (fun i -> if i = fail_at then raise (Boom i) else i) in
  let rec consume i =
    match Prefetch.next p with
    | v ->
      Alcotest.(check int) "item before the failure" i v;
      consume (i + 1)
    | exception Boom j -> (i, j)
  in
  let at, raised = consume 0 in
  Alcotest.(check int) "raised by the call for the failing item" fail_at at;
  Alcotest.(check int) "the producer's own exception" fail_at raised;
  Alcotest.check_raises "the stream ends at the failure"
    (Invalid_argument "Prefetch.next: the stream is finished") (fun () ->
      ignore (Prefetch.next p));
  Prefetch.stop p

let test_consumer_exit_stops_parked_producer () =
  let produced = Atomic.make 0 in
  let capacity = 2 and batch = 4 in
  let p =
    Sized.start ~capacity ~batch ~n:1_000_000 (fun i ->
        Atomic.incr produced;
        i)
  in
  let t0 = Unix.gettimeofday () in
  (match
     Fun.protect
       ~finally:(fun () -> Sized.stop p)
       (fun () ->
         ignore (Sized.next p : int);
         (* Long enough for the producer to fill the ring, spin out and
            park on it. *)
         Unix.sleepf 0.05;
         failwith "consumer gave up")
   with
  | () -> Alcotest.fail "the consumer's exception was lost"
  | exception Failure _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "stop joined the producer within 2 s (took %.3f s)" elapsed)
    true (elapsed < 2.0);
  (* The batch taken, a full ring, and the batch it held when it parked. *)
  Alcotest.(check bool)
    (Printf.sprintf "the producer stopped at the full ring (%d items produced)"
       (Atomic.get produced))
    true
    (Atomic.get produced <= (1 + capacity + 1) * batch);
  Alcotest.(check int) "the ring never grew" capacity (Sized.capacity p)

let test_capacity_fixed () =
  let n = 5_000 in
  let p = Sized.start ~capacity:3 ~batch:2 ~n (fun i -> i) in
  let cap = Sized.capacity p in
  Alcotest.(check int) "rounded to a power of two" 4 cap;
  let grew = ref false in
  for i = 0 to n - 1 do
    busy 500;
    if Sized.next p <> i then Alcotest.failf "item %d out of order" i;
    if Sized.capacity p <> cap then grew := true
  done;
  Sized.stop p;
  Alcotest.(check bool) "capacity unchanged at every item" false !grew;
  Sized.stop p (* idempotent *)

(* A LevelDB-backed run: the mix's generators run store operations on
   shared state, so the server may move them to a producer domain. *)
let leveldb_run () =
  let store = Kv_workload.populate ~n_keys:2_000 ~seed:11 () in
  let mix = Kv_workload.zippydb_mix store ~seed:11 in
  let config = Repro_runtime.Systems.concord () in
  let events = ref 0 in
  let s, _ =
    Server.run_detailed ~config ~mix
      ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 300e3 })
      ~n_requests:2_000 ~seed:11 ~events_out:events ()
  in
  (s, !events)

let test_leveldb_in_pool_stays_inline () =
  let before = Prefetch.producers_started () in
  let outside = leveldb_run () in
  let spawned_outside = Prefetch.producers_started () - before in
  Alcotest.(check int) "outside a pool, a producer iff a second core is free"
    (if Prefetch.available () then 1 else 0)
    spawned_outside;
  let before = Prefetch.producers_started () in
  let inside = Pool.parallel_map ~domains:2 (fun () -> leveldb_run ()) [ (); () ] in
  Alcotest.(check int) "no producer inside a pool task" 0
    (Prefetch.producers_started () - before);
  List.iter
    (fun r ->
      Alcotest.(check bool) "same summary and event count as outside a pool" true
        (compare r outside = 0))
    inside

let test_synthetic_mix_stays_inline () =
  let before = Prefetch.producers_started () in
  ignore
    (Server.run ~config:(Repro_runtime.Systems.concord ()) ~mix:Repro_workload.Presets.usr
       ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 1e6 })
       ~n_requests:500 ());
  Alcotest.(check int) "a parallel-safe mix never spawns a producer" 0
    (Prefetch.producers_started () - before)

let zippydb () =
  Kv_workload.zippydb_mix (Kv_workload.populate ~n_keys:2_000 ~seed:11 ()) ~seed:11

let poisson rate_rps = Repro_workload.Arrival.Poisson { rate_rps }

(* [run] builds its own store: a run changes the store it draws from. *)
let check_host_draws_ahead ~draws_ahead run () =
  let before = Prefetch.producers_started () in
  let outside = run () in
  Alcotest.(check int) "producers started outside a pool"
    (if draws_ahead && Prefetch.available () then 1 else 0)
    (Prefetch.producers_started () - before);
  if draws_ahead then begin
    let before = Prefetch.producers_started () in
    let inside = Pool.parallel_map ~domains:2 (fun () -> run ()) [ (); () ] in
    Alcotest.(check int) "no producer inside a pool task" 0
      (Prefetch.producers_started () - before);
    List.iter
      (fun r ->
        Alcotest.(check bool) "same summary as drawn inline in a pool task" true
          (compare r outside = 0))
      inside
  end

let sls_draws_ahead =
  check_host_draws_ahead ~draws_ahead:true (fun () ->
      Repro_runtime.Sls_server.run ~config:(Repro_runtime.Sls_server.concord_sls ())
        ~mix:(zippydb ()) ~arrival:(poisson 300e3) ~n_requests:2_000 ~seed:11 ())

let rack ?engine () =
  let module Cluster = Repro_cluster.Cluster in
  let cluster =
    Cluster.homogeneous ~instances:2 ~rtt_cycles:4_000 (Repro_runtime.Systems.concord ())
  in
  let events = ref 0 in
  let s, _ =
    Cluster.run_detailed ~cluster ~mix:(zippydb ()) ~arrival:(poisson 600e3) ~n_requests:2_000
      ~seed:11 ~events_out:events ?engine ()
  in
  (s, !events)

let rack_seq_draws_ahead = check_host_draws_ahead ~draws_ahead:true (fun () -> rack ())

let rack_par_draws_inline =
  check_host_draws_ahead ~draws_ahead:false (fun () ->
      rack ~engine:(Repro_engine.Par_sim.Par { domains = 2 }) ())

let raft_draws_inline =
  check_host_draws_ahead ~draws_ahead:false (fun () ->
      let raft = Repro_raft.Raft.homogeneous ~nodes:3 (Repro_runtime.Systems.concord ()) in
      Repro_raft.Raft.run ~raft ~mix:(zippydb ()) ~arrival:(poisson 20e3) ~n_requests:1_000
        ~seed:11 ())

let suite =
  [
    Alcotest.test_case "items match an inline loop, in order" `Quick test_matches_inline_loop;
    Alcotest.test_case "a producer exception re-raises at its item" `Quick
      test_exception_at_its_item;
    Alcotest.test_case "consumer exit stops a producer parked on a full ring" `Quick
      test_consumer_exit_stops_parked_producer;
    Alcotest.test_case "the mailbox capacity never changes" `Quick test_capacity_fixed;
    Alcotest.test_case "LevelDB run inside a Pool task stays inline, same summary" `Quick
      test_leveldb_in_pool_stays_inline;
    Alcotest.test_case "synthetic mixes never spawn a producer" `Quick
      test_synthetic_mix_stays_inline;
    Alcotest.test_case "LevelDB SLS run draws ahead, same summary inline" `Quick sls_draws_ahead;
    Alcotest.test_case "LevelDB seq rack draws ahead, same summary inline" `Quick
      rack_seq_draws_ahead;
    Alcotest.test_case "LevelDB par:2 rack starts no producer" `Quick rack_par_draws_inline;
    Alcotest.test_case "LevelDB Raft run starts no producer" `Quick raft_draws_inline;
  ]
