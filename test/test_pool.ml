(* Tests for the domain pool: order preservation, equivalence with the
   sequential map, exception propagation, and the headline determinism
   guarantee — the one load sweep produces bit-identical summaries for any
   domain count, whatever tier's runner it drives. *)

module Pool = Repro_engine.Pool

let test_preserves_order () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "equals List.map" (List.map f xs) (Pool.parallel_map ~domains:4 f xs);
  Alcotest.(check (list int)) "domains:1 equals List.map" (List.map f xs)
    (Pool.parallel_map ~domains:1 f xs)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.parallel_map ~domains:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.parallel_map ~domains:4 (fun x -> x) [ 7 ])

let test_more_domains_than_tasks () =
  Alcotest.(check (list int)) "2 tasks, 8 domains" [ 2; 4 ]
    (Pool.parallel_map ~domains:8 (fun x -> 2 * x) [ 1; 2 ])

let test_uneven_work () =
  (* Tasks of very different cost still land in their input slots. *)
  let f x =
    let acc = ref 0 in
    for i = 1 to (if x mod 7 = 0 then 200_000 else 10) do
      acc := (!acc + (i * x)) land 0xFFFF
    done;
    (x, !acc)
  in
  let xs = List.init 50 (fun i -> i) in
  Alcotest.(check bool) "uneven tasks keep order" true
    (Pool.parallel_map ~domains:4 f xs = List.map f xs)

let test_nested_calls () =
  (* A parallel_map inside a pool task degrades to the sequential map
     rather than spawning domains from a worker. *)
  let inner x = Pool.parallel_map ~domains:4 (fun y -> x + y) [ 1; 2; 3 ] in
  let outer = Pool.parallel_map ~domains:4 inner [ 10; 20 ] in
  Alcotest.(check (list (list int))) "nested result" [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ] outer

exception Boom of int

let test_exception_propagates () =
  let f x = if x = 5 then raise (Boom x) else x in
  Alcotest.check_raises "first failing task's exception" (Boom 5) (fun () ->
      ignore (Pool.parallel_map ~domains:4 f (List.init 20 (fun i -> i))))

let test_default_jobs_override () =
  let saved = Pool.default_jobs () in
  Pool.set_default_jobs 3;
  Alcotest.(check int) "override" 3 (Pool.default_jobs ());
  Pool.set_default_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Pool.default_jobs ());
  Pool.set_default_jobs saved

(* --- Sweep bit-identity across domain counts ----------------------------- *)

let test_sweep_bit_identical () =
  (* One sweep per tier's runner: a standalone server, the single logical
     queue, a rack and a Raft group. *)
  let mix = Concord.Presets.ycsb_a in
  let rates = [ 50e3; 100e3; 150e3; 200e3 ] in
  let n_requests = 4_000 and seed = 42 in
  let server =
    let config = Concord.Systems.concord ~n_workers:2 () in
    fun domains -> Concord.Sweep.run ~config ~mix ~rates ~n_requests ~seed ~domains ()
  in
  let runner run domains = Concord.Sweep.of_runner ~domains ~mix ~rates run in
  let sls =
    let config = Repro_runtime.Sls_server.concord_sls ~n_workers:2 () in
    runner (fun arrival -> Repro_runtime.Sls_server.run ~config ~mix ~arrival ~n_requests ~seed ())
  in
  let rack =
    let module Cluster = Repro_cluster.Cluster in
    let cluster = Cluster.homogeneous ~instances:2 (Concord.Systems.concord ~n_workers:1 ()) in
    runner (fun arrival ->
        (Cluster.run ~cluster ~mix ~arrival ~n_requests ~seed ()).Cluster.cluster)
  in
  let raft =
    let module Raft = Repro_raft.Raft in
    let raft = Raft.homogeneous ~nodes:3 (Concord.Systems.concord ~n_workers:2 ()) in
    runner (fun arrival ->
        (Raft.run ~raft ~mix ~arrival ~n_requests:1_000 ~seed ()).Raft.client)
  in
  List.iter
    (fun (tier, sweep) ->
      let a = sweep 1 and b = sweep 4 in
      Alcotest.(check int) (tier ^ ": every point") 4 (List.length a.Concord.Sweep.points);
      (* Summaries are plain data (ints, floats, string arrays): structural
         equality means bit-identical results. *)
      Alcotest.(check bool) (tier ^ ": bit-identical summaries") true
        (a.Concord.Sweep.points = b.Concord.Sweep.points))
    [ ("server", server); ("sls", sls); ("rack", rack); ("raft", raft) ]

let test_sweep_kv_mix_still_works () =
  (* kvstore-backed mixes are not parallel-safe; the sweep must fall back
     to sequential execution and still complete. *)
  let store = Repro_kvstore.Kv_workload.populate ~n_keys:500 ~seed:7 () in
  let mix = Repro_kvstore.Kv_workload.get_scan_mix store ~seed:7 in
  Alcotest.(check bool) "kv mix marked unsafe" false mix.Concord.Mix.parallel_safe;
  let sweep =
    Concord.Sweep.run
      ~config:(Concord.Systems.concord ~n_workers:2 ())
      ~mix ~rates:[ 5e3; 10e3 ] ~n_requests:500 ~domains:4 ()
  in
  Alcotest.(check int) "both points ran" 2 (List.length sweep.Concord.Sweep.points)

let suite =
  [
    Alcotest.test_case "preserves order" `Quick test_preserves_order;
    Alcotest.test_case "empty and singleton inputs" `Quick test_empty_and_singleton;
    Alcotest.test_case "more domains than tasks" `Quick test_more_domains_than_tasks;
    Alcotest.test_case "uneven task cost" `Quick test_uneven_work;
    Alcotest.test_case "nested calls run inline" `Quick test_nested_calls;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "default jobs override" `Quick test_default_jobs_override;
    Alcotest.test_case "sweep bit-identical across domains" `Quick test_sweep_bit_identical;
    Alcotest.test_case "kv-backed sweep falls back to sequential" `Quick
      test_sweep_kv_mix_still_works;
  ]
