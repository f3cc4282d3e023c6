(* Edge-case and stress tests across modules: boundary conditions that the
   mainline suites do not reach. *)

module Heap = Repro_engine.Heap
module Rng = Repro_engine.Rng
module Sim = Repro_engine.Sim
module Stats = Repro_engine.Stats
module Systems = Repro_runtime.Systems
module Metrics = Repro_runtime.Metrics
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival

(* --- heap stress ---------------------------------------------------------- *)

let test_heap_interleaved_stress () =
  let h = Heap.create ~capacity:1 () in
  let reference = ref [] in
  let rng = Rng.create ~seed:99 in
  let popped = ref [] in
  for _ = 1 to 5_000 do
    if Rng.float rng < 0.6 || Heap.is_empty h then begin
      let k = Rng.int rng ~bound:1_000 in
      Heap.add h ~key:k k;
      reference := k :: !reference
    end
    else begin
      popped := Heap.next_key h :: !popped;
      ignore (Heap.pop_unsafe h)
    end
  done;
  while not (Heap.is_empty h) do
    popped := Heap.next_key h :: !popped;
    ignore (Heap.pop_unsafe h)
  done;
  Alcotest.(check int) "multiset conserved" (List.length !reference) (List.length !popped);
  Alcotest.(check bool) "same multiset" true
    (List.sort compare !reference = List.sort compare !popped)

(* The heap's minimum key, as [next_key] reads it, is the least key added. *)
let prop_heap_min_is_global_min =
  QCheck.Test.make ~count:300 ~name:"heap min_key is the global minimum"
    QCheck.(list_of_size (Gen.int_range 1 50) small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k ()) keys;
      Heap.next_key h = List.fold_left min max_int keys)

(* --- rng moments ------------------------------------------------------------ *)

let test_pareto_mean () =
  let rng = Rng.create ~seed:5 in
  let n = 400_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.pareto rng ~scale:10.0 ~shape:3.0
  done;
  (* E = shape*scale/(shape-1) = 15 *)
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "pareto mean ~15" true (Float.abs (mean -. 15.0) < 0.3)

let test_split_streams_diverge () =
  let master = Rng.create ~seed:1 in
  let a = Rng.split master and b = Rng.split master in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "sibling streams differ" true (!same < 4)

(* --- sim horizon boundary ----------------------------------------------------- *)

let test_event_exactly_at_horizon_fires () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:50 ();
  let fired = ref false in
  Sim.run sim ~until:50 ~handler:(fun _ () -> fired := true) ();
  Alcotest.(check bool) "boundary inclusive" true !fired

(* --- stats singletons ------------------------------------------------------------ *)

let test_stats_single_sample () =
  let t = Stats.create () in
  Stats.add t 7.0;
  Alcotest.(check (float 0.0)) "p50" 7.0 (Stats.percentile t 50.0);
  Alcotest.(check (float 0.0)) "p99.9" 7.0 (Stats.percentile t 99.9)

(* --- server corner configurations ----------------------------------------------- *)

let fixed_mix ns = Mix.of_dist ~name:"fixed" (Service_dist.Fixed (float_of_int ns))

let test_single_worker_systems () =
  (* Every preset must run with one worker. *)
  List.iter
    (fun name ->
      match Systems.by_name name with
      | None -> Alcotest.failf "missing %s" name
      | Some make ->
        let config = make ~n_workers:1 () in
        let s =
          Repro_runtime.Server.run ~config ~mix:(fixed_mix 2_000)
            ~arrival:(Arrival.Poisson { rate_rps = 100_000.0 })
            ~n_requests:1_000 ()
        in
        Alcotest.(check int)
          (name ^ " conserves")
          1_000
          (s.Metrics.completed + s.Metrics.censored))
    Systems.all_names

let test_one_request_run () =
  let s =
    Repro_runtime.Server.run
      ~config:(Systems.ideal_no_preemption ())
      ~mix:(fixed_mix 1_000)
      ~arrival:(Arrival.Poisson { rate_rps = 1_000.0 })
      ~n_requests:1 ~warmup_frac:0.0 ()
  in
  Alcotest.(check int) "single request completes" 1 s.Metrics.completed;
  Alcotest.(check (float 1e-6)) "zero-cost slowdown = 1" 1.0 s.Metrics.p50_slowdown;
  (* With real costs, the lone request pays exactly the dispatch path
     (ingress + push + receive + context switch), a few hundred ns. *)
  let real =
    Repro_runtime.Server.run
      ~config:(Systems.concord ())
      ~mix:(fixed_mix 1_000)
      ~arrival:(Arrival.Poisson { rate_rps = 1_000.0 })
      ~n_requests:1 ~warmup_frac:0.0 ()
  in
  Alcotest.(check bool) "dispatch path costs a few hundred ns" true
    (real.Metrics.p50_slowdown > 1.0 && real.Metrics.p50_slowdown < 1.6)

let test_tiny_quantum () =
  (* Quantum of 100ns on 10us requests: hundreds of preemptions each, with
     lateness bigger than the quantum itself. Must stay conservative. *)
  let s =
    Repro_runtime.Server.run
      ~config:(Systems.concord ~n_workers:2 ~quantum_ns:100 ())
      ~mix:(fixed_mix 10_000)
      ~arrival:(Arrival.Poisson { rate_rps = 50_000.0 })
      ~n_requests:2_000 ()
  in
  Alcotest.(check int) "conserves" 2_000 (s.Metrics.completed + s.Metrics.censored);
  Alcotest.(check bool) "many preemptions" true (s.Metrics.preemptions > 10_000)

let test_huge_quantum_equals_no_preempt () =
  let run mechanism =
    let config =
      { (Systems.coop_jbsq ~n_workers:4 ~quantum_ns:1_000_000_000 ()) with
        Repro_runtime.Config.mechanism }
    in
    Repro_runtime.Server.run ~config ~mix:(fixed_mix 5_000)
      ~arrival:(Arrival.Poisson { rate_rps = 400_000.0 })
      ~n_requests:5_000 ()
  in
  let coop = run Repro_hw.Mechanism.Cache_line in
  Alcotest.(check int) "giant quantum never fires" 0 coop.Metrics.preemptions

let test_burst_arrivals_through_server () =
  let s =
    Repro_runtime.Server.run
      ~config:(Systems.concord ())
      ~mix:(fixed_mix 1_000)
      ~arrival:(Arrival.Burst_poisson { rate_rps = 500_000.0; burst = 16 })
      ~n_requests:8_000 ()
  in
  Alcotest.(check int) "conserves under bursts" 8_000
    (s.Metrics.completed + s.Metrics.censored);
  (* Bursts of 16 short requests must queue: tail visibly above 1. *)
  Alcotest.(check bool) "bursts visible in tail" true (s.Metrics.p999_slowdown > 2.0)

let test_srpt_favors_short_requests () =
  let mix = Repro_workload.Presets.ycsb_a in
  let run policy =
    let config = { (Systems.srpt ()) with Repro_runtime.Config.policy } in
    Repro_runtime.Server.run ~config ~mix
      ~arrival:(Arrival.Poisson { rate_rps = 240_000.0 })
      ~n_requests:30_000 ()
  in
  let srpt = run Repro_runtime.Policy.Srpt in
  let fcfs = run Repro_runtime.Policy.Fcfs in
  (* Class 0 is the 1us shorts: SRPT must tighten their tail at high load. *)
  let short_p999 (s : Metrics.summary) =
    let v = ref 0.0 in
    Array.iter (fun (name, n, p) -> if name <> "" && n > 0 && !v = 0.0 then v := p)
      s.Metrics.per_class;
    !v
  in
  Alcotest.(check bool) "srpt tightens the short-class tail" true
    (short_p999 srpt <= short_p999 fcfs +. 1e-9)

(* A NaN rate used to put every arrival at t=0 (its gap truncates to 0),
   as did a rate whose mean gap overflows an int; 0 and infinity died
   mid-run. Each entry point now rejects all four before simulating, with
   one message naming the rate. *)
let test_bad_rates_rejected () =
  let mix = fixed_mix 1_000 in
  let config = Systems.concord ~n_workers:2 () in
  let entry_points =
    [
      ( "Server",
        fun arrival ->
          ignore (Repro_runtime.Server.run ~config ~mix ~arrival ~n_requests:10 ()) );
      ( "Cluster",
        fun arrival ->
          let cluster = Repro_cluster.Cluster.homogeneous ~instances:2 config in
          ignore (Repro_cluster.Cluster.run ~cluster ~mix ~arrival ~n_requests:10 ()) );
      ( "Raft",
        fun arrival ->
          let raft = Repro_raft.Raft.homogeneous ~nodes:3 config in
          ignore (Repro_raft.Raft.run ~raft ~mix ~arrival ~n_requests:10 ()) );
    ]
  in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun (shown, rate_rps) ->
          Alcotest.check_raises
            (Printf.sprintf "%s rejects rate %s" name shown)
            (Invalid_argument
               (Printf.sprintf
                  "Arrival: rate %s rps is unusable: it must be finite and > 0, with a mean gap \
                   that fits in int ns"
                  shown))
            (fun () -> run (Arrival.Poisson { rate_rps })))
        [ ("nan", Float.nan); ("0", 0.0); ("inf", Float.infinity); ("1e-300", 1e-300) ])
    entry_points

let suite =
  [
    Alcotest.test_case "heap interleaved stress" `Quick test_heap_interleaved_stress;
    QCheck_alcotest.to_alcotest prop_heap_min_is_global_min;
    Alcotest.test_case "pareto mean" `Slow test_pareto_mean;
    Alcotest.test_case "split streams diverge" `Quick test_split_streams_diverge;
    Alcotest.test_case "event at horizon fires" `Quick test_event_exactly_at_horizon_fires;
    Alcotest.test_case "single-sample stats" `Quick test_stats_single_sample;
    Alcotest.test_case "every system runs with one worker" `Quick test_single_worker_systems;
    Alcotest.test_case "one-request run" `Quick test_one_request_run;
    Alcotest.test_case "tiny quantum" `Quick test_tiny_quantum;
    Alcotest.test_case "giant quantum = no preemption" `Quick test_huge_quantum_equals_no_preempt;
    Alcotest.test_case "burst arrivals" `Quick test_burst_arrivals_through_server;
    Alcotest.test_case "SRPT favors short requests" `Quick test_srpt_favors_short_requests;
    Alcotest.test_case "bad arrival rates are rejected" `Quick test_bad_rates_rejected;
  ]
