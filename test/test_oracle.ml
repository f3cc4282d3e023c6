(* Oracle tests: the zero-overhead server checked against exact textbook
   recurrences computed independently of the simulator.

   For a single worker, FCFS, no preemption and zero hardware costs, the
   sojourn of request i is given exactly by the Lindley recurrence:

     start_i  = max(arrival_i, completion_{i-1})
     sojourn_i = start_i + service_i - arrival_i

   The simulator must reproduce these numbers exactly (integer ns), for
   any arrival/service sequence. *)

module Server = Repro_runtime.Server
module Systems = Repro_runtime.Systems
module Metrics = Repro_runtime.Metrics
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival
module Rng = Repro_engine.Rng
module Tracing = Repro_runtime.Tracing

(* Build a deterministic mix that replays a fixed service-time sequence. *)
let replay_mix services =
  let idx = ref 0 in
  let generate _rng =
    let s = services.(!idx mod Array.length services) in
    incr idx;
    { Mix.class_id = 0; service_ns = s; lock_windows = [||]; probe_spacing_ns = 0.0 }
  in
  Mix.of_classes ~name:"replay"
    [| { Mix.name = "replay"; weight = 1.0; mean_ns = 1.0; generate } |]

(* The exact FCFS/1 mean sojourn for Poisson arrivals replayed with the
   same RNG the server will use. We reconstruct the arrival times by
   drawing the same gaps, then apply Lindley. *)
let lindley_sojourns ~arrivals ~services =
  let n = Array.length arrivals in
  let sojourns = Array.make n 0 in
  let prev_completion = ref 0 in
  for i = 0 to n - 1 do
    let start = max arrivals.(i) !prev_completion in
    let completion = start + services.(i) in
    prev_completion := completion;
    sojourns.(i) <- completion - arrivals.(i)
  done;
  sojourns

let reconstruct_arrivals ~seed ~rate ~n =
  (* Server.run derives its arrival stream as the first split of the master
     seed; mirror that derivation exactly. *)
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let arrival = Arrival.Poisson { rate_rps = rate } in
  let times = Array.make n 0 in
  let now = ref 0 in
  for i = 0 to n - 1 do
    times.(i) <- !now;
    now := !now + Arrival.next_gap_ns arrival arrival_rng ~index:i
  done;
  times

let run_case ~seed ~rate ~services =
  let n = Array.length services in
  let config = Systems.ideal_no_preemption ~n_workers:1 () in
  let summary =
    Server.run ~config ~mix:(replay_mix services)
      ~arrival:(Arrival.Poisson { rate_rps = rate })
      ~n_requests:n ~warmup_frac:0.0 ~drain_cap_ns:2_000_000_000 ~seed ()
  in
  let arrivals = reconstruct_arrivals ~seed ~rate ~n in
  let sojourns = lindley_sojourns ~arrivals ~services in
  let expected_mean =
    Array.fold_left (fun a s -> a +. float_of_int s) 0.0 sojourns /. float_of_int n
  in
  (summary, sojourns, expected_mean)

let test_lindley_exact_mean () =
  let services = Array.init 500 (fun i -> 500 + ((i * 37) mod 3_000)) in
  let summary, _, expected_mean = run_case ~seed:11 ~rate:400_000.0 ~services in
  Alcotest.(check int) "all complete" 500 summary.Metrics.completed;
  let rel = Float.abs (summary.Metrics.mean_sojourn_ns -. expected_mean) /. expected_mean in
  if rel > 1e-9 then
    Alcotest.failf "simulated mean %.3f vs Lindley %.3f" summary.Metrics.mean_sojourn_ns
      expected_mean

let test_lindley_exact_tail () =
  let services = Array.init 300 (fun i -> if i mod 50 = 0 then 100_000 else 800) in
  let summary, sojourns, _ = run_case ~seed:23 ~rate:600_000.0 ~services in
  (* p99.9 over 300 samples is the largest sojourn. *)
  let max_sojourn = Array.fold_left max 0 sojourns in
  Alcotest.(check (float 0.5)) "max sojourn exact" (float_of_int max_sojourn)
    summary.Metrics.p999_sojourn_ns

let prop_lindley_random_sequences =
  QCheck.Test.make ~count:40 ~name:"server = Lindley recurrence on FCFS/1 (exact)"
    QCheck.(
      pair (int_range 1 10_000)
        (list_of_size (Gen.int_range 2 200) (int_range 100 50_000)))
    (fun (seed, services) ->
      let services = Array.of_list services in
      let summary, _, expected_mean = run_case ~seed ~rate:800_000.0 ~services in
      Float.abs (summary.Metrics.mean_sojourn_ns -. expected_mean) < 1e-6)

(* Every host draws the same request sequence: arrival [i] is numbered [i],
   arrives at the sum of the first [i] gaps of the arrival stream and has
   the service of the [i]-th draw from the service stream, the arrival
   stream being split off the master seed first and the service stream
   second. The oracle rebuilds that sequence from the seed alone; each
   host's trace must show it as the first [Arrived] of each id. (A Raft
   member or a rack instance traces [Arrived] again when it takes a leg,
   later; ids from [n] on are hedge legs and consensus minis.) *)
let oracle_sequence ~seed ~mix ~arrival ~n =
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let now = ref 0 in
  let seq = ref [] in
  for i = 0 to n - 1 do
    seq := (i, !now, (Mix.sample mix service_rng).Mix.service_ns) :: !seq;
    now := !now + Arrival.next_gap_ns arrival arrival_rng ~index:i
  done;
  List.rev !seq

let traced_sequence tracer ~n =
  let first = Array.make n None in
  Tracing.iter_entries tracer ~f:(fun (e : Tracing.entry) ->
      match e.kind with
      | Tracing.Arrived { service_ns } when e.request < n && first.(e.request) = None ->
        first.(e.request) <- Some (e.request, e.time_ns, service_ns)
      | _ -> ());
  List.filter_map Fun.id (Array.to_list first)

let check_host_sequence run () =
  let mix = Repro_workload.Presets.usr and n = 300 and rate_rps = 50e3 in
  List.iter
    (fun seed ->
      List.iter
        (fun arrival ->
          let tracer = Tracing.create ~capacity:(1 lsl 18) () in
          run ~mix ~arrival ~n ~seed ~tracer;
          Alcotest.(check (list (triple int int int)))
            (Printf.sprintf "seed %d, %s" seed (Arrival.name arrival))
            (oracle_sequence ~seed ~mix ~arrival ~n)
            (traced_sequence tracer ~n))
        [ Arrival.Poisson { rate_rps }; Arrival.Burst_poisson { rate_rps; burst = 8 } ])
    [ 42; 7 ]

let config = Systems.concord ()

let server_sequence =
  check_host_sequence (fun ~mix ~arrival ~n ~seed ~tracer ->
      ignore (Server.run ~config ~mix ~arrival ~n_requests:n ~seed ~tracer ()))

let sls_sequence =
  check_host_sequence (fun ~mix ~arrival ~n ~seed ~tracer ->
      let config = Repro_runtime.Sls_server.concord_sls () in
      ignore (Repro_runtime.Sls_server.run ~config ~mix ~arrival ~n_requests:n ~seed ~tracer ()))

let rack_sequence =
  check_host_sequence (fun ~mix ~arrival ~n ~seed ~tracer ->
      let module Cluster = Repro_cluster.Cluster in
      let cluster = Cluster.homogeneous ~policy:Repro_cluster.Lb_policy.Po2c ~instances:3 config in
      ignore (Cluster.run ~cluster ~mix ~arrival ~n_requests:n ~seed ~tracer ()))

let raft_sequence =
  check_host_sequence (fun ~mix ~arrival ~n ~seed ~tracer ->
      let raft = Repro_raft.Raft.homogeneous ~nodes:3 config in
      ignore (Repro_raft.Raft.run ~raft ~mix ~arrival ~n_requests:n ~seed ~tracer ()))

let suite =
  [
    Alcotest.test_case "Lindley: exact mean sojourn" `Quick test_lindley_exact_mean;
    Alcotest.test_case "Lindley: exact max sojourn" `Quick test_lindley_exact_tail;
    QCheck_alcotest.to_alcotest prop_lindley_random_sequences;
    Alcotest.test_case "Server draws the oracle's request sequence" `Quick server_sequence;
    Alcotest.test_case "SLS server draws the oracle's request sequence" `Quick sls_sequence;
    Alcotest.test_case "rack draws the oracle's request sequence" `Quick rack_sequence;
    Alcotest.test_case "Raft group draws the oracle's request sequence" `Quick raft_sequence;
  ]
