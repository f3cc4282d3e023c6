(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (5) plus the repository's ablations, then runs Bechamel
   microbenchmarks of the simulation substrate itself.

   Usage:
     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- --full       # 4x request counts
     dune exec bench/main.exe -- fig6a fig9b  # a subset
     dune exec bench/main.exe -- --no-micro   # skip Bechamel microbenches
     dune exec bench/main.exe -- --jobs 4     # fan sweep points across 4 domains
                                              # (--jobs 1 = sequential; default
                                              #  leaves one core for the OS)
     dune exec bench/main.exe -- --json F     # core-throughput suite: events/sec
                                              # per scenario, written as JSON
                                              # (add --quick for the <30s variant
                                              #  make check runs)

   To inspect one canonical traced run (Concord on YCSB-A at 150 kRps) as
   a latency-breakdown table or a Perfetto trace, use
   [concord-sim run -w ycsb-a -r 150 -n 4000 --breakdown [--trace F]]. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_figures ~scale ~ids =
  let selected =
    match ids with
    | [] -> Concord.Figures.all
    | ids ->
      List.filter_map
        (fun id -> Option.map (fun f -> (id, f)) (Concord.Figures.by_id id))
        ids
  in
  List.iter
    (fun ((_ : string), make) ->
      let fig, dt = wall (fun () -> make ?scale:(Some scale) ()) in
      Printf.printf "%s\n  (generated in %.1fs)\n\n%!" (Concord.Figure.render fig) dt)
    selected

let run_table1 () =
  let rows, dt = wall (fun () -> Concord.Table1.rows ()) in
  Printf.printf "[table1] Concord instrumentation overhead and timeliness (24 benchmarks)\n%s\n"
    (Concord.Table1.render rows);
  Printf.printf "  (generated in %.1fs)\n\n%!" dt

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the substrate                            *)
(* ------------------------------------------------------------------ *)

let microbenches () =
  let open Bechamel in
  let heap_bench =
    Test.make ~name:"engine.heap push+pop x1k"
      (Staged.stage (fun () ->
           let h = Repro_engine.Heap.create () in
           for i = 0 to 999 do
             Repro_engine.Heap.add h ~key:((i * 7919) mod 1000) i
           done;
           let rec drain () =
             match Repro_engine.Heap.pop h with Some _ -> drain () | None -> ()
           in
           drain ()))
  in
  let rng_bench =
    let rng = Repro_engine.Rng.create ~seed:1 in
    Test.make ~name:"engine.rng exponential x1k"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             ignore (Repro_engine.Rng.exponential rng ~mean:1000.0)
           done))
  in
  let skiplist_bench =
    let rng = Repro_engine.Rng.create ~seed:2 in
    let sl = Repro_kvstore.Skiplist.create ~rng () in
    for i = 0 to 9_999 do
      Repro_kvstore.Skiplist.insert sl
        ~key:(Printf.sprintf "key%06d" i)
        (Repro_kvstore.Skiplist.Value "v")
    done;
    Test.make ~name:"kvstore.skiplist find x100"
      (Staged.stage (fun () ->
           for i = 0 to 99 do
             ignore (Repro_kvstore.Skiplist.find sl ~key:(Printf.sprintf "key%06d" (i * 97)))
           done))
  in
  let server_bench =
    Test.make ~name:"runtime.server 2k-request run"
      (Staged.stage (fun () ->
           ignore
             (Repro_runtime.Server.run
                ~config:(Repro_runtime.Systems.concord ())
                ~mix:Repro_workload.Presets.usr
                ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 1.0e6 })
                ~n_requests:2_000 ())))
  in
  let cluster_bench =
    Test.make ~name:"cluster.rack 3x po2c 2k-request run"
      (Staged.stage (fun () ->
           let cluster =
             Repro_cluster.Cluster.homogeneous ~policy:Repro_cluster.Lb_policy.Po2c
               ~instances:3
               (Repro_runtime.Systems.concord ())
           in
           ignore
             (Repro_cluster.Cluster.run ~cluster ~mix:Repro_workload.Presets.usr
                ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = 3.0e6 })
                ~n_requests:2_000 ())))
  in
  let percentile_bench =
    let stats = Repro_engine.Stats.create () in
    let rng = Repro_engine.Rng.create ~seed:3 in
    for _ = 1 to 100_000 do
      Repro_engine.Stats.add stats (Repro_engine.Rng.float rng)
    done;
    Test.make ~name:"engine.stats p99.9 of 100k (incl. sort)"
      (Staged.stage (fun () ->
           Repro_engine.Stats.add stats 0.5;
           ignore (Repro_engine.Stats.percentile stats 99.9)))
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |])
        Toolkit.Instance.monotonic_clock raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-45s %14.1f ns/run\n%!" name est
        | Some _ | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
      results
  in
  print_endline "[microbench] substrate performance (Bechamel, monotonic clock)";
  List.iter benchmark
    [ heap_bench; rng_bench; skiplist_bench; server_bench; cluster_bench; percentile_bench ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let no_micro = List.mem "--no-micro" args in
  let rec parse_json = function
    | [] -> None
    | "--json" :: v :: _ -> Some v
    | a :: rest ->
      if String.length a > 7 && String.sub a 0 7 = "--json=" then
        Some (String.sub a 7 (String.length a - 7))
      else parse_json rest
  in
  (match parse_json args with
  | Some path -> Core_bench.run ~path ~quick:(List.mem "--quick" args)
  | None ->
  (* --jobs N / --jobs=N: total domains used per parallel fan-out. *)
  let jobs_of s = Option.bind (int_of_string_opt s) (fun n -> if n >= 1 then Some n else None) in
  let rec parse_jobs = function
    | [] -> None
    | "--jobs" :: v :: _ -> jobs_of v
    | a :: rest ->
      (match String.length a > 7 && String.sub a 0 7 = "--jobs=" with
      | true -> jobs_of (String.sub a 7 (String.length a - 7))
      | false -> parse_jobs rest)
  in
  Option.iter
    (fun jobs ->
      let cores = Domain.recommended_domain_count () in
      if jobs > cores then
        Printf.eprintf
          "warning: --jobs %d exceeds this machine's %d recommended domain(s); results stay \
           identical but oversubscription slows the run\n\
           %!"
          jobs cores;
      Repro_engine.Pool.set_default_jobs jobs)
    (parse_jobs args);
  let rec drop_flags = function
    | [] -> []
    | "--jobs" :: _ :: rest -> drop_flags rest
    | a :: rest when String.length a > 1 && a.[0] = '-' -> drop_flags rest
    | a :: rest -> a :: drop_flags rest
  in
  let ids = drop_flags args in
  let scale = if full then Concord.Figures.Full else Concord.Figures.Quick in
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "Concord (SOSP 2023) reproduction benchmarks -- %s scale, %d job%s\n\
     ================================================================\n\n\
     %!"
    (if full then "full" else "quick")
    (Repro_engine.Pool.default_jobs ())
    (if Repro_engine.Pool.default_jobs () = 1 then "" else "s");
  if ids = [] || List.mem "table1" ids then run_table1 ();
  run_figures ~scale ~ids:(List.filter (fun i -> i <> "table1") ids);
  if not no_micro then microbenches ();
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0))
