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

   An unknown flag, a --jobs that is not a positive integer, an unknown
   figure id, --json with any argument but --quick, or --quick without
   --json is reported on stderr and exits 1 before anything runs.

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
           while Repro_engine.Heap.next_key h <> max_int do
             ignore (Repro_engine.Heap.pop_unsafe h)
           done))
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
    Test.make ~name:"engine.stats p99.9 of 100k (select)"
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

type options = {
  full : bool;
  no_micro : bool;
  quick : bool;
  jobs : int option;
  json : string option;
  ids : string list;
}

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench/main.exe: " ^ msg);
      exit 1)
    fmt

let jobs_of s =
  match int_of_string_opt s with
  | Some n when n >= 1 -> n
  | Some _ | None -> fail "--jobs %s: not a positive integer" s

let known_ids = "table1" :: List.map fst Concord.Figures.all

(* Every argument is a flag this harness knows or a figure id; anything
   else stops the run before any figure starts. *)
let parse args =
  let prefixed p a = String.starts_with ~prefix:p a in
  let suffix p a = String.sub a (String.length p) (String.length a - String.length p) in
  let rec go o = function
    | [] -> { o with ids = List.rev o.ids }
    | "--full" :: rest -> go { o with full = true } rest
    | "--no-micro" :: rest -> go { o with no_micro = true } rest
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--jobs" :: v :: rest -> go { o with jobs = Some (jobs_of v) } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | [ ("--jobs" | "--json") as flag ] -> fail "%s needs a value" flag
    | a :: rest when prefixed "--jobs=" a ->
      go { o with jobs = Some (jobs_of (suffix "--jobs=" a)) } rest
    | a :: rest when prefixed "--json=" a -> go { o with json = Some (suffix "--json=" a) } rest
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
      fail "unknown flag %s (flags: --full --no-micro --jobs N --json FILE --quick)" a
    | id :: rest ->
      if not (List.mem id known_ids) then
        fail "unknown figure id %s (ids: %s)" id (String.concat " " known_ids);
      go { o with ids = id :: o.ids } rest
  in
  go { full = false; no_micro = false; quick = false; jobs = None; json = None; ids = [] } args

(* --json runs the core-throughput suite alone, and --quick only shortens
   that suite: any other argument beside --json, or --quick without it,
   would be ignored, so it stops the run instead. *)
let check_combination o =
  match o.json with
  | Some _ ->
    let ignored =
      (if o.full then [ "--full" ] else [])
      @ (if o.no_micro then [ "--no-micro" ] else [])
      @ (match o.jobs with Some n -> [ "--jobs " ^ string_of_int n ] | None -> [])
      @ o.ids
    in
    if ignored <> [] then
      fail "--json runs only the core-throughput suite (with --quick or not); it does not take %s"
        (String.concat " " ignored)
  | None -> if o.quick then fail "--quick shortens the --json suite; it needs --json FILE"

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  check_combination o;
  match o.json with
  | Some path -> Core_bench.run ~path ~quick:o.quick
  | None ->
    (* --jobs N / --jobs=N: total domains used per parallel fan-out. *)
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
      o.jobs;
    let scale = if o.full then Concord.Figures.Full else Concord.Figures.Quick in
    let t0 = Unix.gettimeofday () in
    Printf.printf
      "Concord (SOSP 2023) reproduction benchmarks -- %s scale, %d job%s\n\
       ================================================================\n\n\
       %!"
      (if o.full then "full" else "quick")
      (Repro_engine.Pool.default_jobs ())
      (if Repro_engine.Pool.default_jobs () = 1 then "" else "s");
    if o.ids = [] || List.mem "table1" o.ids then run_table1 ();
    run_figures ~scale ~ids:(List.filter (fun i -> i <> "table1") o.ids);
    if not o.no_micro then microbenches ();
    Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
