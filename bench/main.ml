(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (5) plus the repository's ablations. Host speed is measured
   by bench/e2e, not here.

   Usage:
     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- --full       # 4x request counts
     dune exec bench/main.exe -- fig6a fig9b  # a subset
     dune exec bench/main.exe -- --jobs 4     # fan sweep points across 4 domains
                                              # (--jobs 1 = sequential; default
                                              #  leaves one core for the OS)

   An unknown flag, a --jobs that is not a positive integer or an unknown
   id is reported on stderr and exits 1 before anything runs.

   To inspect one canonical traced run (Concord on YCSB-A at 150 kRps) as
   a latency-breakdown table or a Perfetto trace, use
   [concord-sim run -w ycsb-a -r 150 -n 4000 --breakdown [--trace F]]. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_table1 () =
  let rows, dt = wall (fun () -> Concord.Table1.rows ()) in
  Printf.printf "[table1] Concord instrumentation overhead and timeliness (24 benchmarks)\n%s\n"
    (Concord.Table1.render rows);
  Printf.printf "  (generated in %.1fs)\n\n%!" dt

let run_figure ~scale make =
  let fig, dt = wall (fun () -> make ?scale:(Some scale) ()) in
  Printf.printf "%s\n  (generated in %.1fs)\n\n%!" (Concord.Figure.render fig) dt

type options = { full : bool; jobs : int option; ids : string list }

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

(* Every argument is a flag this harness knows or an id; anything else
   stops the run before any table or figure starts. *)
let parse args =
  let rec go o = function
    | [] -> { o with ids = List.rev o.ids }
    | "--full" :: rest -> go { o with full = true } rest
    | "--jobs" :: v :: rest -> go { o with jobs = Some (jobs_of v) } rest
    | [ "--jobs" ] -> fail "--jobs needs a value"
    | a :: rest when String.starts_with ~prefix:"--jobs=" a ->
      go { o with jobs = Some (jobs_of (String.sub a 7 (String.length a - 7))) } rest
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
      fail "unknown flag %s (flags: --full --jobs N)" a
    | id :: rest ->
      if not (List.mem id known_ids) then
        fail "unknown figure id %s (ids: %s)" id (String.concat " " known_ids);
      go { o with ids = id :: o.ids } rest
  in
  go { full = false; jobs = None; ids = [] } args

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
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
  (* No id means every table and figure; Table 1 runs before any figure. *)
  let ids = if o.ids = [] then known_ids else o.ids in
  if List.mem "table1" ids then run_table1 ();
  List.iter (fun id -> Option.iter (run_figure ~scale) (Concord.Figures.by_id id)) ids;
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
