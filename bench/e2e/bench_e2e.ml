(* End-to-end benchmark of the simulator: host time per simulated request,
   set-up time and peak memory on six workloads, plus a per-layer split
   from a separate traced run. See README.md for the workloads, the metric
   definitions and the bounds.

     bench_e2e.exe [--seed N] [--seconds S] [--json FILE] [--quick]
         every workload, each in a fresh child process, one at a time;
         exits non-zero if any check fails
     bench_e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
         one workload in this process; the last line of output is
         {"correct", "attempted", "failed", "metrics"} with the end-to-end
         metrics (--trace 0) or the per-layer metrics (--trace 1)
     bench_e2e.exe --compare A.json B.json
         each (workload, end-to-end metric) of B against A *)

module W = Workloads
module Par_sim = Repro_engine.Par_sim

let now_ns = W.now_ns

(* ------------------------------------------------------------------ *)
(* Metric tables                                                       *)
(* ------------------------------------------------------------------ *)

(* name, unit, bound: the share of the baseline median by which the
   metric may worsen before it counts as a regression. BENCHMARK.json
   carries the same numbers. *)
let end_to_end =
  [ ("host_ns_per_req", "ns", 0.20); ("setup_s", "s", 0.25); ("peak_rss_mb", "MiB", 0.10) ]

(* name, unit; every workload reports all of them, 0 where the layer is
   not on the workload's path. *)
let per_layer =
  [
    ("engine.events_per_req", "count");
    ("engine.host_ns_per_event", "ns");
    ("engine.self_ns_per_event", "ns");
    ("workload.gen_ns_per_req", "ns");
    ("runtime.handle_ns_per_event", "ns");
    ("runtime.inject_ns_per_req", "ns");
    ("runtime.preemptions_per_req", "count");
    ("metrics.summarize_ms", "ms");
    ("setup.policy_table_ms", "ms");
    ("setup.kvstore_populate_ms", "ms");
    ("gc.alloc_bytes_per_req", "B");
    ("gc.minor_per_kreq", "count");
    ("gc.major_collections", "count");
    ("host.cpu_over_wall", "ratio");
    ("cluster.hedges_per_req", "count");
    ("cluster.hedge_win_frac", "frac");
    ("cluster.hedge_wasted_us_per_req", "us");
    ("cluster.route_imbalance", "ratio");
    ("par.wall_over_seq", "ratio");
    ("par.wall_p1_over_seq", "ratio");
    ("par.extra_events_frac", "frac");
    ("raft.member_completions_per_req", "count");
    ("raft.wal_records_per_write", "count");
    ("raft.parked_per_req", "count");
    ("trace.overhead_frac", "frac");
    ("trace.unattributed_frac", "frac");
  ]

(* ------------------------------------------------------------------ *)
(* Small statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

let distribution unit xs =
  Json.Obj
    [
      ("value", Json.Num (median xs));
      ("unit", Json.Str unit);
      ("min", Json.Num (quantile xs 0.0));
      ("q1", Json.Num (quantile xs 0.25));
      ("q3", Json.Num (quantile xs 0.75));
      ("max", Json.Num (quantile xs 1.0));
      ("samples", Json.Num (float_of_int (List.length xs)));
    ]

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

type checks = { mutable attempted : int; mutable failures : string list }

let check c name = function
  | Ok () -> c.attempted <- c.attempted + 1
  | Error msg ->
    c.attempted <- c.attempted + 1;
    c.failures <- (name ^ ": " ^ msg) :: c.failures

let check_fingerprint c name ~expected (o : W.outcome) =
  check c name
    (if compare expected o.fingerprint = 0 then Ok () else Error "fingerprint differs")

let checks_json c =
  Json.Obj
    [
      ("attempted", Json.Num (float_of_int c.attempted));
      ("failed", Json.Num (float_of_int (List.length c.failures)));
      ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) c.failures));
    ]

let fingerprint_json f =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (W.fingerprint_fields f))

(* ------------------------------------------------------------------ *)
(* One workload, end to end                                            *)
(* ------------------------------------------------------------------ *)

let seconds_ns s = s * 1_000_000_000

(* Set-up is timed in batches of at least [batch_ns] so a microsecond
   build still reads well above the clock's resolution; the sample is
   the batch time per build, and the inputs returned are the last built. *)
let build_timed w ~seed ~batch_ns =
  let t0 = now_ns () in
  let rec go k =
    let inputs = w.W.build ~seed in
    let elapsed = now_ns () - t0 in
    if elapsed >= batch_ns then (inputs, float_of_int elapsed /. float_of_int k) else go (k + 1)
  in
  go 1

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let requests w ~quick = if quick then w.W.quick_requests else w.W.requests

(* One warm-up run, then timed runs until [seconds] have passed (at least
   one). Every run gets fresh inputs, and every run must repeat the
   warm-up's fingerprint. *)
let run_e2e w ~seed ~seconds ~quick =
  let n = requests w ~quick in
  let c = { attempted = 0; failures = [] } in
  let batch_ns = if quick then 0 else 20_000_000 in
  let warm = W.run w (w.build ~seed) ~seed ~n in
  check c "warm-up invariants" warm.check;
  (* Read before the timed loop: up to here the allocation sequence is
     fixed by the seed, afterwards it depends on how many runs fit. *)
  let rss = peak_rss_mb () in
  let walls = ref [] and setups = ref [] and probes = ref [] in
  let t_start = now_ns () in
  while !walls = [] || now_ns () - t_start < seconds_ns seconds do
    probes := float_of_int (Host_speed.probe ()) :: !probes;
    let inputs, setup_ns = build_timed w ~seed ~batch_ns in
    let o = W.run w inputs ~seed ~n in
    check c "invariants" o.check;
    check_fingerprint c "same fingerprint as warm-up" ~expected:warm.fingerprint o;
    walls := float_of_int o.wall_ns :: !walls;
    setups := setup_ns :: !setups
  done;
  let slowdown = median !probes /. Host_speed.nominal_ns in
  let per_req = List.map (fun ns -> ns /. float_of_int n) !walls in
  let scaled k xs = List.map (fun x -> x *. k /. slowdown) xs in
  let metrics =
    [
      ("host_ns_per_req", distribution "ns" (scaled 1.0 per_req));
      ("setup_s", distribution "s" (scaled 1e-9 !setups));
      ("peak_rss_mb", Json.Obj [ ("value", Json.Num rss); ("unit", Json.Str "MiB") ]);
      ( "requests_per_s",
        Json.Obj
          [ ("value", Json.Num (1e9 *. slowdown /. median per_req)); ("unit", Json.Str "1/s") ] );
      ("raw_host_ns_per_req", distribution "ns" per_req);
      ("host_slowdown", Json.Obj [ ("value", Json.Num slowdown); ("unit", Json.Str "ratio") ]);
    ]
  in
  (metrics, warm.fingerprint, c)

(* ------------------------------------------------------------------ *)
(* One workload, traced                                                *)
(* ------------------------------------------------------------------ *)

let gc_alloc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* One repetition of the per-layer measurement: an untraced run through
   the public entry point (GC, CPU and the exact counts of its summary),
   then whatever the workload's tier allows: the traced host for a
   standalone server, the engine swap for a parallel rack. *)
let trace_once w ~seed ~n ~c ~reference =
  let inputs = w.W.build ~seed in
  let gc0 = Gc.quick_stat () and cpu0 = cpu_s () in
  let o = W.run w inputs ~seed ~n in
  let gc1 = Gc.quick_stat () and cpu1 = cpu_s () in
  check c "invariants" o.check;
  let reference = match reference with Some f -> f | None -> o.fingerprint in
  check_fingerprint c "same fingerprint as first traced repetition" ~expected:reference o;
  let events = float_of_int o.fingerprint.events in
  let fn = float_of_int n in
  let wall = float_of_int o.wall_ns in
  let base =
    [
      ("engine.events_per_req", events /. fn);
      ("engine.host_ns_per_event", wall /. events);
      ( "gc.alloc_bytes_per_req",
        (gc_alloc_words gc1 -. gc_alloc_words gc0) *. float_of_int (Sys.word_size / 8) /. fn );
      ( "gc.minor_per_kreq",
        float_of_int (gc1.minor_collections - gc0.minor_collections) *. 1e3 /. fn );
      ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
      ("host.cpu_over_wall", (cpu1 -. cpu0) *. 1e9 /. wall);
    ]
    @ List.map (fun (k, ns) -> (k, float_of_int ns /. 1e6)) inputs.parts_ns
    @ o.counts
  in
  let extra =
    match (inputs.model, w.engine) with
    | W.Standalone config, _ ->
      let fresh = w.build ~seed in
      let tr, summary =
        Traced_host.run ~config ~mix:fresh.mix ~arrival:fresh.arrival ~n_requests:n ~seed
      in
      check c "traced host equals Server.run_detailed"
        (if compare summary o.summary <> 0 then Error "summary differs"
         else if tr.events <> o.fingerprint.events then Error "event count differs"
         else Ok ());
      let corr = Traced_host.corrected in
      let layers = corr tr.gen +. corr tr.inject +. corr tr.handle +. corr tr.engine in
      let traced_total = float_of_int (tr.create_ns + tr.sim_run_ns + tr.summarize_ns) in
      [
        ("engine.self_ns_per_event", corr tr.engine /. events);
        ("workload.gen_ns_per_req", corr tr.gen /. fn);
        ("runtime.inject_ns_per_req", corr tr.inject /. fn);
        ("runtime.handle_ns_per_event", corr tr.handle /. float_of_int (max 1 tr.handles));
        ("metrics.summarize_ms", float_of_int tr.summarize_ns /. 1e6);
        ("trace.overhead_frac", (traced_total /. wall) -. 1.0);
        ( "trace.unattributed_frac",
          1.0 -. ((layers +. float_of_int (tr.create_ns + tr.summarize_ns)) /. wall) );
      ]
    | W.Rack _, Par_sim.Par _ ->
      let seq = W.run ~engine:Par_sim.Seq w (w.build ~seed) ~seed ~n in
      let p1 = W.run ~engine:(Par_sim.Par { domains = 1 }) w (w.build ~seed) ~seed ~n in
      check c "seq invariants" seq.check;
      check c "par:1 invariants" p1.check;
      check_fingerprint c "par:1 fingerprint equals par:2" ~expected:o.fingerprint p1;
      let seq_wall = float_of_int seq.wall_ns in
      [
        ("par.wall_over_seq", wall /. seq_wall);
        ("par.wall_p1_over_seq", float_of_int p1.wall_ns /. seq_wall);
        ("par.extra_events_frac", (events /. float_of_int seq.fingerprint.events) -. 1.0);
      ]
    | _ -> []
  in
  (base @ extra, reference)

let run_trace w ~seed ~seconds ~quick =
  let n = requests w ~quick in
  let c = { attempted = 0; failures = [] } in
  let reps = ref [] and reference = ref None in
  let t_start = now_ns () in
  while !reps = [] || now_ns () - t_start < seconds_ns seconds do
    let values, fp = trace_once w ~seed ~n ~c ~reference:!reference in
    reference := Some fp;
    reps := values :: !reps
  done;
  let metrics =
    List.map
      (fun (name, unit) ->
        let xs = List.map (fun r -> Option.value (List.assoc_opt name r) ~default:0.0) !reps in
        (name, Json.Obj [ ("value", Json.Num (median xs)); ("unit", Json.Str unit) ]))
      per_layer
  in
  (metrics, c)

(* ------------------------------------------------------------------ *)
(* Single-workload mode: the line protocol                             *)
(* ------------------------------------------------------------------ *)

let record_prefix = "record "

let value_of m = Json.num (Json.member "value" m)

(* Per-layer metrics of layers off the workload's path read 0; they are
   left out of the human-readable lines. *)
let print_metric workload (name, m) =
  if value_of m <> 0.0 then
    Printf.printf "%-18s %-32s %16.6g %s\n" workload name (value_of m)
      (Json.str (Json.member "unit" m))

let run_one w ~seed ~seconds ~trace ~quick =
  let metrics, fingerprint, c =
    if trace then
      let metrics, c = run_trace w ~seed ~seconds ~quick in
      (metrics, None, c)
    else
      let metrics, fp, c = run_e2e w ~seed ~seconds ~quick in
      (metrics, Some fp, c)
  in
  List.iter (print_metric w.name) metrics;
  List.iter (fun f -> Printf.printf "%-18s check failed: %s\n" w.name f) (List.rev c.failures);
  let record =
    Json.Obj
      ([
         ("workload", Json.Str w.name);
         ("mode", Json.Str (if trace then "trace" else "e2e"));
         ("requests", Json.Num (float_of_int (requests w ~quick)));
         ("metrics", Json.Obj metrics);
         ("checks", checks_json c);
       ]
      @ match fingerprint with Some f -> [ ("fingerprint", fingerprint_json f) ] | None -> [])
  in
  print_string record_prefix;
  print_endline (Json.to_string record);
  let names = if trace then List.map fst per_layer else List.map (fun (n, _, _) -> n) end_to_end in
  let reported =
    List.map
      (fun name ->
        let m = List.assoc name metrics in
        let unit = Option.get (Json.member "unit" m) in
        (name, Json.Obj [ ("value", Json.Num (value_of m)); ("unit", unit) ]))
      names
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (c.failures = []));
            ("attempted", Json.Num (float_of_int c.attempted));
            ("failed", Json.Num (float_of_int (List.length c.failures)));
            ("metrics", Json.Obj reported);
          ]))

(* ------------------------------------------------------------------ *)
(* Suite mode: every workload in a fresh child process                 *)
(* ------------------------------------------------------------------ *)

(* Runs this executable on one workload and returns its record, echoing
   every other line it prints. *)
let child ~seed ~seconds ~quick ~trace w =
  let args =
    [ Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
      string_of_int seconds; "--trace"; (if trace then "1" else "0") ]
    @ if quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let record = ref None in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (* the last line is the one-line summary; the record holds the same and more *)
  List.iter
    (fun line ->
      let p = String.length record_prefix in
      if String.length line > p && String.sub line 0 p = record_prefix then
        record := Some (Json.of_string (String.sub line p (String.length line - p)))
      else if not quick then print_endline line)
    (List.rev (match !lines with _last :: rest -> rest | [] -> []));
  match (status, !record) with
  | Unix.WEXITED 0, Some r -> r
  | _ -> failwith (Printf.sprintf "%s: child process failed" w.name)

let run_suite ~seed ~seconds ~quick ~json_out =
  let failures = ref [] and attempted = ref 0.0 in
  let entries =
    List.map
      (fun w ->
        let e2e = child ~seed ~seconds ~quick ~trace:false w in
        let tr = child ~seed ~seconds ~quick ~trace:true w in
        let checks r = Json.num (Json.path r [ "checks"; "attempted" ]) in
        let failed r =
          match Json.path r [ "checks"; "failures" ] with Some (Json.Arr l) -> l | _ -> []
        in
        let checks = checks e2e +. checks tr and failed = failed e2e @ failed tr in
        failures := !failures @ failed;
        attempted := !attempted +. checks;
        Json.Obj
          [
            ("name", Json.Str w.name);
            ("why", Json.Str w.why);
            ("requests", Json.Num (float_of_int (requests w ~quick)));
            ("engine", Json.Str (Par_sim.to_string w.engine));
            ("end_to_end", Option.get (Json.member "metrics" e2e));
            ("ops_failed_frac", Json.Num (float_of_int (List.length failed) /. checks));
            ("checks_attempted", Json.Num checks);
            ("check_failures", Json.Arr failed);
            ("fingerprint", Option.get (Json.member "fingerprint" e2e));
            ("per_layer", Option.get (Json.member "metrics" tr));
          ])
      W.all
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "concord-bench-e2e/v1");
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num (float_of_int seconds));
        ("quick", Json.Bool quick);
        ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
        ( "bounds",
          Json.Obj (List.map (fun (name, _, bound) -> (name, Json.Num bound)) end_to_end) );
        ("workloads", Json.Arr entries);
      ]
  in
  let text = Json.to_string doc in
  (match Repro_runtime.Trace_export.validate_json text with
  | Ok () -> ()
  | Error e -> failwith ("suite JSON does not validate: " ^ e));
  Option.iter (fun path -> Repro_runtime.Trace_export.write_file ~path (text ^ "\n")) json_out;
  List.iter (fun f -> prerr_endline ("check failed: " ^ Json.str (Some f))) !failures;
  Printf.printf "bench_e2e: %d workloads, %.0f checks, %d failed\n" (List.length entries)
    !attempted (List.length !failures);
  if !failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Compare mode                                                        *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let workloads_of doc =
  match Json.member "workloads" doc with
  | Some (Json.Arr l) -> List.map (fun e -> (Json.str (Json.member "name" e), e)) l
  | _ -> failwith "not a bench_e2e suite file"

(* Lower is better for every end-to-end metric. A median whose own spread
   is wider than the bound cannot be judged, unless every run of one side
   beats every run of the other. The spread of a median of n runs is taken
   as the runs' interquartile range over the median, divided by sqrt n
   (within 10% of the median's standard error for normal noise). *)
let verdict ~bound a b =
  let field k m = Json.num (Json.member k m) in
  let v m = field "value" m in
  let spread m =
    match Json.member "q1" m with
    | Some _ -> (field "q3" m -. field "q1" m) /. v m /. sqrt (field "samples" m)
    | None -> 0.0
  in
  let lo m = match Json.member "min" m with Some _ -> field "min" m | None -> v m in
  let hi m = match Json.member "max" m with Some _ -> field "max" m | None -> v m in
  let delta = (v b -. v a) /. v a in
  let label =
    if hi b < lo a && delta < -.bound then "better"
    else if lo b > hi a && delta > bound then "worse"
    else if Float.max (spread a) (spread b) > bound then "unresolved"
    else if delta > bound then "worse"
    else if delta < -.bound then "better"
    else "within bound"
  in
  (label, delta)

let compare_files path_a path_b =
  let doc_a = Json.of_string (read_file path_a) and doc_b = Json.of_string (read_file path_b) in
  let seed doc = Json.num (Json.member "seed" doc) in
  if seed doc_a <> seed doc_b then
    Printf.printf "seeds differ (%.0f, %.0f): the fingerprints are expected to differ\n"
      (seed doc_a) (seed doc_b);
  let a = workloads_of doc_a and b = workloads_of doc_b in
  let worse = ref false in
  List.iter
    (fun (name, ea) ->
      match List.assoc_opt name b with
      | None -> Printf.printf "%-18s missing from %s\n" name path_b
      | Some eb ->
        List.iter
          (fun (metric, _, bound) ->
            let get e = Json.path e [ "end_to_end"; metric ] in
            match (get ea, get eb) with
            | Some ma, Some mb ->
              let label, delta = verdict ~bound ma mb in
              if label = "worse" then worse := true;
              Printf.printf "%-18s %-16s %14.6g -> %14.6g  %+6.1f%%  (bound %.0f%%)  %s\n" name
                metric (value_of ma) (value_of mb) (100.0 *. delta) (100.0 *. bound) label
            | _ -> Printf.printf "%-18s %-16s missing\n" name metric)
          end_to_end;
        if Json.member "fingerprint" ea <> Json.member "fingerprint" eb then
          Printf.printf "%-18s MODEL CHANGED (fingerprints differ)\n" name)
    a;
  if !worse then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench_e2e.exe [--seed N] [--seconds S] [--json FILE] [--quick]\n\
    \       bench_e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
    \       bench_e2e.exe --compare A.json B.json";
  exit 2

let () =
  let workload = ref None and seed = ref 42 and seconds = ref None and trace = ref false in
  let quick = ref false and json_out = ref None in
  let int_arg s = match int_of_string_opt s with Some v when v >= 0 -> v | _ -> usage () in
  let rec parse = function
    | [] -> ()
    | "--compare" :: a :: b :: [] ->
      compare_files a b;
      exit 0
    | "--workload" :: name :: rest ->
      (match W.find name with
      | Some w -> workload := Some w
      | None ->
        Printf.eprintf "unknown workload %s (one of: %s)\n" name
          (String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2);
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := Some (int_arg v);
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seconds = Option.value !seconds ~default:(if !quick then 0 else 12) in
  match (!workload, !json_out) with
  | Some w, None -> run_one w ~seed:!seed ~seconds ~trace:!trace ~quick:!quick
  | Some _, Some _ -> usage ()
  | None, json_out -> run_suite ~seed:!seed ~seconds ~quick:!quick ~json_out
