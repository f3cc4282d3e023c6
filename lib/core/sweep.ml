module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival

type point = { rate_rps : float; summary : Repro_runtime.Metrics.summary }

type t = { workload : string; points : point list }

(* The one fan-out rule of every sweep and study. Each point or cell
   derives all randomness from its explicit seed and shares no state with
   its siblings, so fanning them across domains is bit-identical to the
   sequential map -- unless a mix closes over shared mutable state (the
   kvstore-backed mixes), which keeps the work on this domain, in order. *)
let fan_out ?domains ~mixes f xs =
  if List.for_all (fun (m : Mix.t) -> m.Mix.parallel_safe) mixes then
    Repro_engine.Pool.parallel_map ?domains f xs
  else List.map f xs

let at_rates ?domains ~mix ~rates run =
  fan_out ?domains ~mixes:[ mix ]
    (fun rate_rps -> (rate_rps, run (Arrival.Poisson { rate_rps })))
    (List.sort_uniq compare rates)

let of_runner ?domains ~mix ~rates run =
  {
    workload = mix.Mix.name;
    points =
      List.map
        (fun (rate_rps, summary) -> { rate_rps; summary })
        (at_rates ?domains ~mix ~rates run);
  }

let run ~config ~mix ~rates ?(n_requests = 60_000) ?(seed = 42) ?domains () =
  of_runner ?domains ~mix ~rates (fun arrival ->
      Repro_runtime.Server.run ~config ~mix ~arrival ~n_requests ~seed ())

let default_rates ~mix ~n_workers ?(points = 10) () =
  let mean_ns = Mix.mean_service_ns mix in
  let capacity = float_of_int n_workers /. mean_ns *. 1e9 in
  List.init points (fun i ->
      let frac = 0.95 *. float_of_int (i + 1) /. float_of_int points in
      frac *. capacity)

let p999_series t =
  List.map (fun p -> (p.rate_rps, p.summary.Repro_runtime.Metrics.p999_slowdown)) t.points

(* ---- policy frontier -------------------------------------------------- *)

type frontier_point = {
  config_name : string;
  policy_spec : string;
  workload : string;
  squared_cv : float;
  util : float;
  rate_rps : float;
  summary : Repro_runtime.Metrics.summary;
}

let squared_cv_of_dist d =
  let module Sd = Repro_workload.Service_dist in
  match Sd.second_moment d with
  | None -> Float.nan
  | Some m2 ->
    let m = Sd.mean_ns d in
    (m2 /. (m *. m)) -. 1.0

let dispersion_axis ~short_ns ~long_ns ~p_shorts =
  let refuse fmt = Printf.ksprintf (fun m -> invalid_arg ("Sweep.dispersion_axis: " ^ m)) fmt in
  List.iter
    (fun (name, ns) ->
      if not (Float.is_finite ns && ns > 0.0) then refuse "%s %g is not a finite size > 0" name ns)
    [ ("short_ns", short_ns); ("long_ns", long_ns) ];
  List.iter
    (fun p -> if not (p >= 0.0 && p <= 1.0) then refuse "p_short %g is outside [0, 1]" p)
    p_shorts;
  List.map
    (fun p_short ->
      let d = Repro_workload.Service_dist.Bimodal { p_short; short_ns; long_ns } in
      let mix =
        Mix.of_dist ~name:(Printf.sprintf "Bimodal(p=%g)" p_short) d
      in
      (squared_cv_of_dist d, mix))
    p_shorts

let run_frontier ~configs ~policies ~workloads ?(utils = [ 0.7 ]) ?(n_requests = 60_000)
    ?(seed = 42) ?domains () =
  let cells =
    List.concat_map
      (fun config ->
        List.concat_map
          (fun spec ->
            List.concat_map
              (fun (cv2, mix) -> List.map (fun util -> (config, spec, cv2, mix, util)) utils)
              workloads)
          policies)
      configs
  in
  let run_cell ((config : Repro_runtime.Config.t), spec, cv2, (mix : Mix.t), util) =
    let policy =
      match Repro_runtime.Policy.of_spec spec ~mix with
      | Ok kind -> kind
      | Error e -> invalid_arg ("Sweep.run_frontier: " ^ e)
    in
    let rate_rps =
      util *. float_of_int config.Repro_runtime.Config.n_workers /. Mix.mean_service_ns mix
      *. 1e9
    in
    let summary =
      Repro_runtime.Server.run
        ~config:{ config with Repro_runtime.Config.policy }
        ~mix
        ~arrival:(Arrival.Poisson { rate_rps })
        ~n_requests ~seed ()
    in
    {
      config_name = config.Repro_runtime.Config.name;
      policy_spec = spec;
      workload = mix.Mix.name;
      squared_cv = cv2;
      util;
      rate_rps;
      summary;
    }
  in
  (* A cell resolves its policy against its own mix (["gittins"] refits
     its index table there), so cells stay independent for [fan_out]. *)
  fan_out ?domains ~mixes:(List.map snd workloads) run_cell cells

let frontier_csv points =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "config,policy,workload,squared_cv,util,rate_rps,p50,p99,p999,mean,goodput_rps,preemptions\n";
  List.iter
    (fun p ->
      let s = p.summary in
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%s,%.4f,%.3f,%.1f,%.4f,%.4f,%.4f,%.4f,%.1f,%d\n" p.config_name
           p.policy_spec p.workload p.squared_cv p.util p.rate_rps
           s.Repro_runtime.Metrics.p50_slowdown s.Repro_runtime.Metrics.p99_slowdown
           s.Repro_runtime.Metrics.p999_slowdown s.Repro_runtime.Metrics.mean_slowdown
           s.Repro_runtime.Metrics.goodput_rps s.Repro_runtime.Metrics.preemptions))
    points;
  Buffer.contents b

(* The one pivot table of both studies: a block per [block] value titled
   [title], a row per [row] value led by its [row_label] (the header row's
   by [row_label row_head]), a column per [col] value headed [col_label],
   each cell [cell] of the first point at that block, row and column, or
   "-" where there is none. Every axis is in ascending order. *)
let pivot ~block ~title ~row ~row_head ~row_label ~col ~col_label ~cell points =
  let axis f = List.sort_uniq compare (List.map f points) in
  let cols = axis col in
  let b = Buffer.create 4096 in
  let add_cell text = Buffer.add_string b (Printf.sprintf "%18s" text) in
  List.iter
    (fun bv ->
      Buffer.add_string b (title bv);
      Buffer.add_string b (row_label row_head);
      List.iter (fun c -> add_cell (col_label c)) cols;
      Buffer.add_char b '\n';
      List.iter
        (fun r ->
          Buffer.add_string b (row_label r);
          List.iter
            (fun c ->
              match List.find_opt (fun p -> block p = bv && row p = r && col p = c) points with
              | Some p -> add_cell (cell p)
              | None -> add_cell "-")
            cols;
          Buffer.add_char b '\n')
        (axis row);
      Buffer.add_char b '\n')
    (axis block);
  Buffer.contents b

let render_frontier (points : frontier_point list) =
  pivot points
    ~block:(fun p -> p.util)
    ~title:(fun util ->
      Printf.sprintf "p99 (p99.9) slowdown at %.0f%% utilization\n" (100.0 *. util))
    ~row:(fun p -> (p.config_name, p.policy_spec))
    ~row_head:("config", "policy")
    ~row_label:(fun (config_name, policy_spec) ->
      Printf.sprintf "%-22s %-16s" config_name policy_spec)
    ~col:(fun p -> p.squared_cv)
    ~col_label:(Printf.sprintf "CV2=%.1f")
    ~cell:(fun p ->
      Printf.sprintf "%.1f (%.1f)" p.summary.Repro_runtime.Metrics.p99_slowdown
        p.summary.Repro_runtime.Metrics.p999_slowdown)

(* ---- tail-tolerance (hedge) study ------------------------------------ *)

type hedge_point = {
  lb_policy : string;
  rtt_cycles : int;
  hedge_spec : string;
  steal : bool;
  util : float;
  rate_rps : float;
  hedges : int;
  hedge_wins : int;
  hedge_cancels : int;
  hedge_wasted_ns : int;
  steals : int;
  dup_frac : float;
  summary : Repro_runtime.Metrics.summary;
}

let run_hedge_study ~config ~mix ~rtts ~hedges ~policies ?(steal = false)
    ?(stragglers = []) ?(instances = 3) ?(util = 0.7) ?(n_requests = 40_000) ?(seed = 42)
    ?domains () =
  let module Cluster = Repro_cluster.Cluster in
  let cells =
    List.concat_map
      (fun rtt ->
        List.concat_map (fun h -> List.map (fun pol -> (rtt, h, pol)) policies) hedges)
      (List.sort_uniq compare rtts)
  in
  let run_cell (rtt_cycles, hedge_spec, policy_spec) =
    let policy =
      match Repro_cluster.Lb_policy.of_string policy_spec with
      | Ok p -> p
      | Error e -> invalid_arg ("Sweep.run_hedge_study: " ^ e)
    in
    let hedge =
      match Repro_cluster.Hedge.of_string hedge_spec with
      | Ok h -> h
      | Error e -> invalid_arg ("Sweep.run_hedge_study: " ^ e)
    in
    let cluster =
      Cluster.homogeneous ~policy ~rtt_cycles ~hedge ~steal ~stragglers ~instances config
    in
    let rate_rps =
      util
      *. float_of_int (instances * config.Repro_runtime.Config.n_workers)
      /. Mix.mean_service_ns mix *. 1e9
    in
    let s =
      Cluster.run ~cluster ~mix ~arrival:(Arrival.Poisson { rate_rps }) ~n_requests ~seed ()
    in
    {
      lb_policy = policy_spec;
      rtt_cycles;
      hedge_spec;
      steal;
      util;
      rate_rps;
      hedges = s.Cluster.hedges;
      hedge_wins = s.Cluster.hedge_wins;
      hedge_cancels = s.Cluster.hedge_cancels;
      hedge_wasted_ns = s.Cluster.hedge_wasted_ns;
      steals = s.Cluster.steals;
      dup_frac = float_of_int s.Cluster.hedges /. float_of_int (max 1 s.Cluster.requests);
      summary = s.Cluster.cluster;
    }
  in
  fan_out ?domains ~mixes:[ mix ] run_cell cells

let hedge_csv points =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "lb_policy,rtt_cycles,hedge,steal,util,rate_rps,p50,p99,p999,hedges,hedge_wins,hedge_cancels,hedge_wasted_ns,steals,dup_frac\n";
  List.iter
    (fun p ->
      let s = p.summary in
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%s,%b,%.3f,%.1f,%.4f,%.4f,%.4f,%d,%d,%d,%d,%d,%.4f\n" p.lb_policy
           p.rtt_cycles p.hedge_spec p.steal p.util p.rate_rps
           s.Repro_runtime.Metrics.p50_slowdown s.Repro_runtime.Metrics.p99_slowdown
           s.Repro_runtime.Metrics.p999_slowdown p.hedges p.hedge_wins p.hedge_cancels
           p.hedge_wasted_ns p.steals p.dup_frac))
    points;
  Buffer.contents b

let render_hedge points =
  pivot points
    ~block:(fun p -> p.lb_policy)
    ~title:(Printf.sprintf "p99 slowdown (duplicate %%) under %s routing\n")
    ~row:(fun p -> p.hedge_spec)
    ~row_head:"hedge"
    ~row_label:(Printf.sprintf "%-16s")
    ~col:(fun p -> p.rtt_cycles)
    ~col_label:(Printf.sprintf "rtt=%d")
    ~cell:(fun p ->
      Printf.sprintf "%.1f (%.1f%%)" p.summary.Repro_runtime.Metrics.p99_slowdown
        (100.0 *. p.dup_frac))
