module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival

type point = { rate_rps : float; summary : Repro_runtime.Metrics.summary }

type t = {
  system : string;
  workload : string;
  points : point list;
}

let run ~config ~mix ~rates ?(n_requests = 60_000) ?(seed = 42) ?(burst = 1) ?domains () =
  let run_one rate_rps =
    let arrival =
      if burst > 1 then Arrival.Burst_poisson { rate_rps; burst } else Arrival.Poisson { rate_rps }
    in
    let summary =
      Repro_runtime.Server.run ~config ~mix ~arrival ~n_requests ~seed ()
    in
    { rate_rps; summary }
  in
  (* Each point derives all randomness from the explicit seed and shares no
     state with its siblings, so fanning points across domains is
     bit-identical to the sequential map — unless the mix itself closes
     over shared mutable state (kvstore-backed mixes), which forces the
     sequential path. *)
  let map_points =
    if mix.Mix.parallel_safe then Repro_engine.Pool.parallel_map ?domains else List.map
  in
  {
    system = config.Repro_runtime.Config.name;
    workload = mix.Mix.name;
    points = map_points run_one (List.sort_uniq compare rates);
  }

let run_cluster ~cluster ~mix ~rates ?(n_requests = 60_000) ?(seed = 42) ?(burst = 1) ?domains
    () =
  let module Cluster = Repro_cluster.Cluster in
  let run_one rate_rps =
    let arrival =
      if burst > 1 then Arrival.Burst_poisson { rate_rps; burst } else Arrival.Poisson { rate_rps }
    in
    let s = Cluster.run ~cluster ~mix ~arrival ~n_requests ~seed () in
    { rate_rps; summary = s.Cluster.cluster }
  in
  (* Same determinism argument as [run]: every point reseeds from [seed]
     and owns its whole rack simulation, so the domain fan-out is
     bit-identical to the sequential map. *)
  let map_points =
    if mix.Mix.parallel_safe then Repro_engine.Pool.parallel_map ?domains else List.map
  in
  let spec0 = cluster.Cluster.specs.(0) in
  {
    system =
      Printf.sprintf "rack-%dx%s/%s"
        (Array.length cluster.Cluster.specs)
        spec0.Cluster.config.Repro_runtime.Config.name
        (Repro_cluster.Lb_policy.name cluster.Cluster.policy);
    workload = mix.Mix.name;
    points = map_points run_one (List.sort_uniq compare rates);
  }

let default_rates ~mix ~n_workers ?(points = 10) ?(max_util = 0.95) () =
  let mean_ns = Mix.mean_service_ns mix in
  let capacity = float_of_int n_workers /. mean_ns *. 1e9 in
  List.init points (fun i ->
      let frac = max_util *. float_of_int (i + 1) /. float_of_int points in
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
  (* Same argument as [run]: each cell is a self-seeded independent
     simulation (and ["gittins"] refits its index table inside the cell
     from the cell's own mix), so the fan-out is bit-identical to the
     sequential map for pure synthetic mixes. *)
  let map_cells =
    if List.for_all (fun (_, m) -> m.Mix.parallel_safe) workloads then
      Repro_engine.Pool.parallel_map ?domains
    else List.map
  in
  map_cells run_cell cells

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

(* One block per utilization: rows are config x policy, columns the CV^2
   axis, each cell "p99 (p99.9)" slowdown. *)
let render_frontier (points : frontier_point list) =
  let b = Buffer.create 4096 in
  let utils = List.sort_uniq compare (List.map (fun p -> p.util) points) in
  let cvs = List.sort_uniq compare (List.map (fun p -> p.squared_cv) points) in
  let rows =
    List.sort_uniq compare (List.map (fun p -> (p.config_name, p.policy_spec)) points)
  in
  let col_w = 18 in
  List.iter
    (fun util ->
      Buffer.add_string b
        (Printf.sprintf "p99 (p99.9) slowdown at %.0f%% utilization\n" (100.0 *. util));
      Buffer.add_string b (Printf.sprintf "%-22s %-16s" "config" "policy");
      List.iter
        (fun cv -> Buffer.add_string b (Printf.sprintf "%*s" col_w (Printf.sprintf "CV2=%.1f" cv)))
        cvs;
      Buffer.add_char b '\n';
      List.iter
        (fun (config_name, policy_spec) ->
          Buffer.add_string b (Printf.sprintf "%-22s %-16s" config_name policy_spec);
          List.iter
            (fun cv ->
              match
                List.find_opt
                  (fun p ->
                    p.util = util && p.squared_cv = cv
                    && p.config_name = config_name
                    && p.policy_spec = policy_spec)
                  points
              with
              | Some p ->
                Buffer.add_string b
                  (Printf.sprintf "%*s" col_w
                     (Printf.sprintf "%.1f (%.1f)" p.summary.Repro_runtime.Metrics.p99_slowdown
                        p.summary.Repro_runtime.Metrics.p999_slowdown))
              | None -> Buffer.add_string b (Printf.sprintf "%*s" col_w "-"))
            cvs;
          Buffer.add_char b '\n')
        rows;
      Buffer.add_char b '\n')
    utils;
  Buffer.contents b

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
  (* Same determinism argument as [run_frontier]: each cell owns a whole
     self-seeded rack simulation. *)
  let map_cells =
    if mix.Mix.parallel_safe then Repro_engine.Pool.parallel_map ?domains else List.map
  in
  map_cells run_cell cells

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

(* One block per LB policy: rows are hedge specs, columns the RTT axis,
   each cell "p99 (dup%)". *)
let render_hedge points =
  let b = Buffer.create 4096 in
  let policies = List.sort_uniq compare (List.map (fun p -> p.lb_policy) points) in
  let rtts = List.sort_uniq compare (List.map (fun p -> p.rtt_cycles) points) in
  let hedges = List.sort_uniq compare (List.map (fun p -> p.hedge_spec) points) in
  let col_w = 18 in
  List.iter
    (fun pol ->
      Buffer.add_string b
        (Printf.sprintf "p99 slowdown (duplicate %%) under %s routing\n" pol);
      Buffer.add_string b (Printf.sprintf "%-16s" "hedge");
      List.iter
        (fun rtt ->
          Buffer.add_string b (Printf.sprintf "%*s" col_w (Printf.sprintf "rtt=%d" rtt)))
        rtts;
      Buffer.add_char b '\n';
      List.iter
        (fun h ->
          Buffer.add_string b (Printf.sprintf "%-16s" h);
          List.iter
            (fun rtt ->
              match
                List.find_opt
                  (fun p -> p.lb_policy = pol && p.rtt_cycles = rtt && p.hedge_spec = h)
                  points
              with
              | Some p ->
                Buffer.add_string b
                  (Printf.sprintf "%*s" col_w
                     (Printf.sprintf "%.1f (%.1f%%)"
                        p.summary.Repro_runtime.Metrics.p99_slowdown
                        (100.0 *. p.dup_frac)))
              | None -> Buffer.add_string b (Printf.sprintf "%*s" col_w "-"))
            rtts;
          Buffer.add_char b '\n')
        hedges;
      Buffer.add_char b '\n')
    policies;
  Buffer.contents b
