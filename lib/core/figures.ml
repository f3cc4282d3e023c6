module Costs = Repro_hw.Costs
module Mechanism = Repro_hw.Mechanism
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Presets = Repro_workload.Presets
module Systems = Repro_runtime.Systems
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Pool = Repro_engine.Pool

type scale = Quick | Full

let n_req scale base = match scale with Quick -> base | Full -> 4 * base
let us v = v *. 1e3
let krps v = v *. 1e3
let quanta_us = [ 1; 5; 10; 25; 50; 100 ]

(* ------------------------------------------------------------------ *)
(* Shared sweep machinery                                              *)
(* ------------------------------------------------------------------ *)

(* A sweep as a figure series: offered load in kRps against p99.9
   slowdown. *)
let load_series label sweep =
  { Figure.label; points = List.map (fun (r, p) -> (r /. 1e3, p)) (Sweep.p999_series sweep) }

(* Independent series fan out over the configs; a mix whose generators
   share mutable state (kvstore-backed) is also shared *between* configs,
   so those figures run config-major, rates ascending, sequentially. *)
let sweep_series ~configs ~mix ~rates ~n () =
  Sweep.fan_out ~mixes:[ mix ]
    (fun (label, config) -> load_series label (Sweep.run ~config ~mix ~rates ~n_requests:n ()))
    configs

let slowdown_figure ~id ~title ~configs ~mix ~rates ~n ?(notes = []) scale =
  let series = sweep_series ~configs ~mix ~rates ~n:(n_req scale n) () in
  {
    Figure.id;
    title;
    xlabel = "load(kRps)";
    ylabel = "p99.9 slowdown";
    series;
    notes;
  }

let three_systems ~quantum_ns =
  [
    ("Persephone-FCFS", Systems.persephone_fcfs ~quantum_ns ());
    ("Shinjuku", Systems.shinjuku ~quantum_ns ());
    ("Concord", Systems.concord ~quantum_ns ());
  ]

let range lo hi step =
  let rec go v acc = if v > hi +. (step /. 2.) then List.rev acc else go (v +. step) (v :: acc) in
  go lo []

(* ------------------------------------------------------------------ *)
(* Fig. 2 / Fig. 15: preemption-mechanism overhead (notification +     *)
(* bookkeeping only, §2.2.1 semantics)                                 *)
(* ------------------------------------------------------------------ *)

let mech_overhead costs mech ~quantum_ns ~service_ns =
  let proc = Mechanism.proc_overhead costs mech in
  let notif_ns = Costs.ns_of costs (Mechanism.notif_cost_cycles costs mech) in
  let preemptions = service_ns / quantum_ns in
  proc +. (float_of_int (preemptions * notif_ns) /. float_of_int service_ns)

let mechanism_overhead_figure ~id ~title ~costs ~mechs ~notes =
  let service_ns = 500_000 in
  let series =
    List.map
      (fun (label, mech) ->
        {
          Figure.label;
          points =
            List.map
              (fun q ->
                ( float_of_int q,
                  100.0 *. mech_overhead costs mech ~quantum_ns:(q * 1_000) ~service_ns ))
              quanta_us;
        })
      mechs
  in
  {
    Figure.id;
    title;
    xlabel = "quantum(us)";
    ylabel = "overhead (%)";
    series;
    notes;
  }

let fig2 ?scale:_ () =
  mechanism_overhead_figure ~id:"fig2"
    ~title:"Preemption mechanism overhead vs scheduling quantum (500us requests)"
    ~costs:Costs.default
    ~mechs:
      [
        ("Posted IPIs (Shinjuku)", Mechanism.Ipi);
        ("rdtsc() instrumentation", Mechanism.Rdtsc_probe);
        ("Concord instrumentation", Mechanism.Cache_line);
      ]
    ~notes:
      [
        "paper: IPIs 33% @2us, 6% @10us; rdtsc ~21% flat; Concord ~1-1.5%, crossover ~25us";
      ]

let fig15 ?scale:_ () =
  mechanism_overhead_figure ~id:"fig15"
    ~title:"User-space IPIs vs Concord cooperation (Sapphire Rapids cost model)"
    ~costs:Costs.sapphire_rapids
    ~mechs:
      [
        ("User-space IPIs", Mechanism.Uipi);
        ("rdtsc() instrumentation", Mechanism.Rdtsc_probe);
        ("Concord cooperation", Mechanism.Cache_line);
      ]
    ~notes:
      [ "paper: Concord ~2x lower overhead than UIPIs; both dwarfed by rdtsc at all quanta" ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: worker idle time awaiting the next request (cnext)          *)
(* ------------------------------------------------------------------ *)

let fig3 ?(scale = Quick) () =
  let workers = 8 in
  let systems =
    [
      ("Shinjuku (SQ)", Systems.shinjuku ~n_workers:workers ());
      ("Persephone (SQ)", Systems.persephone_fcfs ~n_workers:workers ());
      ("Concord (JBSQ)", Systems.coop_jbsq ~n_workers:workers ());
    ]
  in
  let service_us = [ 1; 5; 10; 25; 50; 100 ] in
  (* Offered load: 90% of worker capacity, but capped below the
     dispatcher's own saturation point — the paper measures cnext with a
     backlog present and a dispatcher that still keeps up. *)
  let dispatcher_cap (config : Config.t) =
    let c = config.Config.costs in
    let per_req =
      Costs.ns_of c
        (c.Costs.disp_ingress_cycles + c.Costs.disp_completion_cycles
       + c.Costs.flag_propagation_cycles + c.Costs.disp_send_cycles
        +
        match config.Config.queue_model with
        | Config.Jbsq _ -> c.Costs.disp_jbsq_pick_cycles
        | Config.Single_queue -> 0)
    in
    0.6 /. float_of_int (max 1 per_req) *. 1e9
  in
  let series =
    List.map
      (fun (label, config) ->
        let points =
          Pool.parallel_map
            (fun s ->
              let service_ns = us (float_of_int s) in
              let mix = Mix.of_dist ~name:"fixed" (Service_dist.Fixed service_ns) in
              let rate =
                Float.min
                  (0.9 *. float_of_int workers /. service_ns *. 1e9)
                  (dispatcher_cap config)
              in
              let n = n_req scale (max 8_000 (min 40_000 (int_of_float (rate /. 50.0)))) in
              let summary =
                Repro_runtime.Server.run ~config ~mix
                  ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = rate })
                  ~n_requests:n ()
              in
              let gap = summary.Metrics.median_idle_gap_ns in
              (float_of_int s, 100.0 *. gap /. (gap +. service_ns)))
            service_us
        in
        { Figure.label; points })
      systems
  in
  {
    Figure.id = "fig3";
    title = "Worker idle time awaiting the next request, 8 cores, 90% load";
    xlabel = "service(us)";
    ylabel = "median idle overhead (%)";
    series;
    notes = [ "paper: SQ systems ~30-45% at 1us falling as 1/S; JBSQ(2) 9-13x lower" ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 5: queueing-only lateness study                                *)
(* ------------------------------------------------------------------ *)

let fig5 ?(scale = Quick) () =
  let workers = 14 in
  let mix = Presets.usr in
  let capacity = float_of_int workers /. Mix.mean_service_ns mix *. 1e9 in
  let fracs = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ] in
  let rates = List.map (fun f -> f *. capacity) fracs in
  let configs =
    [
      ("No preemption", Systems.ideal_no_preemption ~n_workers:workers ());
      ("Precise N(5,0)", Systems.ideal_single_queue ~sigma_ns:0.0 ~n_workers:workers ());
      ("N(5,1)", Systems.ideal_single_queue ~sigma_ns:1_000.0 ~n_workers:workers ());
      ("N(5,2)", Systems.ideal_single_queue ~sigma_ns:2_000.0 ~n_workers:workers ());
    ]
  in
  let series = sweep_series ~configs ~mix ~rates ~n:(n_req scale 80_000) () in
  let series =
    List.map
      (fun s ->
        { s with Figure.points = List.map (fun (x, y) -> (x /. (capacity /. 1e3), y)) s.Figure.points })
      series
  in
  {
    Figure.id = "fig5";
    title = "Impact of non-instantaneous preemption (queueing model, no overheads)";
    xlabel = "load(frac)";
    ylabel = "p99.9 slowdown";
    series;
    notes =
      [
        "paper: small sigma tracks precise preemption closely; no preemption explodes early";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Figs. 6-8: synthetic workloads                                      *)
(* ------------------------------------------------------------------ *)

let fig6 ~id ~quantum_ns scale =
  slowdown_figure ~id
    ~title:
      (Printf.sprintf "Bimodal(50:1, 50:100), quantum %dus" (quantum_ns / 1_000))
    ~configs:(three_systems ~quantum_ns) ~mix:Presets.ycsb_a
    ~rates:(range (krps 25.) (krps 260.) (krps 22.))
    ~n:60_000
    ~notes:
      [
        "paper @5us: Concord +18% over Shinjuku at 50x SLO; @2us: +45%; Persephone crosses first";
      ]
    scale

let fig6a ?(scale = Quick) () = fig6 ~id:"fig6a" ~quantum_ns:5_000 scale
let fig6b ?(scale = Quick) () = fig6 ~id:"fig6b" ~quantum_ns:2_000 scale

let fig7 ~id ~quantum_ns scale =
  slowdown_figure ~id
    ~title:
      (Printf.sprintf "Bimodal(99.5:0.5, 0.5:500), quantum %dus" (quantum_ns / 1_000))
    ~configs:(three_systems ~quantum_ns) ~mix:Presets.usr
    ~rates:(range 250e3 3.0e6 250e3)
    ~n:80_000
    ~notes:
      [ "paper @5us: Concord +20% over Shinjuku; @2us: +52%" ]
    scale

let fig7a ?(scale = Quick) () = fig7 ~id:"fig7a" ~quantum_ns:5_000 scale
let fig7b ?(scale = Quick) () = fig7 ~id:"fig7b" ~quantum_ns:2_000 scale

let fig8a ?(scale = Quick) () =
  slowdown_figure ~id:"fig8a" ~title:"Fixed(1), quantum 5us"
    ~configs:(three_systems ~quantum_ns:5_000) ~mix:Presets.fixed_1us
    ~rates:(range 400e3 4.0e6 400e3)
    ~n:80_000
    ~notes:
      [
        "paper: all three within ~2% (dispatcher-bound); Concord pays the shortest-queue pick";
      ]
    scale

let fig8b ?(scale = Quick) () =
  slowdown_figure ~id:"fig8b" ~title:"TPC-C (in-memory), quantum 10us"
    ~configs:(three_systems ~quantum_ns:10_000) ~mix:Presets.tpcc
    ~rates:(range (krps 75.) (krps 750.) (krps 75.))
    ~n:60_000
    ~notes:
      [
        "paper: Persephone-FCFS best (no useful preemptions); Concord above Shinjuku";
      ]
    scale

(* ------------------------------------------------------------------ *)
(* Figs. 9-11, 13: LevelDB                                             *)
(* ------------------------------------------------------------------ *)

let kv_mix ~which ~seed =
  let store = Repro_kvstore.Kv_workload.populate ~seed () in
  match which with
  | `Get_scan -> Repro_kvstore.Kv_workload.get_scan_mix store ~seed
  | `Zippydb -> Repro_kvstore.Kv_workload.zippydb_mix store ~seed

let fig9 ~id ~quantum_ns scale =
  let mix = kv_mix ~which:`Get_scan ~seed:7 in
  slowdown_figure ~id
    ~title:(Printf.sprintf "LevelDB 50%% GET / 50%% SCAN, quantum %dus" (quantum_ns / 1_000))
    ~configs:(three_systems ~quantum_ns) ~mix
    ~rates:(range (krps 4.) (krps 56.) (krps 4.))
    ~n:16_000
    ~notes:[ "paper @5us: Concord +52% over Shinjuku; @2us: +83%" ]
    scale

let fig9a ?(scale = Quick) () = fig9 ~id:"fig9a" ~quantum_ns:5_000 scale
let fig9b ?(scale = Quick) () = fig9 ~id:"fig9b" ~quantum_ns:2_000 scale

let fig10 ?(scale = Quick) () =
  let mix = kv_mix ~which:`Zippydb ~seed:7 in
  slowdown_figure ~id:"fig10" ~title:"LevelDB, ZippyDB production mix, quantum 5us"
    ~configs:(three_systems ~quantum_ns:5_000) ~mix
    ~rates:(range (krps 60.) (krps 660.) (krps 60.))
    ~n:40_000
    ~notes:[ "paper: Concord +19% over Shinjuku, in line with fig7a" ]
    scale

let fig11 ?(scale = Quick) () =
  let quantum_ns = 2_000 in
  let mix = kv_mix ~which:`Get_scan ~seed:7 in
  slowdown_figure ~id:"fig11"
    ~title:"Contribution of each Concord mechanism (LevelDB 50/50, 2us quantum)"
    ~configs:
      [
        ("Persephone-FCFS", Systems.persephone_fcfs ~quantum_ns ());
        ("Shinjuku: IPIs+SQ", Systems.shinjuku ~quantum_ns ());
        ("Co-op+SQ", Systems.coop_sq ~quantum_ns ());
        ("Co-op+JBSQ(2)", Systems.coop_jbsq ~quantum_ns ());
        ("Concord (+disp work)", Systems.concord ~quantum_ns ());
      ]
    ~mix
    ~rates:(range (krps 4.) (krps 64.) (krps 4.))
    ~n:16_000
    ~notes:[ "paper: ~19k -> 22.5k -> 32k -> 35k kRps at the 50x SLO" ]
    scale

let fig13 ?(scale = Quick) () =
  let mix = kv_mix ~which:`Get_scan ~seed:7 in
  slowdown_figure ~id:"fig13"
    ~title:"Small-VM config (2 workers): dedicated vs work-conserving dispatcher"
    ~configs:
      [
        ("Concord w/o dispatcher work", Systems.concord_no_steal ~n_workers:2 ());
        ("Concord", Systems.concord ~n_workers:2 ());
      ]
    ~mix
    ~rates:(range (krps 0.75) (krps 7.5) (krps 0.75))
    ~n:10_000
    ~notes:[ "paper: running application logic on the dispatcher buys ~33% throughput" ]
    scale

(* ------------------------------------------------------------------ *)
(* Fig. 12: preemption overhead incl. switch + next request            *)
(* ------------------------------------------------------------------ *)

let fig12 ?(scale = Quick) () =
  let workers = 8 in
  let service_ns = 500_000 in
  let mix = Mix.of_dist ~name:"Fixed(500)" (Service_dist.Fixed (float_of_int service_ns)) in
  let n = n_req scale 2_000 in
  let rate = 1.15 *. float_of_int workers /. float_of_int service_ns *. 1e9 in
  let goodput config =
    let summary =
      Repro_runtime.Server.run ~config ~mix
        ~arrival:(Repro_workload.Arrival.Poisson { rate_rps = rate })
        ~n_requests:n ~drain_cap_ns:2_000_000_000 ()
    in
    summary.Metrics.goodput_rps
  in
  let overhead_series (label, make_config) =
    (* Baseline: the same queue model with preemption off. *)
    let baseline =
      goodput
        (let c = make_config ~quantum_ns:1_000_000 in
         { c with Config.mechanism = Mechanism.No_preempt })
    in
    let points =
      Pool.parallel_map
        (fun q ->
          let g = goodput (make_config ~quantum_ns:(q * 1_000)) in
          (float_of_int q, 100.0 *. Float.max 0.0 (1.0 -. (g /. baseline))))
        quanta_us
    in
    { Figure.label; points }
  in
  let series =
    List.map overhead_series
      [
        ("Shinjuku: IPIs+SQ", fun ~quantum_ns -> Systems.shinjuku ~n_workers:workers ~quantum_ns ());
        ("Co-op+SQ", fun ~quantum_ns -> Systems.coop_sq ~n_workers:workers ~quantum_ns ());
        ( "Concord: Co-op+JBSQ(2)",
          fun ~quantum_ns -> Systems.coop_jbsq ~n_workers:workers ~quantum_ns () );
      ]
  in
  {
    Figure.id = "fig12";
    title = "Throughput overhead of preemptive scheduling (500us requests, saturation)";
    xlabel = "quantum(us)";
    ylabel = "overhead (%)";
    series;
    notes = [ "paper: Concord reduces preemption overhead ~4x vs Shinjuku" ];
  }

(* ------------------------------------------------------------------ *)
(* Fig. 14: low-load zoom of fig6a                                     *)
(* ------------------------------------------------------------------ *)

let fig14 ?(scale = Quick) () =
  let f =
    slowdown_figure ~id:"fig14" ~title:"Zoom of fig6a at low load (cost of stealing, 5.5)"
      ~configs:(three_systems ~quantum_ns:5_000) ~mix:Presets.ycsb_a
      ~rates:(range (krps 25.) (krps 150.) (krps 25.))
      ~n:120_000
      ~notes:
        [
          "paper: Concord's p99.9 ~3 slowdown above Shinjuku at low load (dispatcher-run requests are slower)";
        ]
      scale
  in
  f

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper's figures                                *)
(* ------------------------------------------------------------------ *)

let ablation_jbsq_k ?(scale = Quick) () =
  (* Short requests are where the hand-off stall matters (3.2): k=1 leaves
     the worker idle for every dispatcher round trip, k=2 hides it, deeper
     queues only degrade load balance. *)
  let quantum_ns = 2_000 in
  slowdown_figure ~id:"ablation-jbsq-k"
    ~title:"JBSQ depth sweep on Bimodal(99.5:0.5, 0.5:500), 4 workers (2us quantum)"
    ~configs:
      (List.map
         (fun k ->
           (Printf.sprintf "JBSQ(%d)" k, Systems.coop_jbsq ~k ~n_workers:4 ~quantum_ns ()))
         [ 1; 2; 4; 8 ])
    ~mix:Presets.usr
    ~rates:(range 100e3 1.4e6 100e3)
    ~n:60_000
    ~notes:[ "3.2: k=2 captures the throughput; deeper queues only hurt tail latency" ]
    scale

let ablation_locks ?(scale = Quick) () =
  (* 3.1's microbenchmark: a workload whose long requests spend 100us in a
     single store API call but hold the mutex only briefly at its start.
     Shinjuku's whole-call integration cannot preempt them at all. *)
  let long_call rng =
    ignore rng;
    {
      Mix.class_id = 0;
      service_ns = 100_000;
      lock_windows = [| (0, 3_000) |];
      probe_spacing_ns = 0.0;
    }
  in
  let mix =
    Mix.of_classes ~name:"long-GET microbenchmark"
      [|
        Mix.simple_class ~name:"GET" ~weight:0.9 ~dist:(Service_dist.Fixed 600.0);
        { Mix.name = "LONG_GET"; weight = 0.1; mean_ns = 100_000.0; generate = long_call };
      |]
  in
  (* Four workers, as on a small VM: with whole-call locking a handful of
     unpreemptable 100us calls is enough to trap the 600ns GETs. *)
  slowdown_figure ~id:"ablation-locks"
    ~title:"Safety-first preemption: lock counter vs whole-call no-preempt (4 workers)"
    ~configs:
      [
        ("Shinjuku (whole-call)", Systems.shinjuku_whole_call ~n_workers:4 ~quantum_ns:5_000 ());
        ("Concord (lock counter)", Systems.concord ~n_workers:4 ~quantum_ns:5_000 ());
      ]
    ~mix
    ~rates:(range (krps 30.) (krps 360.) (krps 30.))
    ~n:60_000
    ~notes:[ "3.1: Concord ~4x the throughput at the same tail-latency SLO" ]
    scale

let ablation_probe_spacing ?(scale = Quick) () =
  let quantum_ns = 5_000 in
  let spacing_variants = [ 100.0; 1_000.0; 5_000.0; 20_000.0 ] in
  let with_spacing spacing =
    let base = Presets.usr in
    let classes =
      Array.map
        (fun (c : Mix.class_def) ->
          {
            c with
            Mix.generate =
              (fun rng ->
                let p = c.Mix.generate rng in
                { p with Mix.probe_spacing_ns = spacing });
          })
        base.Mix.classes
    in
    Mix.of_classes ~name:base.Mix.name classes
  in
  let rates = range 500e3 3.0e6 500e3 in
  let series =
    List.map
      (fun spacing ->
        let mix = with_spacing spacing in
        let config = Systems.concord ~quantum_ns () in
        load_series
          (Printf.sprintf "probes every %gus" (spacing /. 1e3))
          (Sweep.run ~config ~mix ~rates ~n_requests:(n_req scale 60_000) ()))
      spacing_variants
  in
  {
    Figure.id = "ablation-probe-spacing";
    title = "Concord tail vs probe spacing (USR workload, 5us quantum)";
    xlabel = "load(kRps)";
    ylabel = "p99.9 slowdown";
    series;
    notes = [ "3.1/5.4: lateness within ~2us of the quantum leaves the tail intact" ];
  }

let ablation_sls ?(scale = Quick) () =
  let quantum_ns = 2_000 in
  let mix = Presets.usr in
  let rates = range 500e3 4.5e6 500e3 in
  let n = n_req scale 40_000 in
  let physical =
    load_series "Concord (physical queue)"
      (Sweep.run ~config:(Systems.concord ~quantum_ns ()) ~mix ~rates ~n_requests:n ())
  in
  let sls_series (label, config) =
    load_series label
      (Sweep.of_runner ~mix ~rates (fun arrival ->
           Repro_runtime.Sls_server.run ~config ~mix ~arrival ~n_requests:n ()))
  in
  let series =
    physical
    :: List.map sls_series
         [
           ("Concord-SLS (stealing)", Repro_runtime.Sls_server.concord_sls ~quantum_ns ());
           ("Shenango-like (no preempt)", Repro_runtime.Sls_server.shenango_like ~quantum_ns ());
           ("d-FCFS (partitioned)", Repro_runtime.Sls_server.partitioned_fcfs ~quantum_ns ());
         ]
  in
  {
    Figure.id = "ablation-sls";
    title = "Single logical queue (6): cooperation without a dispatcher bottleneck";
    xlabel = "load(kRps)";
    ylabel = "p99.9 slowdown";
    series;
    notes =
      [
        "6: compiler-enforced cooperation composes with work stealing and outgrows the single dispatcher";
      ];
  }

let ablation_replication ?(scale = Quick) () =
  let mix = Presets.fixed_1us in
  let rates = range 1.0e6 9.0e6 2.0e6 in
  let n = n_req scale 40_000 in
  let series =
    List.map
      (fun (label, instances, workers) ->
        (* Replicas fed by a uniform random split: the rack under Random. *)
        let cluster =
          Repro_cluster.Cluster.homogeneous ~policy:Repro_cluster.Lb_policy.Random ~instances
            (Systems.concord ~n_workers:workers ())
        in
        load_series label
          (Sweep.of_runner ~mix ~rates (fun arrival ->
               (Repro_cluster.Cluster.run ~cluster ~mix ~arrival ~n_requests:n ())
                 .Repro_cluster.Cluster.cluster)))
      [ ("1x14 workers", 1, 14); ("2x7 workers", 2, 7); ("4x4 workers", 4, 4) ]
  in
  {
    Figure.id = "ablation-replication";
    title = "Multi-dispatcher replication (6) on Fixed(1)";
    xlabel = "load(kRps)";
    ylabel = "p99.9 slowdown";
    series;
    notes = [ "6: replicas with disjoint cores scale past the single-dispatcher bound of fig8a" ];
  }

let ablation_classes ?(scale = Quick) () =
  let quantum_ns = 2_000 in
  let mix = kv_mix ~which:`Get_scan ~seed:7 in
  let rates = range (krps 4.) (krps 44.) (krps 8.) in
  let n = n_req scale 16_000 in
  let class_p999 (summary : Metrics.summary) name =
    let found = ref 0.0 in
    Array.iter
      (fun (cls, count, p999) -> if cls = name && count > 0 then found := p999)
      summary.Metrics.per_class;
    !found
  in
  let series =
    List.concat_map
      (fun (label, config) ->
        (* kv-backed mix: runs stay config-major, rates ascending, sequential *)
        let points = (Sweep.run ~config ~mix ~rates ~n_requests:n ()).Sweep.points in
        let class_series cls =
          {
            Figure.label = label ^ " " ^ cls;
            points =
              List.map
                (fun (p : Sweep.point) -> (p.rate_rps /. 1e3, class_p999 p.summary cls))
                points;
          }
        in
        [ class_series "GET"; class_series "SCAN" ])
      [
        ("Persephone", Systems.persephone_fcfs ~quantum_ns ());
        ("Concord", Systems.concord ~quantum_ns ());
      ]
  in
  {
    Figure.id = "ablation-classes";
    title = "Per-class p99.9 slowdown, LevelDB 50/50 (2us quantum)";
    xlabel = "load(kRps)";
    ylabel = "p99.9 slowdown";
    series;
    notes =
      [
        "preemption rescues the GET tail; SCANs' slowdown budget (50x of 500us) absorbs the slicing";
      ];
  }

let ablation_scaling ?(scale = Quick) () =
  let quantum_ns = 5_000 in
  let mix = Presets.usr in
  let n = n_req scale 50_000 in
  let worker_counts = [ 4; 8; 14; 20; 28 ] in
  let crossing_of ~run ~capacity =
    (* Sweep up to the nominal worker capacity and interpolate the 50x
       crossing; report it in MRps. *)
    let rates = List.init 8 (fun i -> capacity *. 0.95 *. float_of_int (i + 1) /. 8.0) in
    match Slo.max_load_under_slo (Sweep.of_runner ~mix ~rates run) with
    | Some r -> r /. 1e6
    | None -> 0.0
  in
  let capacity workers = float_of_int workers /. Mix.mean_service_ns mix *. 1e9 in
  let physical =
    Pool.parallel_map
      (fun workers ->
        let config = Systems.concord ~n_workers:workers ~quantum_ns () in
        let run arrival = Repro_runtime.Server.run ~config ~mix ~arrival ~n_requests:n () in
        (float_of_int workers, crossing_of ~run ~capacity:(capacity workers)))
      worker_counts
  in
  let sls =
    Pool.parallel_map
      (fun workers ->
        let config = Repro_runtime.Sls_server.concord_sls ~n_workers:workers ~quantum_ns () in
        let run arrival = Repro_runtime.Sls_server.run ~config ~mix ~arrival ~n_requests:n () in
        (float_of_int workers, crossing_of ~run ~capacity:(capacity workers)))
      worker_counts
  in
  {
    Figure.id = "ablation-scaling";
    title = "Worker-count scaling on USR (6's single-dispatcher limitation)";
    xlabel = "workers";
    ylabel = "max MRps under 50x SLO";
    series =
      [
        { Figure.label = "Concord (1 dispatcher)"; points = physical };
        { Figure.label = "Concord-SLS"; points = sls };
      ];
    notes = [ "6: the single dispatcher flattens; the logical queue keeps scaling" ];
  }

let ablation_batching ?(scale = Quick) () =
  let mix = Presets.fixed_1us in
  slowdown_figure ~id:"ablation-batching" ~title:"Ingress batching (6) on Fixed(1)"
    ~configs:
      (List.map
         (fun batch ->
           ( (if batch = 1 then "no batching" else Printf.sprintf "batch %d" batch),
             Systems.concord_batched ~batch () ))
         [ 1; 8; 32 ])
    ~mix
    ~rates:(range 1.0e6 6.0e6 1.0e6)
    ~n:40_000
    ~notes:
      [ "6: batching trades a little low-load latency for a later dispatcher saturation" ]
    scale

(* ------------------------------------------------------------------ *)

let all =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig5", fig5);
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig8a", fig8a);
    ("fig8b", fig8b);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("ablation-jbsq-k", ablation_jbsq_k);
    ("ablation-locks", ablation_locks);
    ("ablation-probe-spacing", ablation_probe_spacing);
    ("ablation-sls", ablation_sls);
    ("ablation-replication", ablation_replication);
    ("ablation-classes", ablation_classes);
    ("ablation-scaling", ablation_scaling);
    ("ablation-batching", ablation_batching);
  ]

let by_id id = List.assoc_opt id all
