(* Tests for the public Concord facade: sweeps, SLO analysis, figure
   rendering, and the analytic mechanism-overhead claims behind Figs. 2/15. *)

module Metrics = Repro_runtime.Metrics

let dummy_summary ~p999 =
  {
    Metrics.offered_rps = 0.0;
    completed = 0;
    measured = 0;
    censored = 0;
    measured_censored = 0;
    goodput_rps = 0.0;
    mean_slowdown = 1.0;
    p50_slowdown = 1.0;
    p99_slowdown = 1.0;
    p999_slowdown = p999;
    mean_sojourn_ns = 0.0;
    p999_sojourn_ns = 0.0;
    preemptions = 0;
    steal_slices = 0;
    dispatcher_busy_frac = 0.0;
    dispatcher_app_frac = 0.0;
    worker_busy_frac = 0.0;
    median_idle_gap_ns = 0.0;
    negative_idle_gaps = 0;
    per_class = [||];
  }

let sweep_of points =
  {
    Concord.Sweep.system = "test";
    workload = "test";
    points =
      List.map
        (fun (rate_rps, p999) ->
          { Concord.Sweep.rate_rps; summary = { (dummy_summary ~p999) with Metrics.offered_rps = rate_rps } })
        points;
  }

(* --- SLO analysis ----------------------------------------------------- *)

let test_slo_interpolation () =
  let sweep = sweep_of [ (100.0, 10.0); (200.0, 30.0); (300.0, 70.0) ] in
  match Concord.Slo.max_load_under_slo sweep with
  | Some rate ->
    (* Crossing between 200 (p999=30) and 300 (p999=70): 50 is halfway. *)
    Alcotest.(check (float 1.0)) "interpolated crossing" 250.0 rate
  | None -> Alcotest.fail "expected a crossing"

let test_slo_never_crossed () =
  let sweep = sweep_of [ (100.0, 5.0); (200.0, 10.0) ] in
  Alcotest.(check (option (float 1e-6))) "highest load is a lower bound" (Some 200.0)
    (Concord.Slo.max_load_under_slo sweep)

let test_slo_violated_everywhere () =
  let sweep = sweep_of [ (100.0, 80.0); (200.0, 120.0) ] in
  Alcotest.(check (option (float 1e-6))) "no sustainable load" None
    (Concord.Slo.max_load_under_slo sweep)

let test_slo_custom_threshold () =
  let sweep = sweep_of [ (100.0, 10.0); (200.0, 30.0) ] in
  match Concord.Slo.max_load_under_slo ~slo:20.0 sweep with
  | Some rate -> Alcotest.(check (float 1.0)) "custom slo" 150.0 rate
  | None -> Alcotest.fail "expected crossing"

let test_improvement () =
  let baseline = sweep_of [ (100.0, 10.0); (200.0, 100.0) ] in
  let candidate = sweep_of [ (100.0, 5.0); (300.0, 100.0) ] in
  match Concord.Slo.improvement ~baseline ~candidate () with
  | Some frac -> Alcotest.(check bool) "candidate better" true (frac > 0.0)
  | None -> Alcotest.fail "expected improvement"

(* --- sweep machinery ----------------------------------------------------- *)

let test_default_rates () =
  let mix = Concord.Presets.fixed_1us in
  let rates = Concord.Sweep.default_rates ~mix ~n_workers:4 ~points:4 ~max_util:0.8 () in
  Alcotest.(check int) "points" 4 (List.length rates);
  (* capacity = 4 / 1us = 4M; max = 0.8 * 4M *)
  Alcotest.(check (float 1.0)) "top rate" 3.2e6 (List.nth rates 3);
  Alcotest.(check (float 1.0)) "bottom rate" 0.8e6 (List.nth rates 0)

let test_sweep_runs_points () =
  let config = Concord.Systems.concord ~n_workers:2 () in
  let sweep =
    Concord.Sweep.run ~config ~mix:Concord.Presets.fixed_1us ~rates:[ 100e3; 200e3 ]
      ~n_requests:2_000 ()
  in
  Alcotest.(check int) "two points" 2 (List.length sweep.Concord.Sweep.points);
  List.iter
    (fun (p : Concord.Sweep.point) ->
      Alcotest.(check bool) "completed requests" true (p.summary.Metrics.completed > 0))
    sweep.Concord.Sweep.points

(* The frontier's dispersion axis refuses a mode size or a probability that
   describes no distribution, before any cell runs. *)
let test_dispersion_axis_refusals () =
  let axis ?(short_ns = 600.0) ?(long_ns = 500_000.0) p_shorts =
    Concord.Sweep.dispersion_axis ~short_ns ~long_ns ~p_shorts
  in
  let refused msg f =
    Alcotest.check_raises msg (Invalid_argument ("Sweep.dispersion_axis: " ^ msg)) (fun () ->
        ignore (f ()))
  in
  refused "short_ns -1000 is not a finite size > 0" (fun () -> axis ~short_ns:(-1000.0) [ 0.5 ]);
  refused "short_ns 0 is not a finite size > 0" (fun () -> axis ~short_ns:0.0 [ 0.5 ]);
  refused "short_ns nan is not a finite size > 0" (fun () -> axis ~short_ns:Float.nan [ 0.5 ]);
  refused "long_ns inf is not a finite size > 0" (fun () -> axis ~long_ns:Float.infinity [ 0.5 ]);
  refused "p_short -0.5 is outside [0, 1]" (fun () -> axis [ 0.9; -0.5 ]);
  refused "p_short 1.5 is outside [0, 1]" (fun () -> axis [ 1.5 ]);
  refused "p_short nan is outside [0, 1]" (fun () -> axis [ Float.nan ]);
  Alcotest.(check int) "both ends of [0, 1] accepted" 2 (List.length (axis [ 0.0; 1.0 ]))

(* --- facade ---------------------------------------------------------------- *)

let test_configure () =
  (match Concord.configure ~system:"concord" ~quantum_us:2.0 () with
  | Ok c -> Alcotest.(check int) "quantum" 2_000 c.Concord.Config.quantum_ns
  | Error e -> Alcotest.fail e);
  match Concord.configure ~system:"bogus" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus system accepted"

let test_workload_lookup () =
  (match Concord.workload "usr" with
  | Ok mix -> Alcotest.(check bool) "usr mean ~3us" true
      (Float.abs (Concord.Mix.mean_service_ns mix -. 2_997.5) < 1.0)
  | Error e -> Alcotest.fail e);
  match Concord.workload "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus workload accepted"

(* --- figure rendering -------------------------------------------------------- *)

let test_figure_render () =
  let fig =
    {
      Concord.Figure.id = "t1";
      title = "test";
      xlabel = "x";
      ylabel = "y";
      series =
        [
          { Concord.Figure.label = "a"; points = [ (1.0, 10.0); (2.0, 20.0) ] };
          { Concord.Figure.label = "b"; points = [ (1.0, 30.0) ] };
        ];
      notes = [ "hello" ];
    }
  in
  let text = Concord.Figure.render fig in
  List.iter
    (fun needle ->
      if not (Astring_contains.contains text needle) then
        Alcotest.failf "render missing %S in:\n%s" needle text)
    [ "[t1] test"; "a"; "b"; "10"; "30"; "-"; "note: hello" ]

(* --- fig2/fig15 analytics ------------------------------------------------------ *)

let series_value fig ~label ~x =
  let s = List.find (fun s -> s.Concord.Figure.label = label) fig.Concord.Figure.series in
  List.assoc x s.Concord.Figure.points

let test_fig2_paper_claims () =
  let fig = Concord.Figures.fig2 () in
  (* 2.2.1: IPIs ~12% overhead at 5us and ~6% at 10us; rdtsc flat ~21%. *)
  Alcotest.(check (float 1.0)) "IPI @5us ~12%" 12.0
    (series_value fig ~label:"Posted IPIs (Shinjuku)" ~x:5.0);
  Alcotest.(check (float 1.0)) "IPI @10us ~6%" 6.0
    (series_value fig ~label:"Posted IPIs (Shinjuku)" ~x:10.0);
  Alcotest.(check (float 0.5)) "rdtsc flat 21%" 21.0
    (series_value fig ~label:"rdtsc() instrumentation" ~x:50.0);
  (* Concord ~1-1.5% at 5us+, crossing IPIs between 10 and 50us. *)
  let concord q = series_value fig ~label:"Concord instrumentation" ~x:q in
  Alcotest.(check bool) "concord small @5us" true (concord 5.0 < 3.0);
  Alcotest.(check bool) "IPI wins at 50us" true
    (series_value fig ~label:"Posted IPIs (Shinjuku)" ~x:50.0 < concord 50.0 +. 0.5)

let test_fig15_uipi_ratio () =
  let fig = Concord.Figures.fig15 () in
  let uipi = series_value fig ~label:"User-space IPIs" ~x:5.0 in
  let concord = series_value fig ~label:"Concord cooperation" ~x:5.0 in
  (* 5.6: compiler-enforced cooperation ~2x lower overhead than UIPIs. *)
  let ratio = uipi /. concord in
  Alcotest.(check bool) "UIPI ~2x concord at 5us" true (ratio > 1.5 && ratio < 3.5)

let test_figures_registry () =
  Alcotest.(check int) "25 experiments" 25 (List.length Concord.Figures.all);
  Alcotest.(check bool) "lookup" true (Concord.Figures.by_id "fig9b" <> None);
  Alcotest.(check bool) "unknown" true (Concord.Figures.by_id "fig99" = None)

let suite =
  [
    Alcotest.test_case "SLO crossing interpolation" `Quick test_slo_interpolation;
    Alcotest.test_case "SLO never crossed" `Quick test_slo_never_crossed;
    Alcotest.test_case "SLO violated everywhere" `Quick test_slo_violated_everywhere;
    Alcotest.test_case "custom SLO threshold" `Quick test_slo_custom_threshold;
    Alcotest.test_case "improvement" `Quick test_improvement;
    Alcotest.test_case "default rate grid" `Quick test_default_rates;
    Alcotest.test_case "sweep runs every point" `Quick test_sweep_runs_points;
    Alcotest.test_case "dispersion axis refuses bad sizes and probabilities" `Quick
      test_dispersion_axis_refusals;
    Alcotest.test_case "configure" `Quick test_configure;
    Alcotest.test_case "workload lookup" `Quick test_workload_lookup;
    Alcotest.test_case "figure rendering" `Quick test_figure_render;
    Alcotest.test_case "fig2 matches 2.2.1's arithmetic" `Quick test_fig2_paper_claims;
    Alcotest.test_case "fig15 UIPI ratio (5.6)" `Quick test_fig15_uipi_ratio;
    Alcotest.test_case "figures registry" `Quick test_figures_registry;
  ]
