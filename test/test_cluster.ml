(* Tests for the rack-scale cluster layer: policy parsing, routing
   behaviour under fresh and stale views, straggler handling, determinism,
   and the replication-vs-cluster-Random equivalence. *)

module Cluster = Repro_cluster.Cluster
module Lb_policy = Repro_cluster.Lb_policy
module Hedge = Repro_cluster.Hedge
module Systems = Repro_runtime.Systems
module Metrics = Repro_runtime.Metrics
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival

let fixed_mix ns = Mix.of_dist ~name:"fixed" (Service_dist.Fixed (float_of_int ns))

(* 3 x 4 workers on Fixed(5us): rack capacity 2.4 MRps. *)
let small_config () = Systems.concord ~n_workers:4 ()

let run_rack ?(policy = Lb_policy.Po2c) ?(rtt_cycles = 0) ?(stragglers = [])
    ?(hedge = Hedge.Off) ?(steal = false) ?(instances = 3) ?(rate = 1.8e6)
    ?(n = 12_000) ?(seed = 42) ?drain_cap_ns ?on_decision () =
  let cluster =
    Cluster.homogeneous ~policy ~rtt_cycles ~hedge ~steal ~stragglers ~instances
      (small_config ())
  in
  Cluster.run ~cluster ~mix:(fixed_mix 5_000)
    ~arrival:(Arrival.Poisson { rate_rps = rate })
    ~n_requests:n ~seed ?drain_cap_ns ?on_decision ()

(* --- policy parsing ---------------------------------------------------- *)

let test_policy_parsing () =
  let ok s p =
    match Lb_policy.of_string s with
    | Ok got -> Alcotest.(check string) s (Lb_policy.name p) (Lb_policy.name got)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "random" Lb_policy.Random;
  ok "rr" Lb_policy.Round_robin;
  ok "round-robin" Lb_policy.Round_robin;
  ok "JSQ" Lb_policy.Jsq;
  ok "po2c" Lb_policy.Po2c;
  ok "po2" Lb_policy.Po2c;
  ok "jbsq:4" (Lb_policy.Jbsq 4);
  let rejected s = match Lb_policy.of_string s with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "garbage rejected" true (rejected "shortest");
  Alcotest.(check bool) "jbsq:0 rejected" true (rejected "jbsq:0");
  Alcotest.(check bool) "jbsq:x rejected" true (rejected "jbsq:x")

(* --- JSQ with fresh state ---------------------------------------------- *)

let test_jsq_fresh_never_longer () =
  (* At rtt = 0 the balancer's send/credit views must equal the true
     instantaneous queue lengths, and JSQ must never route to a strictly
     longer queue than the minimum. *)
  let decisions = ref 0 in
  let s =
    run_rack ~policy:Lb_policy.Jsq
      ~on_decision:(fun ~views ~lengths ~chosen ->
        incr decisions;
        Array.iteri
          (fun i v ->
            if v <> lengths.(i) then
              Alcotest.failf "decision %d: view %d=%d but true length %d" !decisions i v
                lengths.(i))
          views;
        Array.iter
          (fun l ->
            if lengths.(chosen) > l then
              Alcotest.failf "decision %d: JSQ chose queue %d over one of %d" !decisions
                lengths.(chosen) l)
          lengths)
      ()
  in
  Alcotest.(check int) "every request audited" s.Cluster.requests !decisions;
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Cluster.check_invariants s)

let test_stale_views_diverge () =
  (* With a large RTT the views must actually go stale: at least one
     decision sees view <> true length. *)
  let diverged = ref false in
  let (_ : Cluster.summary) =
    run_rack ~policy:Lb_policy.Jsq ~rtt_cycles:50_000
      ~on_decision:(fun ~views ~lengths ~chosen:_ ->
        if Array.exists2 (fun v l -> v <> l) views lengths then diverged := true)
      ()
  in
  Alcotest.(check bool) "stale views observed" true !diverged

(* --- policy quality ---------------------------------------------------- *)

let test_po2c_within_factor_of_jsq () =
  let jsq = run_rack ~policy:Lb_policy.Jsq () in
  let po2c = run_rack ~policy:Lb_policy.Po2c () in
  let j = jsq.Cluster.cluster.Metrics.p99_slowdown in
  let p = po2c.Cluster.cluster.Metrics.p99_slowdown in
  Alcotest.(check bool) "sane" true (j >= 1.0 && p >= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "po2c p99 %.2f within 3x of jsq %.2f" p j)
    true
    (p <= 3.0 *. j)

let test_oblivious_policies_degrade_with_straggler () =
  (* A 3x straggler hurts policies that cannot see queue state; JSQ routes
     around it. *)
  let straggler = [ (0, 3.0) ] in
  let p99 (s : Cluster.summary) = s.Cluster.cluster.Metrics.p99_slowdown in
  let rate = 1.5e6 in
  let random_hom = run_rack ~policy:Lb_policy.Random ~rate () in
  let random_str = run_rack ~policy:Lb_policy.Random ~stragglers:straggler ~rate () in
  let rr_str = run_rack ~policy:Lb_policy.Round_robin ~stragglers:straggler ~rate () in
  let jsq_str = run_rack ~policy:Lb_policy.Jsq ~stragglers:straggler ~rate () in
  Alcotest.(check bool)
    (Printf.sprintf "random degrades: %.2f -> %.2f" (p99 random_hom) (p99 random_str))
    true
    (p99 random_str > 1.5 *. p99 random_hom);
  Alcotest.(check bool)
    (Printf.sprintf "rr degrades too: %.2f" (p99 rr_str))
    true
    (p99 rr_str > 1.5 *. p99 random_hom);
  Alcotest.(check bool)
    (Printf.sprintf "jsq routes around it: %.2f < %.2f" (p99 jsq_str) (p99 random_str))
    true
    (p99 jsq_str < p99 random_str);
  (* JSQ must send the straggler strictly fewer requests than the healthy
     servers. *)
  Alcotest.(check bool) "straggler starved" true
    (jsq_str.Cluster.routed.(0) < jsq_str.Cluster.routed.(1)
    && jsq_str.Cluster.routed.(0) < jsq_str.Cluster.routed.(2))

let test_rack_jbsq_parks_at_bound () =
  let bound = 2 in
  let s =
    run_rack ~policy:(Lb_policy.Jbsq bound) ~rate:2.2e6
      ~on_decision:(fun ~views ~lengths:_ ~chosen ->
        if views.(chosen) >= bound then
          Alcotest.failf "JBSQ placed onto a full server (view %d >= %d)" views.(chosen)
            bound)
      ()
  in
  Alcotest.(check bool) "balancer actually parked arrivals" true (s.Cluster.lb_held > 0);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Cluster.check_invariants s)

(* --- tie-break uniformity ----------------------------------------------- *)

let test_po2c_tie_uniform () =
  (* With every view equal, Po2c's two samples always tie. Keeping the
     first (uniform) sample must spread choices evenly; the old [min a b]
     resolution gave server 0 a ~44% share of a 4-server rack. *)
  let n_servers = 4 in
  let draws = 4_000 in
  let views = Array.make n_servers 0 in
  let state = Lb_policy.make_state ~rng:(Repro_engine.Rng.create ~seed:3) in
  let counts = Array.make n_servers 0 in
  for _ = 1 to draws do
    match Lb_policy.choose Lb_policy.Po2c state ~views with
    | Some i -> counts.(i) <- counts.(i) + 1
    | None -> Alcotest.fail "po2c refused to place"
  done;
  (* Expected share 1000 each; 800 is > 6 sigma below uniform. *)
  Array.iteri
    (fun i c ->
      if c < 800 then
        Alcotest.failf "server %d drew %d of %d tied choices (expected ~%d)" i c draws
          (draws / n_servers))
    counts;
  (* End-to-end: at low load a homogeneous Po2c rack must not favour
     low-index servers. *)
  let s = run_rack ~rate:0.4e6 ~n:9_000 () in
  let lo = Array.fold_left min max_int s.Cluster.routed in
  let hi = Array.fold_left max 0 s.Cluster.routed in
  Alcotest.(check bool)
    (Printf.sprintf "routed spread [%d, %d] stays within 20%%" lo hi)
    true
    (float_of_int (hi - lo) <= 0.2 *. float_of_int hi)

(* --- rtt gating --------------------------------------------------------- *)

let test_rtt_one_cycle_still_fresh () =
  (* On the c6420 clock (2.6 GHz) one cycle rounds to zero nanoseconds, so
     both the request leg and the credit leg must collapse to the
     synchronous path: views equal true lengths at every decision. (An
     earlier version gated the two legs on different conditions — cycles on
     one side, rounded ns on the other — so rtt_cycles = 1 delivered
     requests synchronously but delayed credits through the event queue.) *)
  let config = Systems.concord ~n_workers:4 ~costs:Repro_hw.Costs.c6420 () in
  let cluster =
    Cluster.homogeneous ~policy:Lb_policy.Jsq ~rtt_cycles:1 ~instances:3 config
  in
  let s =
    Cluster.run ~cluster ~mix:(fixed_mix 5_000)
      ~arrival:(Arrival.Poisson { rate_rps = 1.8e6 })
      ~n_requests:12_000 ~seed:42
      ~on_decision:(fun ~views ~lengths ~chosen:_ ->
        Array.iteri
          (fun i v ->
            if v <> lengths.(i) then
              Alcotest.failf "rtt_cycles=1: view %d=%d but true length %d" i v lengths.(i))
          views)
      ()
  in
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Cluster.check_invariants s)

(* --- balancer-side censoring -------------------------------------------- *)

let test_jbsq_saturated_censoring () =
  (* Saturate a JBSQ(2) rack: the balancer must park arrivals, and the ones
     still parked (or on the wire) at end of run are censored balancer-side
     without ever entering an instance. Every arrival must be accounted
     for: routed legs plus never-routed parkers cover the offered load.
     [drain_cap_ns:0] cuts the run at the last arrival so the standing
     backlog is actually censored rather than drained. *)
  let s = run_rack ~policy:(Lb_policy.Jbsq 2) ~rate:3.2e6 ~n:12_000 ~drain_cap_ns:0 () in
  let routed_sum = Array.fold_left ( + ) 0 s.Cluster.routed in
  Alcotest.(check int) "routed + unrouted = arrivals" s.Cluster.requests
    (routed_sum + s.Cluster.lb_unrouted);
  Alcotest.(check bool) "balancer parked arrivals" true (s.Cluster.lb_held > 0);
  Alcotest.(check bool) "balancer-side censoring observed" true (s.Cluster.lb_censored > 0);
  Alcotest.(check (result unit string)) "invariants" (Ok ()) (Cluster.check_invariants s)

(* --- hedging ------------------------------------------------------------ *)

let test_hedge_parsing () =
  let ok s h =
    match Hedge.of_string s with
    | Ok got -> Alcotest.(check string) s (Hedge.name h) (Hedge.name got)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "off" Hedge.Off;
  ok "none" Hedge.Off;
  ok "fixed:20000" (Hedge.Fixed { delay_ns = 20_000 });
  ok "pct:99" (Hedge.Percentile { pct = 99.0 });
  ok "pct:99.9" (Hedge.Percentile { pct = 99.9 });
  ok "adaptive:0.05" (Hedge.Adaptive { budget = 0.05 });
  let rejected s = match Hedge.of_string s with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "fixed:-1 rejected" true (rejected "fixed:-1");
  Alcotest.(check bool) "pct:0 rejected" true (rejected "pct:0");
  Alcotest.(check bool) "pct:100 rejected" true (rejected "pct:100");
  Alcotest.(check bool) "adaptive:0 rejected" true (rejected "adaptive:0");
  Alcotest.(check bool) "adaptive:1.5 rejected" true (rejected "adaptive:1.5");
  Alcotest.(check bool) "garbage rejected" true (rejected "always");
  (* malformed arguments, not just out-of-range ones *)
  Alcotest.(check bool) "pct:abc rejected" true (rejected "pct:abc");
  Alcotest.(check bool) "pct: (empty) rejected" true (rejected "pct:");
  Alcotest.(check bool) "bare pct rejected" true (rejected "pct");
  Alcotest.(check bool) "pct:nan rejected" true (rejected "pct:nan");
  Alcotest.(check bool) "adaptive:xyz rejected" true (rejected "adaptive:xyz");
  Alcotest.(check bool) "adaptive: (empty) rejected" true (rejected "adaptive:");
  Alcotest.(check bool) "adaptive:nan rejected" true (rejected "adaptive:nan");
  Alcotest.(check bool) "fixed:abc rejected" true (rejected "fixed:abc");
  Alcotest.(check bool) "fixed:1.5 rejected (whole ns only)" true (rejected "fixed:1.5");
  Alcotest.(check bool) "fixed: (empty) rejected" true (rejected "fixed:")

(* Spec values no parser would produce must not reach a run either: each
   tier's constructor applies the parser's range check and names the bad
   value. *)
let test_bad_specs_rejected_at_construction () =
  let config = small_config () in
  let rejects what make =
    match make () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%S names %s" msg what) true
        (Astring_contains.contains msg what)
  in
  List.iter
    (fun hedge ->
      let what = Hedge.name hedge in
      Alcotest.(check bool) (what ^ " unparsable") true (Result.is_error (Hedge.of_string what));
      rejects what (fun () -> ignore (Cluster.homogeneous ~hedge ~instances:3 config));
      rejects what (fun () -> ignore (Repro_raft.Raft.homogeneous ~hedge ~nodes:3 config)))
    [
      Hedge.Percentile { pct = 0.0 };
      Hedge.Percentile { pct = Float.nan };
      Hedge.Percentile { pct = 150.0 };
      Hedge.Adaptive { budget = 0.0 };
      Hedge.Adaptive { budget = Float.nan };
      Hedge.Adaptive { budget = 5.0 };
      Hedge.Fixed { delay_ns = -5 };
    ];
  let jbsq0 = Lb_policy.Jbsq 0 in
  let what = Lb_policy.name jbsq0 in
  Alcotest.(check bool) (what ^ " unparsable") true (Result.is_error (Lb_policy.of_string what));
  rejects what (fun () -> ignore (Cluster.homogeneous ~policy:jbsq0 ~instances:3 config));
  rejects what (fun () -> ignore (Repro_raft.Raft.homogeneous ~read_lb:jbsq0 ~nodes:3 config));
  (* A straggler is slower, never faster, on both tiers, and finitely so. *)
  List.iter
    (fun f ->
      let stragglers = [ (0, f) ] in
      let what = "straggler factor" in
      rejects what (fun () -> ignore (Cluster.homogeneous ~stragglers ~instances:3 config));
      rejects what (fun () -> ignore (Repro_raft.Raft.homogeneous ~stragglers ~nodes:3 config)))
    [ 0.5; Float.infinity ];
  rejects "speed_factor" (fun () -> ignore (Cluster.spec ~speed_factor:Float.nan config));
  (* A finite factor whose scaled op costs overflow an int of ns fails when
     the instances price them, before the run handles any event. *)
  let decisions = ref 0 in
  match
    run_rack ~stragglers:[ (0, 1e18) ] ~n:100
      ~on_decision:(fun ~views:_ ~lengths:_ ~chosen:_ -> incr decisions)
      ()
  with
  | _ -> Alcotest.fail "a 1e18 straggler ran"
  | exception Invalid_argument _ -> Alcotest.(check int) "no event handled" 0 !decisions

let test_hedging_rescues_straggler_tail () =
  (* An oblivious balancer keeps feeding a 6x straggler; duplicate-and-
     cancel must rescue those requests onto healthy servers and cut the
     rack p99, with the accounting invariants intact. *)
  let stragglers = [ (0, 6.0) ] in
  let rate = 0.9e6 in
  let p99 (s : Cluster.summary) = s.Cluster.cluster.Metrics.p99_slowdown in
  let unhedged = run_rack ~policy:Lb_policy.Random ~stragglers ~rate () in
  let hedged =
    run_rack ~policy:Lb_policy.Random ~stragglers ~rate
      ~hedge:(Hedge.Fixed { delay_ns = 30_000 })
      ()
  in
  Alcotest.(check bool) "duplicates issued" true (hedged.Cluster.hedges > 0);
  Alcotest.(check bool) "duplicates won" true (hedged.Cluster.hedge_wins > 0);
  Alcotest.(check bool) "losing legs cancelled" true (hedged.Cluster.hedge_cancels > 0);
  Alcotest.(check bool) "wasted work measured" true (hedged.Cluster.hedge_wasted_ns > 0);
  Alcotest.(check bool)
    (Printf.sprintf "hedged p99 %.2f below unhedged %.2f" (p99 hedged) (p99 unhedged))
    true
    (p99 hedged < p99 unhedged);
  Alcotest.(check (result unit string)) "invariants (hedged)" (Ok ())
    (Cluster.check_invariants hedged);
  Alcotest.(check int) "no duplicates when off" 0 unhedged.Cluster.hedges

let test_hedged_breakdown_components_sum () =
  (* The latency-breakdown reconstruction must still tile every completed
     request's sojourn exactly when duplicate legs and cancellations are in
     the trace: the surviving leg's lifecycle is the request's lifecycle. *)
  let tracer = Repro_runtime.Tracing.create () in
  let cluster =
    Cluster.homogeneous ~policy:Lb_policy.Random ~stragglers:[ (0, 6.0) ]
      ~hedge:(Hedge.Fixed { delay_ns = 30_000 })
      ~instances:3 (small_config ())
  in
  let summary, _ =
    Cluster.run_detailed ~cluster ~mix:(fixed_mix 5_000)
      ~arrival:(Arrival.Poisson { rate_rps = 0.9e6 })
      ~n_requests:6_000 ~seed:42 ~tracer ()
  in
  Alcotest.(check bool) "duplicates issued" true (summary.Cluster.hedges > 0);
  let breakdowns = Repro_runtime.Breakdown.of_trace tracer in
  Alcotest.(check bool) "reconstructed a population" true (List.length breakdowns > 1_000);
  List.iter
    (fun b ->
      match Repro_runtime.Breakdown.check b with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "request %d breakdown: %s" b.Repro_runtime.Breakdown.request e)
    breakdowns

let test_stealing_migrates_work () =
  (* With an oblivious balancer and a straggler, healthy servers drain and
     must pull queued work from the straggler's backlog. *)
  let stragglers = [ (0, 6.0) ] in
  let rate = 0.9e6 in
  let p99 (s : Cluster.summary) = s.Cluster.cluster.Metrics.p99_slowdown in
  let base = run_rack ~policy:Lb_policy.Random ~stragglers ~rate () in
  let stealing = run_rack ~policy:Lb_policy.Random ~stragglers ~rate ~steal:true () in
  Alcotest.(check bool) "steals happened" true (stealing.Cluster.steals > 0);
  Alcotest.(check bool)
    (Printf.sprintf "stealing p99 %.2f below baseline %.2f" (p99 stealing) (p99 base))
    true
    (p99 stealing < p99 base);
  Alcotest.(check (result unit string)) "invariants (stealing)" (Ok ())
    (Cluster.check_invariants stealing);
  Alcotest.(check int) "no steals when off" 0 base.Cluster.steals

(* --- determinism -------------------------------------------------------- *)

let test_same_seed_same_summary () =
  let a = run_rack ~policy:Lb_policy.Po2c ~seed:7 () in
  let b = run_rack ~policy:Lb_policy.Po2c ~seed:7 () in
  Alcotest.(check bool) "cluster summaries bit-identical" true
    (a.Cluster.cluster = b.Cluster.cluster);
  Alcotest.(check (array int)) "same routing" a.Cluster.routed b.Cluster.routed;
  let c = run_rack ~policy:Lb_policy.Po2c ~seed:8 () in
  Alcotest.(check bool) "different seed differs" true (a.Cluster.routed <> c.Cluster.routed)

let test_sweep_cluster_bit_identical_across_domains () =
  let cluster =
    Cluster.homogeneous ~policy:Lb_policy.Po2c ~instances:3 (small_config ())
  in
  let mix = fixed_mix 5_000 in
  let sweep domains =
    Concord.Sweep.of_runner ~domains ~mix ~rates:[ 0.6e6; 1.2e6; 1.8e6 ]
      (fun arrival -> (Cluster.run ~cluster ~mix ~arrival ~n_requests:6_000 ()).Cluster.cluster)
  in
  let series t = Concord.Sweep.p999_series t in
  Alcotest.(check bool) "domains 1 vs 4 identical" true (series (sweep 1) = series (sweep 4))

(* --- replication equivalence ------------------------------------------- *)

(* The oracle: each replica simulated in isolation on its own thinned
   Poisson stream (rate/K, n/K arrivals, seed + 1,000,003 i), sample sets
   merged. Returns (p50, p99, summed goodput, total workers). *)
let independent_replicas ~instances ~config ~mix ~rate_rps ~n_requests ~seed =
  let runs =
    List.init instances (fun i ->
        Repro_runtime.Server.run_detailed ~config ~mix
          ~arrival:(Arrival.Poisson { rate_rps = rate_rps /. float_of_int instances })
          ~n_requests:(max 1 (n_requests / instances))
          ~seed:(seed + (1_000_003 * i)) ())
  in
  let merged = Repro_engine.Stats.merge_all (List.map snd runs) in
  ( Repro_engine.Stats.percentile merged 50.0,
    Repro_engine.Stats.percentile merged 99.0,
    List.fold_left (fun acc (s, _) -> acc +. s.Metrics.goodput_rps) 0.0 runs,
    instances * config.Repro_runtime.Config.n_workers )

let test_replication_equivalence () =
  (* Independent replicas on thinned Poisson streams and the shared-clock
     cluster under Random are the same queueing system; their slowdown
     distributions must agree up to sampling noise. *)
  let config = small_config () in
  let mix = fixed_mix 5_000 in
  let rate_rps, n_requests = (1.4e6, 24_000) in
  let shared =
    Cluster.run
      ~cluster:(Cluster.homogeneous ~policy:Lb_policy.Random ~instances:3 config)
      ~mix ~arrival:(Arrival.Poisson { rate_rps }) ~n_requests ()
  in
  let p50, p99, goodput, workers =
    independent_replicas ~instances:3 ~config ~mix ~rate_rps ~n_requests ~seed:42
  in
  let close name tol a b =
    let rel = Float.abs (a -. b) /. Float.max a b in
    if rel > tol then Alcotest.failf "%s: cluster %.3f vs independent %.3f (rel %.3f)" name a b rel
  in
  close "p50" 0.10 shared.Cluster.cluster.Metrics.p50_slowdown p50;
  close "p99" 0.25 shared.Cluster.cluster.Metrics.p99_slowdown p99;
  close "goodput" 0.10 shared.Cluster.cluster.Metrics.goodput_rps goodput;
  Alcotest.(check int) "same worker count" shared.Cluster.total_workers workers

let suite =
  [
    Alcotest.test_case "policy parsing" `Quick test_policy_parsing;
    Alcotest.test_case "JSQ fresh state never joins longer queue" `Quick
      test_jsq_fresh_never_longer;
    Alcotest.test_case "views go stale under RTT" `Quick test_stale_views_diverge;
    Alcotest.test_case "po2c within bounded factor of JSQ" `Quick test_po2c_within_factor_of_jsq;
    Alcotest.test_case "oblivious policies degrade with straggler" `Quick
      test_oblivious_policies_degrade_with_straggler;
    Alcotest.test_case "rack JBSQ parks at the bound" `Quick test_rack_jbsq_parks_at_bound;
    Alcotest.test_case "po2c resolves ties uniformly" `Quick test_po2c_tie_uniform;
    Alcotest.test_case "rtt of one cycle keeps views fresh" `Quick
      test_rtt_one_cycle_still_fresh;
    Alcotest.test_case "saturated JBSQ censors balancer-side" `Quick
      test_jbsq_saturated_censoring;
    Alcotest.test_case "hedge spec parsing" `Quick test_hedge_parsing;
    Alcotest.test_case "bad hedge and policy specs rejected at construction" `Quick
      test_bad_specs_rejected_at_construction;
    Alcotest.test_case "hedging rescues a straggler tail" `Quick
      test_hedging_rescues_straggler_tail;
    Alcotest.test_case "hedged breakdown components sum" `Quick
      test_hedged_breakdown_components_sum;
    Alcotest.test_case "stealing migrates work off a straggler" `Quick
      test_stealing_migrates_work;
    Alcotest.test_case "same seed, same summary" `Quick test_same_seed_same_summary;
    Alcotest.test_case "cluster sweep bit-identical across domains" `Quick
      test_sweep_cluster_bit_identical_across_domains;
    Alcotest.test_case "replication equals cluster under Random" `Quick
      test_replication_equivalence;
  ]
