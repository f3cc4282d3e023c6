(* Scaling past the single dispatcher (6): three ways to serve very short
   requests beyond the ~3.5 MRps a single Concord dispatcher can admit —
   ingress batching, multi-dispatcher replication, and the
   single-logical-queue (work-stealing) design.

   Run with:  dune exec examples/scaling.exe *)

module Arrival = Repro_workload.Arrival

let mix = Concord.Mix.of_dist ~name:"Fixed(1)" (Concord.Service_dist.Fixed 1_000.0)

let () =
  let rates = [ 2.0e6; 3.0e6; 4.0e6; 5.0e6; 6.0e6 ] in
  Printf.printf "%12s  %-14s %-14s %-14s %-14s\n" "load(MRps)" "concord" "batch-16"
    "2x7 replicas" "concord-sls";
  List.iter
    (fun rate ->
      let p999 config =
        (Repro_runtime.Server.run ~config ~mix
           ~arrival:(Arrival.Poisson { rate_rps = rate })
           ~n_requests:40_000 ())
          .Concord.Metrics.p999_slowdown
      in
      let plain = p999 (Concord.Systems.concord ()) in
      let batched = p999 (Concord.Systems.concord_batched ~batch:16 ()) in
      let replicated =
        (Repro_cluster.Cluster.run
           ~cluster:
             (Repro_cluster.Cluster.homogeneous ~policy:Repro_cluster.Lb_policy.Random
                ~instances:2
                (Concord.Systems.concord ~n_workers:7 ()))
           ~mix
           ~arrival:(Arrival.Poisson { rate_rps = rate })
           ~n_requests:40_000 ())
          .Repro_cluster.Cluster.cluster.Concord.Metrics.p999_slowdown
      in
      let sls =
        (Repro_runtime.Sls_server.run
           ~config:(Repro_runtime.Sls_server.concord_sls ())
           ~mix
           ~arrival:(Arrival.Poisson { rate_rps = rate })
           ~n_requests:40_000 ())
          .Concord.Metrics.p999_slowdown
      in
      Printf.printf "%12.1f  %-14.2f %-14.2f %-14.2f %-14.2f\n%!" (rate /. 1e6) plain batched
        replicated sls)
    rates;
  print_endline "\np99.9 slowdown at each offered load; 50x is the SLO."
