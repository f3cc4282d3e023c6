(* Aggregated test runner for the whole reproduction. *)

let () =
  Alcotest.run "concord-repro"
    [
      ("engine.heap", Test_heap.suite);
      ("engine.rng", Test_rng.suite);
      ("engine.stats", Test_stats.suite);
      ("engine.histogram", Test_histogram.suite);
      ("engine.pool", Test_pool.suite);
      ("engine.prefetch", Test_prefetch.suite);
      ("engine.par-sim", Test_par_sim.suite);
      ("engine.sim", Test_sim.suite);
      ("engine.ring", Test_ring.suite);
      ("engine.queueing", Test_queueing.suite);
      ("hw", Test_hw.suite);
      ("workload", Test_workload.suite);
      ("workload.trace-io", Test_trace_io.suite);
      ("runtime.units", Test_runtime_units.suite);
      ("runtime.policy", Test_policy.suite);
      ("runtime.server", Test_server.suite);
      ("runtime.oracle", Test_oracle.suite);
      ("runtime.tracing", Test_tracing.suite);
      ("runtime.breakdown", Test_breakdown.suite);
      ("kvstore", Test_kvstore.suite);
      ("kvstore.wal", Test_wal.suite);
      ("instrument", Test_instrument.suite);
      ("instrument.gapbound", Test_gapbound.suite);
      ("extensions", Test_extensions.suite);
      ("cluster", Test_cluster.suite);
      ("raft", Test_raft.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("core.api", Test_core_api.suite);
      ("core.work", Test_work.suite);
      ("check", Test_check.suite);
      ("perf.golden", Test_golden.suite);
    ]
