(** Concord (SOSP 2023) reproduction — public facade.

    The paper's contribution is a scheduling runtime whose three mechanisms
    (compiler-enforced cooperation, JBSQ(k), work-conserving dispatcher)
    approximate single-queue + precise-preemption scheduling at a fraction
    of its overhead. This module is the front door to the reproduction:

    {ul
    {- {!configure} / {!Systems}: build a system configuration
       (Concord, Shinjuku, Persephone-FCFS, ablations);}
    {- {!workload}: name a workload (paper presets, custom distributions,
       or the LevelDB-backed mixes);}
    {- {!run}: simulate one load point end to end;}
    {- {!sweep} and {!max_load_under_slo}: the paper's "throughput under a
       p99.9 slowdown SLO" methodology;}
    {- {!Figures} / {!Table1}: regenerate every figure and table of §5.}}

    Sub-libraries remain directly addressable for finer control:
    [Repro_engine] (simulation core), [Repro_hw] (cost models),
    [Repro_workload], [Repro_runtime] (the server), [Repro_kvstore],
    [Repro_instrument] (the compiler pass). *)

module Config = Repro_runtime.Config
module Systems = Repro_runtime.Systems
module Policy = Repro_runtime.Policy
module Metrics = Repro_runtime.Metrics
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival
module Presets = Repro_workload.Presets
module Costs = Repro_hw.Costs
module Mechanism = Repro_hw.Mechanism
module Sweep = Sweep
module Slo = Slo
module Figure = Figure
module Work = Work
module Figures = Figures
module Table1 = Table1

val configure :
  ?system:string ->
  ?n_workers:int ->
  ?quantum_us:float ->
  unit ->
  (Config.t, string) result
(** Named configuration ("concord" by default; see
    {!Systems.all_names}). [quantum_us] defaults to 5. *)

val workload : string -> (Mix.t, string) result
(** Paper workloads by name: the {!Presets} names plus the LevelDB-backed
    ["leveldb"] (50/50 GET/SCAN) and ["leveldb-zippydb"]. The kvstore
    workloads accept a [":zipf=ALPHA"] suffix that skews key popularity
    Zipf-style (hot shards), e.g. ["leveldb:zipf=0.99"]. *)

val with_policy : Config.t -> spec:string -> mix:Mix.t -> (Config.t, string) result
(** Override the configuration's central-queue policy from a CLI spec
    (see {!Policy.spec_syntax}). Needs the workload because ["gittins"]
    fits its index table to the mix's empirical service distribution. *)

val run :
  config:Config.t ->
  mix:Mix.t ->
  rate_rps:float ->
  ?n_requests:int ->
  ?seed:int ->
  ?tracer:Repro_runtime.Tracing.t ->
  unit ->
  Metrics.summary
(** One load point: Poisson open-loop arrivals at [rate_rps]. When
    [tracer] is given, request-lifecycle events are recorded into it for
    export or breakdown analysis (see {!Repro_runtime.Tracing}). *)

val sweep :
  config:Config.t ->
  mix:Mix.t ->
  ?points:int ->
  ?n_requests:int ->
  ?seed:int ->
  unit ->
  Sweep.t
(** Load sweep ({!Sweep.run}) over [points] (default 10) evenly spaced
    loads up to 95 % of the ideal worker capacity ({!Sweep.default_rates}),
    sized from the workload's mean service time and the configuration's
    worker count. *)

val max_load_under_slo : ?slo:float -> Sweep.t -> float option
(** See {!Slo.max_load_under_slo}. *)
