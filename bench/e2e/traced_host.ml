(* A standalone server hosted by the benchmark, with a clock read at every
   boundary between layers. This is the run loop of [Server.run_detailed]
   rewritten against the public [Server.Instance] interface, with the same
   defaults and the same random-stream splits, so its summary and event
   count must equal the entry point's; the benchmark checks that they do.

   Every clock read closes one interval and opens the next, and each
   interval is charged to exactly one bucket, so the buckets tile the
   [Sim.run] call. A read costs [clock_ns] and each interval carries about
   one read, which [corrected] takes back out. *)

module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Request = Repro_runtime.Request
module Instance = Repro_runtime.Server.Instance
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival

let now_ns = Workloads.now_ns

type bucket = { mutable ns : int; mutable intervals : int }

type t = {
  gen : bucket;  (* Mix.sample, Request.create, Arrival.next_gap_ns *)
  inject : bucket;  (* Instance.inject *)
  handle : bucket;  (* Instance.handle and the end-of-run censor_all *)
  engine : bucket;  (* everything else inside Sim.run: heap pops and pushes, dispatch *)
  mutable handles : int;  (* Instance.handle calls *)
  mutable sim_run_ns : int;
  mutable create_ns : int;  (* Sim.create and Instance.create *)
  mutable summarize_ns : int;
  mutable events : int;
}

(* Cost of one clock read, from a long run of back-to-back reads. *)
let clock_ns =
  lazy
    (let n = 1_000_000 in
     let t0 = now_ns () in
     for _ = 1 to n do
       ignore (now_ns () : int)
     done;
     float_of_int (now_ns () - t0) /. float_of_int n)

let corrected b = float_of_int b.ns -. (float_of_int b.intervals *. Lazy.force clock_ns)

let charge b t0 t1 =
  b.ns <- b.ns + (t1 - t0);
  b.intervals <- b.intervals + 1

type ev = Ev_arrival | Ev_end | Ev_inst of Repro_runtime.Server.event

(* [Server.run_detailed]'s defaults. *)
let warmup_frac = 0.1
let drain_cap_ns = 400_000_000

let run ~(config : Config.t) ~(mix : Mix.t) ~arrival ~n_requests ~seed =
  let bucket () = { ns = 0; intervals = 0 } in
  let tr =
    {
      gen = bucket ();
      inject = bucket ();
      handle = bucket ();
      engine = bucket ();
      handles = 0;
      sim_run_ns = 0;
      create_ns = 0;
      summarize_ns = 0;
      events = 0;
    }
  in
  let t_create = now_ns () in
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let mech_rng = Rng.split master in
  let sim = Sim.create ~capacity:((4 * config.n_workers) + 16) () in
  let finished = ref 0 in
  let inst =
    Instance.create ~sim
      ~lift:(fun e -> Ev_inst e)
      ~config
      ~warmup_before:(int_of_float (warmup_frac *. float_of_int n_requests))
      ~n_classes:(Array.length mix.classes) ~rng:mech_rng
      ~on_complete:(fun _ ->
        incr finished;
        if !finished >= n_requests then Sim.stop sim)
      ()
  in
  let arrived = ref 0 in
  let mark = ref 0 in
  let handler _ = function
    | Ev_inst e ->
      let t0 = now_ns () in
      Instance.handle inst e;
      let t1 = now_ns () in
      charge tr.engine !mark t0;
      charge tr.handle t0 t1;
      tr.handles <- tr.handles + 1;
      mark := t1
    | Ev_arrival ->
      let t0 = now_ns () in
      let profile = Mix.sample mix service_rng in
      let req = Request.create ~id:!arrived ~arrival_ns:(Sim.now sim) ~profile in
      incr arrived;
      let gap =
        if !arrived < n_requests then
          Arrival.next_gap_ns arrival arrival_rng ~index:(!arrived - 1)
        else -1
      in
      let t1 = now_ns () in
      if gap >= 0 then Sim.schedule_after sim ~delay:gap Ev_arrival
      else Sim.schedule_after sim ~delay:drain_cap_ns Ev_end;
      let t2 = now_ns () in
      Instance.inject inst req;
      let t3 = now_ns () in
      charge tr.engine !mark t0;
      charge tr.gen t0 t1;
      charge tr.engine t1 t2;
      charge tr.inject t2 t3;
      mark := t3
    | Ev_end ->
      let t0 = now_ns () in
      Instance.censor_all inst ~now_ns:(Sim.now sim);
      Sim.stop sim;
      let t1 = now_ns () in
      charge tr.engine !mark t0;
      charge tr.handle t0 t1;
      mark := t1
  in
  Sim.schedule_at sim ~time:0 Ev_arrival;
  let t_run = now_ns () in
  tr.create_ns <- t_run - t_create;
  mark := t_run;
  Sim.run sim ~handler ();
  let t_end = now_ns () in
  charge tr.engine !mark t_end;
  tr.sim_run_ns <- t_end - t_run;
  tr.events <- Sim.events_processed sim;
  let summary =
    Metrics.summarize (Instance.metrics inst) ~offered_rps:(Arrival.rate_rps arrival)
      ~span_ns:(max 1 (Sim.now sim)) ~n_workers:config.n_workers
      ~class_names:(Array.map (fun (c : Mix.class_def) -> c.name) mix.classes)
  in
  tr.summarize_ns <- now_ns () - t_end;
  (tr, summary)
