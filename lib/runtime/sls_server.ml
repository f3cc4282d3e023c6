module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Costs = Repro_hw.Costs
module Mechanism = Repro_hw.Mechanism
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival

type config = {
  name : string;
  n_workers : int;
  quantum_ns : int;
  mechanism : Mechanism.t;
  steal : bool;
  scan_interval_ns : int;
  costs : Costs.t;
}

let make ~name ~mechanism ~steal ?(n_workers = 14) ?(quantum_ns = 5_000)
    ?(costs = Costs.default) () =
  { name; n_workers; quantum_ns; mechanism; steal; scan_interval_ns = 1_000; costs }

let concord_sls ?n_workers ?quantum_ns ?costs () =
  make ~name:"Concord-SLS" ~mechanism:Mechanism.Cache_line ~steal:true ?n_workers ?quantum_ns
    ?costs ()

let shenango_like ?n_workers ?quantum_ns ?costs () =
  make ~name:"Shenango-like" ~mechanism:Mechanism.No_preempt ~steal:true ?n_workers ?quantum_ns
    ?costs ()

let partitioned_fcfs ?n_workers ?quantum_ns ?costs () =
  make ~name:"d-FCFS" ~mechanism:Mechanism.No_preempt ~steal:false ?n_workers ?quantum_ns
    ?costs ()

(* ------------------------------------------------------------------ *)

type event =
  | Ev_arrival
  | Ev_begin of { w : int; epoch : int }
  | Ev_complete of { w : int; epoch : int }
  | Ev_quantum of { w : int; epoch : int }
  | Ev_preempt_stop of { w : int; epoch : int }
  | Ev_yield_done of { w : int; epoch : int }
  | Ev_end_of_run

type worker = {
  wid : int;
  mutable epoch : int;
  mutable cur : Request.t option;
  mutable seg_start_ns : int;
  mutable seg_start_progress : int;
  mutable completion_at : int;
  mutable stop_progress : int;
  queue : Request.t Queue.t; (* unbounded local run queue *)
}

type t = {
  sim : event Sim.t;
  config : config;
  mix : Mix.t;
  arrival : Arrival.t;
  n_requests : int;
  drain_cap_ns : int;
  arrival_rng : Rng.t;
  service_rng : Rng.t;
  mech_rng : Rng.t;
  workers : worker array;
  metrics : Metrics.t;
  live : (int, Request.t) Hashtbl.t;
  tracer : Tracing.t option;
  mutable arrived : int;
  mutable finished : int;
  mutable rr_next : int; (* round-robin steering cursor *)
  (* cached conversions *)
  cswitch_ns : int;
  steal_ns : int; (* cross-core steal: two coherence misses *)
  notif_ns : int;
  worker_mult : float;
  default_spacing_ns : float;
}

let trace t ~request kind =
  match t.tracer with
  | None -> ()
  | Some tracer -> Tracing.record tracer ~time_ns:(Sim.now t.sim) ~request kind

let complete_request t (req : Request.t) ~worker =
  trace t ~request:req.Request.id (Tracing.Completed { worker });
  req.Request.completion_ns <- Sim.now t.sim;
  req.Request.done_ns <- req.Request.service_ns;
  Hashtbl.remove t.live req.Request.id;
  Metrics.record_completion t.metrics req;
  t.finished <- t.finished + 1;
  if t.finished >= t.n_requests then Sim.stop t.sim

(* Pop the next request for worker [w]: own queue first, else steal one
   from the most loaded peer (cost charged as start delay). *)
let next_work t (w : worker) =
  match Queue.take_opt w.queue with
  | Some req -> Some (req, 0)
  | None ->
    if not t.config.steal then None
    else begin
      let victim = ref (-1) in
      let best = ref 0 in
      Array.iter
        (fun peer ->
          let len = Queue.length peer.queue in
          if peer.wid <> w.wid && len > !best then begin
            victim := peer.wid;
            best := len
          end)
        t.workers;
      if !victim < 0 then None
      else
        match Queue.take_opt t.workers.(!victim).queue with
        | Some req -> Some (req, t.steal_ns)
        | None -> None
    end

let begin_request t (w : worker) (req : Request.t) ~extra_delay =
  trace t ~request:req.Request.id (Tracing.Delivered { worker = w.wid });
  w.cur <- Some req;
  w.epoch <- w.epoch + 1;
  Sim.schedule_after t.sim ~delay:(extra_delay + t.cswitch_ns)
    (Ev_begin { w = w.wid; epoch = w.epoch })

let fetch_next t (w : worker) ~switch_paid =
  match next_work t w with
  | Some (req, delay) ->
    let extra = if switch_paid then delay - t.cswitch_ns else delay in
    begin_request t w req ~extra_delay:(max 0 extra)
  | None ->
    w.cur <- None;
    w.epoch <- w.epoch + 1

let on_begin t (w : worker) =
  match w.cur with
  | None -> ()
  | Some req ->
    let now = Sim.now t.sim in
    if req.Request.started then
      trace t ~request:req.Request.id
        (Tracing.Resumed { worker = w.wid; progress_ns = req.Request.done_ns })
    else trace t ~request:req.Request.id (Tracing.Started { worker = w.wid });
    req.Request.started <- true;
    req.Request.last_worker <- w.wid;
    w.seg_start_ns <- now;
    w.seg_start_progress <- req.Request.done_ns;
    w.completion_at <-
      now + int_of_float (ceil (float_of_int (Request.remaining_ns req) *. t.worker_mult));
    Sim.schedule_at t.sim ~time:w.completion_at (Ev_complete { w = w.wid; epoch = w.epoch });
    if Mechanism.preemptive t.config.mechanism then
      Sim.schedule_after t.sim ~delay:t.config.quantum_ns
        (Ev_quantum { w = w.wid; epoch = w.epoch })

let on_complete t (w : worker) ~epoch =
  if epoch = w.epoch then begin
    match w.cur with
    | None -> ()
    | Some req ->
      complete_request t req ~worker:w.wid;
      fetch_next t w ~switch_paid:false
  end

(* The scheduler hyperthread notices the elapsed quantum during its next
   per-core scan and writes the flag; the worker stops at its next probe,
   deferred past lock windows. *)
let on_quantum t (w : worker) ~epoch =
  if epoch = w.epoch then begin
    match w.cur with
    | None -> ()
    | Some req ->
      let now = Sim.now t.sim in
      if w.completion_at > now then begin
        let scan_delay =
          if t.config.scan_interval_ns <= 0 then 0
          else Rng.int t.mech_rng ~bound:(max 1 t.config.scan_interval_ns)
        in
        let lateness =
          Mechanism.yield_lateness_ns t.config.mechanism ~costs:t.config.costs ~rng:t.mech_rng
            ~probe_spacing_ns:(Request.probe_spacing req ~default:t.default_spacing_ns)
        in
        match
          Request.stop_point req ~seg_start_ns:w.seg_start_ns
            ~seg_start_progress:w.seg_start_progress ~mult:t.worker_mult
            ~completion_at:w.completion_at ~candidate:(now + scan_delay + lateness)
        with
        | None -> ()
        | Some (stop_time, progress) ->
          w.epoch <- w.epoch + 1;
          w.stop_progress <- progress;
          Sim.schedule_at t.sim ~time:stop_time (Ev_preempt_stop { w = w.wid; epoch = w.epoch })
      end
  end

let on_preempt_stop t (w : worker) ~epoch =
  if epoch = w.epoch then begin
    match w.cur with
    | None -> ()
    | Some req ->
      trace t ~request:req.Request.id
        (Tracing.Preempted { worker = w.wid; progress_ns = w.stop_progress });
      req.Request.done_ns <- w.stop_progress;
      req.Request.preemptions <- req.Request.preemptions + 1;
      Metrics.add_preemption t.metrics;
      Sim.schedule_after t.sim ~delay:(t.notif_ns + t.cswitch_ns)
        (Ev_yield_done { w = w.wid; epoch })
  end

let on_yield_done t (w : worker) ~epoch =
  if epoch = w.epoch then begin
    match w.cur with
    | None -> ()
    | Some req ->
      (* Preempted work goes to the tail of the local queue, where peers can
         steal it — the single *logical* queue. *)
      Queue.push req w.queue;
      trace t ~request:req.Request.id (Tracing.Requeued { queue_depth = Queue.length w.queue });
      fetch_next t w ~switch_paid:true
  end

(* Steer an arrival round-robin; if its target is busy but some other worker
   idles, the idle worker steals it immediately (work conservation). *)
let on_arrival t =
  let now = Sim.now t.sim in
  let profile = Mix.sample t.mix t.service_rng in
  let req = Request.create ~id:t.arrived ~arrival_ns:now ~profile in
  Hashtbl.replace t.live req.Request.id req;
  trace t ~request:req.Request.id (Tracing.Arrived { service_ns = req.Request.service_ns });
  t.arrived <- t.arrived + 1;
  let target = t.workers.(t.rr_next) in
  t.rr_next <- (t.rr_next + 1) mod t.config.n_workers;
  (if target.cur = None && Queue.is_empty target.queue then
     begin_request t target req ~extra_delay:0
   else begin
     Queue.push req target.queue;
     if t.config.steal then begin
       let idle =
         Array.fold_left
           (fun acc w -> if acc >= 0 then acc else if w.cur = None then w.wid else acc)
           (-1) t.workers
       in
       if idle >= 0 then begin
         let w = t.workers.(idle) in
         match next_work t w with
         | Some (r, delay) -> begin_request t w r ~extra_delay:delay
         | None -> ()
       end
     end
   end);
  if t.arrived < t.n_requests then begin
    let gap = Arrival.next_gap_ns t.arrival t.arrival_rng ~index:(t.arrived - 1) in
    Sim.schedule_after t.sim ~delay:gap Ev_arrival
  end
  else Sim.schedule_after t.sim ~delay:t.drain_cap_ns Ev_end_of_run

let handler t (_ : event Sim.t) = function
  | Ev_arrival -> on_arrival t
  | Ev_begin { w; epoch } -> if epoch = t.workers.(w).epoch then on_begin t t.workers.(w)
  | Ev_complete { w; epoch } -> on_complete t t.workers.(w) ~epoch
  | Ev_quantum { w; epoch } -> on_quantum t t.workers.(w) ~epoch
  | Ev_preempt_stop { w; epoch } -> on_preempt_stop t t.workers.(w) ~epoch
  | Ev_yield_done { w; epoch } -> on_yield_done t t.workers.(w) ~epoch
  | Ev_end_of_run ->
    let now = Sim.now t.sim in
    (Hashtbl.iter (fun _ req -> Metrics.record_censored t.metrics req ~now_ns:now) t.live)
    [@lint.deterministic
      "hash order is stable for a fixed insertion history (non-randomized Hashtbl); \
       censored-request accounting is pinned by the golden tests"];
    Sim.stop t.sim

let run ~config ~mix ~arrival ~n_requests ?(warmup_frac = 0.1) ?(drain_cap_ns = 400_000_000)
    ?(seed = 42) ?tracer () =
  if config.n_workers < 1 then invalid_arg "Sls_server.run: need at least one worker";
  if config.quantum_ns < 1 then invalid_arg "Sls_server.run: quantum must be positive";
  if n_requests < 1 then invalid_arg "Sls_server.run: need at least one request";
  Arrival.validate arrival;
  let master = Rng.create ~seed in
  (* Bind the derived streams in a fixed order (record-field evaluation
     order is unspecified); this also keeps the derivation identical to
     Server.run's, so oracle tests can reconstruct the arrival stream. *)
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let mech_rng = Rng.split master in
  let costs = config.costs in
  let ns cycles = Costs.ns_of costs cycles in
  let t =
    {
      sim = Sim.create ();
      config;
      mix;
      arrival;
      n_requests;
      drain_cap_ns;
      arrival_rng;
      service_rng;
      mech_rng;
      workers =
        Array.init config.n_workers (fun wid ->
            {
              wid;
              epoch = 0;
              cur = None;
              seg_start_ns = 0;
              seg_start_progress = 0;
              completion_at = 0;
              stop_progress = 0;
              queue = Queue.create ();
            });
      metrics =
        Metrics.create
          ~warmup_before:(int_of_float (warmup_frac *. float_of_int n_requests))
          ~n_classes:(Array.length mix.Mix.classes);
      live = Hashtbl.create 1024;
      tracer;
      arrived = 0;
      finished = 0;
      rr_next = 0;
      cswitch_ns = ns costs.Costs.context_switch_cycles;
      steal_ns = ns (2 * costs.Costs.coherence_miss_cycles);
      notif_ns = ns (Mechanism.notif_cost_cycles costs config.mechanism);
      worker_mult = 1.0 +. Mechanism.proc_overhead costs config.mechanism;
      default_spacing_ns = costs.Costs.probe_spacing_ns;
    }
  in
  Sim.schedule_at t.sim ~time:0 Ev_arrival;
  Sim.run t.sim ~handler:(handler t) ();
  Metrics.summarize t.metrics
    ~offered_rps:(Arrival.rate_rps arrival)
    ~span_ns:(max 1 (Sim.now t.sim))
    ~n_workers:config.n_workers
    ~class_names:(Array.map (fun (c : Mix.class_def) -> c.name) mix.Mix.classes)
