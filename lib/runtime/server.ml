module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Ring = Repro_engine.Ring
module Costs = Repro_hw.Costs
module Mechanism = Repro_hw.Mechanism
module Mix = Repro_workload.Mix

(* ------------------------------------------------------------------ *)
(* Events and dispatcher micro-operations                              *)
(* ------------------------------------------------------------------ *)

type disp_op =
  | Op_ingress of Request.t
  | Op_ingress_batch
      (* coalesced ingress: the dispatcher admits several queued arrivals in
         one pass, amortizing the per-request cost (Config.ingress_batch).
         The members live in [dispatcher.batch_buf.(0 .. batch_n - 1)] — at
         most one batch op is ever in flight, so a single scratch array per
         instance replaces a freshly allocated list per batch. *)
  | Op_completion of int (* worker id *)
  | Op_requeue of { req : Request.t; from_worker : int }
  | Op_preempt_signal of { worker : int; epoch : int }
  | Op_send of { worker : int; req : Request.t } (* SQ hand-off *)
  | Op_push of { worker : int; req : Request.t } (* JBSQ push *)
  | Op_cancel of Request.t
      (* balancer-issued revocation of a hedge duplicate: discard the leg
         wherever it currently sits (queued, saved, or running via the
         preemption mechanism), charging [cancel_ns] of dispatcher time *)

(* Per-instance events. The host simulation (the standalone driver below,
   or a {!Cluster}-style rack model) wraps these in its own event type via
   the [lift] injection, so several instances can interleave on one shared
   clock. *)
type event =
  | Ev_disp_op_done
  | Ev_disp_slice_end of { depoch : int }
  | Ev_worker_begin of { w : int; epoch : int }
  | Ev_worker_complete of { w : int; epoch : int }
  | Ev_quantum of { w : int; epoch : int }
  | Ev_preempt_stop of { w : int; epoch : int }
  | Ev_yield_done of { w : int; epoch : int }

(* ------------------------------------------------------------------ *)
(* Mutable state                                                       *)
(* ------------------------------------------------------------------ *)

type worker = {
  wid : int;
  mutable epoch : int; (* bumped to invalidate in-flight events *)
  mutable cur : Request.t option;
  mutable seg_start_ns : int; (* wall time the current segment began *)
  mutable seg_start_progress : int; (* progress when the segment began *)
  mutable completion_at : int; (* scheduled completion of the segment *)
  mutable complete_timer : Sim.timer; (* pending Ev_worker_complete, or Sim.no_timer *)
  mutable quantum_timer : Sim.timer; (* pending Ev_quantum, or Sim.no_timer *)
  mutable stop_progress : int; (* progress at the resolved preemption point *)
  local : Local_queue.t; (* JBSQ waiting slots (depth - 1) *)
  mutable gap_open_ns : int; (* completion time with backlog present, or -1 *)
  mutable busy_from : int; (* segment busy-accounting anchor *)
}

type slice = { sreq : Request.t; sstart : int; sstop_progress : int }

(* The op ring replaces a [Queue.t]: pushes and pops move two cursors in a
   flat array instead of allocating a cons cell per op, which matters because
   every completion, requeue and preemption signal flows through here.
   [cur_op] is a plain field (meaningful only while [busy]); the dispatcher
   runs ops strictly serially, so an option box would only encode a state
   [busy] already tracks. *)
type dispatcher = {
  ops : disp_op Ring.t;
  mutable busy : bool;
  mutable depoch : int;
  mutable op_started_ns : int;
  mutable cur_op : disp_op;
  mutable slice : slice option;
  mutable saved : Request.t option; (* §3.3 dedicated context buffer *)
  mutable batch_buf : Request.t array; (* Op_ingress_batch scratch, grown lazily *)
  mutable batch_n : int;
}

type 'e t = {
  sim : 'e Sim.t;
  lift : event -> 'e;
  lifted_op_done : 'e; (* [lift Ev_disp_op_done], cached: one per op otherwise *)
  config : Config.t;
  mech_rng : Rng.t;
  central : Policy.t;
  workers : worker array;
  views : int array;
      (* the dispatcher's count of requests it has handed each worker and
         not yet had back (completion or requeue), capped at [depth]. SQ is
         JBSQ of depth 1: a view of 0 there is a worker known to be free *)
  mutable idle_views : int; (* workers whose view is 0 *)
  depth : int; (* [Config.jbsq_depth]: 1 under SQ *)
  jbsq : bool;
  disp : dispatcher;
  metrics : Metrics.t;
  live : (int, Request.t) Hashtbl.t; (* in-flight requests, for censoring *)
  tracer : Tracing.t option;
  tracing : bool;
      (* [tracer <> None]; call sites test this before building a
         [Tracing.kind], so untraced runs never allocate the payload *)
  on_complete : (Request.t -> unit) option;
  on_cancelled : (Request.t -> unit) option;
      (* fired exactly once per revoked leg, when the instance actually
         discards it; the partial progress left in [done_ns] is the
         balancer's wasted-work meter *)
  mutable finished : int; (* completions, all owners *)
  (* size-estimate noise: sigma of the log-normal multiplier applied once
     at arrival when the policy is Srpt_noisy; 0.0 = exact demand and no
     draws, so non-noisy configs consume identical RNG streams *)
  estimate_sigma : float;
  est_rng : Rng.t; (* split from mech_rng only when estimate_sigma > 0 *)
  estimate_means : int array;
      (* per-class mean estimates when the policy is Srpt_kv; [||]
         otherwise (no draws, no stream perturbation either way) *)
  (* cached cost-model conversions (ns), pre-scaled by [speed]; the
     dispatcher ops' are what [op_cost_ns] charges *)
  ingress_ns : int;
  completion_ns : int;
  requeue_ns : int;
  signal_ns : int; (* Op_preempt_signal: IPI send or flag write *)
  send_ns : int;
  push_ns : int;
  cancel_ns : int; (* Op_cancel *)
  quantum_ns : int;
  cswitch_ns : int;
  receive_ns : int;
  local_pop_ns : int;
  notif_ns : int;
  worker_mult : float; (* (1 + cproc of the worker mechanism) x speed *)
  disp_mult : float; (* (1 + cproc of rdtsc instrumentation) x speed *)
  default_spacing_ns : float;
  speed : float; (* straggler multiplier: >1 = uniformly slower box *)
}

(* Straggler scaling: a slow instance pays proportionally more wall time
   for the same cycle budget, both in its dispatcher micro-ops and in
   application execution. [speed = 1.0] is the exact identity. A cost
   beyond the int range raises rather than wrapping to a bogus value. *)
let scaled_ns costs ~speed cycles =
  let n = Costs.ns_of costs cycles in
  if speed = 1.0 then n
  else
    let ns = ceil (float_of_int n *. speed) in
    if ns < float_of_int max_int then int_of_float ns
    else invalid_arg "Server: a straggler-scaled op cost overflows the int range"

let trace t ~request kind =
  match t.tracer with
  | None -> ()
  | Some tracer -> Tracing.record tracer ~time_ns:(Sim.now t.sim) ~request kind

(* Drop a revoked leg for good. Guarded on [live] membership so the
   cancellation callback fires exactly once no matter how many paths
   (queue pop, requeue, completion, explicit Op_cancel) race to discard
   the same request. *)
let discard_cancelled t (req : Request.t) =
  if Hashtbl.mem t.live req.Request.id then begin
    Hashtbl.remove t.live req.Request.id;
    match t.on_cancelled with None -> () | Some f -> f req
  end

(* Resolve where a preemption wished for at wall time [candidate] actually
   stops the request: never inside a lock window (safety-first, §3.1,
   {!Request.stop_point}), and under the Whole_request lock model never
   before the request completes (the Shinjuku prototype's whole-API-call
   approach). Returns [None] when the request will complete first, or
   [Some (stop_time, stop_progress)]. *)
let resolve_stop t req ~seg_start_ns ~seg_start_progress ~mult ~completion_at ~candidate =
  match t.config.lock_model with
  | Config.Whole_request -> None
  | Config.Fine_grained ->
    Request.stop_point req ~seg_start_ns ~seg_start_progress ~mult ~completion_at ~candidate

let probe_spacing t req = Request.probe_spacing req ~default:t.default_spacing_ns

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let op_cost_ns t = function
  | Op_ingress _ -> t.ingress_ns
  | Op_ingress_batch ->
    scaled_ns t.config.costs ~speed:t.speed
      (Costs.ingress_batch_cost_cycles t.config.costs ~batch:t.disp.batch_n)
  | Op_completion _ -> t.completion_ns
  | Op_requeue _ -> t.requeue_ns
  | Op_preempt_signal _ -> t.signal_ns
  | Op_send _ -> t.send_ns
  | Op_push _ -> t.push_ns
  | Op_cancel _ -> t.cancel_ns

(* The dispatcher hands worker [wid] one more request... *)
let take_view t wid =
  let v = t.views.(wid) in
  if v = 0 then t.idle_views <- t.idle_views - 1;
  t.views.(wid) <- v + 1

(* ... or has one back: a completion, a requeue, or a revoked hand-off. *)
let release_view t wid =
  let v = t.views.(wid) in
  if v = 1 then t.idle_views <- t.idle_views + 1;
  t.views.(wid) <- Int.max 0 (v - 1)

(* Cancellation leaves ghost entries behind: a revoked leg may still sit in
   the central policy, a local queue, or the saved-context buffer. Rather
   than teaching every queue to delete by id, the pop paths below skip and
   discard cancelled entries lazily — with hedging off no request is ever
   cancelled and these reduce to the bare pops. *)
let rec pop_live t ~worker =
  match Policy.pop t.central ~worker with
  | None -> None
  | Some req ->
    if req.Request.cancelled then begin
      discard_cancelled t req;
      pop_live t ~worker
    end
    else Some req

let rec pop_not_started_live t =
  match Policy.pop_not_started t.central with
  | None -> None
  | Some req ->
    if req.Request.cancelled then begin
      discard_cancelled t req;
      pop_not_started_live t
    end
    else Some req

let rec local_pop_live t (w : worker) =
  match Local_queue.pop w.local with
  | None -> None
  | Some req ->
    if req.Request.cancelled then begin
      discard_cancelled t req;
      (* The slot this duplicate held in the dispatcher's view must be
         credited back, exactly as a completion would. *)
      Ring.push t.disp.ops (Op_completion w.wid);
      local_pop_live t w
    end
    else Some req

(* The worker with the fewest requests in the dispatcher's view, below
   [depth]; the lowest index among ties. The scan stops at the first free
   worker, since none can have fewer. -1 if every worker is full. *)
let rec least_loaded t i best best_view =
  if best_view = 0 || i >= Array.length t.views then best
  else begin
    let v = Array.unsafe_get t.views i in
    if v < best_view then least_loaded t (i + 1) i v else least_loaded t (i + 1) best best_view
  end

(* Pick the drain action the dispatcher would perform next, if any: hand a
   queued request to the least-loaded worker with a free slot, sending it
   (SQ: the worker is idle) or pushing it to the worker's local queue
   (JBSQ). *)
let make_drain_op t =
  if Policy.is_empty t.central then None
  else begin
    let worker = least_loaded t 0 (-1) t.depth in
    if worker < 0 then None
    else begin
      match pop_live t ~worker with
      | None -> None
      | Some req ->
        take_view t worker;
        Some (if t.jbsq then Op_push { worker; req } else Op_send { worker; req })
    end
  end

let all_workers_busy_view t = t.idle_views = 0

(* Move consecutive pending ingress ops from the op ring into [buf],
   starting at slot [n]; stops at the batch limit or the first non-ingress
   op. Returns the filled length. *)
let rec collect_batch t buf n limit =
  let d = t.disp in
  if n >= limit || Ring.is_empty d.ops then n
  else begin
    match Ring.peek_unsafe d.ops with
    | Op_ingress r ->
      ignore (Ring.pop_unsafe d.ops : disp_op);
      buf.(n) <- r;
      collect_batch t buf (n + 1) limit
    | Op_ingress_batch | Op_completion _ | Op_requeue _ | Op_preempt_signal _ | Op_send _
    | Op_push _ | Op_cancel _ ->
      n
  end

let rec disp_kick t =
  let d = t.disp in
  if not d.busy then begin
    if Ring.is_empty d.ops then begin
      match make_drain_op t with
      | Some op -> start_op t op
      | None -> if t.config.dispatcher_steals then try_steal t
    end
    else begin
      match Ring.pop_unsafe d.ops with
      | Op_ingress first when t.config.ingress_batch > 1 ->
        (* Coalesce consecutive pending arrivals into one admission op. *)
        if Array.length d.batch_buf < t.config.ingress_batch then
          d.batch_buf <- Array.make t.config.ingress_batch first;
        d.batch_buf.(0) <- first;
        d.batch_n <- collect_batch t d.batch_buf 1 t.config.ingress_batch;
        start_op t Op_ingress_batch
      | op -> start_op t op
    end
  end

and start_op t op =
  let d = t.disp in
  d.busy <- true;
  d.cur_op <- op;
  d.op_started_ns <- Sim.now t.sim;
  Sim.schedule_after t.sim ~delay:(op_cost_ns t op) t.lifted_op_done

(* §3.3: when idle, the dispatcher resumes its saved context, or steals the
   first non-started request once every worker is busy. It runs the request
   under rdtsc instrumentation and self-preempts at the first probe past
   the quantum. *)
and try_steal t =
  let d = t.disp in
  match d.saved with
  | Some req when not (all_workers_busy_view t) ->
    (* Stealing (and holding a stolen context) is an all-workers-busy
       fallback; with a worker free, hand the saved request back so the
       worker finishes it instead of it waiting for dispatcher idle time. *)
    d.saved <- None;
    Ring.push d.ops (Op_requeue { req; from_worker = -1 });
    disp_kick t
  | saved -> (
    let candidate =
      match saved with
      | Some req ->
        d.saved <- None;
        Some req
      | None ->
        if all_workers_busy_view t && Policy.has_not_started t.central then
          pop_not_started_live t
        else None
    in
    match candidate with
    | None -> ()
    | Some req when req.Request.cancelled ->
      (* Only the saved-context path can surface a cancelled leg here (the
         queue pop filters them); drop it and look again. *)
      discard_cancelled t req;
      try_steal t
    | Some req ->
    let now = Sim.now t.sim in
    if t.tracing then begin
      if not req.Request.dispatcher_owned then trace t ~request:req.Request.id Tracing.Stolen;
      if req.Request.started then
        trace t ~request:req.Request.id
          (Tracing.Resumed { worker = -1; progress_ns = req.Request.done_ns })
      else trace t ~request:req.Request.id (Tracing.Started { worker = -1 })
    end;
    req.Request.started <- true;
    req.Request.dispatcher_owned <- true;
    let mult = t.disp_mult in
    let remaining_wall =
      int_of_float (ceil (float_of_int (Request.remaining_ns req) *. mult))
    in
    let lateness =
      Mechanism.yield_lateness_ns Mechanism.Rdtsc_probe ~costs:t.config.costs ~rng:t.mech_rng
        ~probe_spacing_ns:(probe_spacing t req)
    in
    let seg_start_progress = req.Request.done_ns in
    let stop =
      resolve_stop t req ~seg_start_ns:now ~seg_start_progress ~mult
        ~completion_at:(now + remaining_wall)
        ~candidate:(now + t.quantum_ns + lateness)
    in
    let ends_at, sstop_progress =
      match stop with
      | None -> (now + remaining_wall, req.Request.service_ns)
      | Some (stop_time, p) -> (stop_time, p)
    in
    d.busy <- true;
    d.depoch <- d.depoch + 1;
    d.slice <- Some { sreq = req; sstart = now; sstop_progress };
    Metrics.add_steal_slice t.metrics;
    Sim.schedule_at t.sim ~time:ends_at (t.lift (Ev_disp_slice_end { depoch = d.depoch })))

let complete_request t (req : Request.t) ~worker =
  if req.Request.cancelled then begin
    (* The revocation landed too late to stop the leg: its full service ran.
       All of it is waste, none of it is a completion. *)
    req.Request.done_ns <- req.Request.service_ns;
    discard_cancelled t req
  end
  else begin
  if t.tracing then trace t ~request:req.Request.id (Tracing.Completed { worker });
  req.Request.completion_ns <- Sim.now t.sim;
  req.Request.done_ns <- req.Request.service_ns;
  Hashtbl.remove t.live req.Request.id;
  Metrics.record_completion t.metrics req;
  t.finished <- t.finished + 1;
  (match t.on_complete with None -> () | Some f -> f req)
  end

let on_slice_end t ~depoch =
  let d = t.disp in
  if depoch = d.depoch then begin
    match d.slice with
    | None -> ()
    | Some { sreq; sstart; sstop_progress } ->
      let now = Sim.now t.sim in
      Metrics.add_dispatcher_app t.metrics (now - sstart);
      if sstop_progress >= sreq.Request.service_ns then complete_request t sreq ~worker:(-1)
      else if sreq.Request.cancelled then begin
        sreq.Request.done_ns <- sstop_progress;
        discard_cancelled t sreq
      end
      else begin
        if t.tracing then
          trace t ~request:sreq.Request.id
            (Tracing.Preempted { worker = -1; progress_ns = sstop_progress });
        sreq.Request.done_ns <- sstop_progress;
        d.saved <- Some sreq
      end;
      d.slice <- None;
      d.busy <- false;
      disp_kick t
  end

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* Hand [req] to worker [w], which is idle; [delay] models the receive path
   (coherence miss on the request line, context switch, local pop...). *)
let deliver t (w : worker) (req : Request.t) ~delay =
  if t.tracing then trace t ~request:req.Request.id (Tracing.Delivered { worker = w.wid });
  w.cur <- Some req;
  w.epoch <- w.epoch + 1;
  Sim.schedule_after t.sim ~delay (t.lift (Ev_worker_begin { w = w.wid; epoch = w.epoch }))

let begin_exec t (w : worker) =
  match w.cur with
  | None -> ()
  | Some req ->
    let now = Sim.now t.sim in
    if t.tracing then begin
      if req.Request.started then
        trace t ~request:req.Request.id
          (Tracing.Resumed { worker = w.wid; progress_ns = req.Request.done_ns })
      else trace t ~request:req.Request.id (Tracing.Started { worker = w.wid })
    end;
    req.Request.started <- true;
    req.Request.last_worker <- w.wid;
    w.seg_start_ns <- now;
    w.seg_start_progress <- req.Request.done_ns;
    w.busy_from <- now;
    let remaining = Request.remaining_ns req in
    w.completion_at <- now + int_of_float (ceil (float_of_int remaining *. t.worker_mult));
    w.complete_timer <-
      Sim.arm_at t.sim ~time:w.completion_at
        (t.lift (Ev_worker_complete { w = w.wid; epoch = w.epoch }));
    if Mechanism.preemptive t.config.mechanism && w.completion_at > now + t.quantum_ns then
      w.quantum_timer <-
        Sim.arm_after t.sim ~delay:t.quantum_ns
          (t.lift (Ev_quantum { w = w.wid; epoch = w.epoch }));
    if w.gap_open_ns >= 0 then begin
      (* cnext measurement: idle time excluding the context switch itself *)
      Metrics.record_idle_gap t.metrics (now - w.gap_open_ns - t.cswitch_ns);
      w.gap_open_ns <- -1
    end

(* After finishing or yielding, fetch the next request: pop the core-local
   queue (JBSQ) or wait for the dispatcher (SQ). [switch_paid] tells whether
   the yield path already charged the context switch. *)
let fetch_next t (w : worker) ~switch_paid ~open_gap =
  match local_pop_live t w with
  | Some req ->
    (* Work was waiting core-locally: the cnext gap is just the local pop. *)
    if open_gap then w.gap_open_ns <- Sim.now t.sim - if switch_paid then t.cswitch_ns else 0;
    let delay = t.local_pop_ns + if switch_paid then 0 else t.cswitch_ns in
    deliver t w req ~delay
  | None ->
    w.cur <- None;
    w.epoch <- w.epoch + 1;
    (* The cnext gap only opens when work was genuinely waiting for this
       worker: in SQ mode any queued request is (the head of) its work; in
       JBSQ mode requests in flight to other workers' queues are not. *)
    if open_gap && (not t.jbsq) && not (Policy.is_empty t.central) then
      w.gap_open_ns <- Sim.now t.sim
    else w.gap_open_ns <- -1

(* A segment arms its completion, and its quantum only when the quantum
   can fire: when the segment outlives [now + quantum_ns]. A segment that
   completes at or before the deadline would pop its completion first
   (armed first, so it wins a tie) and cancel the quantum unseen. Whatever
   ends the segment cancels what is still armed: a completion the quantum,
   a preemption decision both ([stop_segment]). None is left to pop as a
   no-op, so one that fires for a superseded segment is a bookkeeping
   bug. *)
let expect_current (w : worker) ~epoch what =
  if epoch <> w.epoch then failwith ("Server: stale " ^ what ^ " fired")

let cancel_quantum t (w : worker) =
  Sim.cancel t.sim w.quantum_timer;
  w.quantum_timer <- Sim.no_timer

let on_worker_complete t (w : worker) ~epoch =
  expect_current w ~epoch "Ev_worker_complete";
  w.complete_timer <- Sim.no_timer;
  cancel_quantum t w;
  match w.cur with
  | None -> ()
  | Some req ->
    let now = Sim.now t.sim in
    Metrics.add_worker_busy t.metrics (now - w.busy_from);
    complete_request t req ~worker:w.wid;
    Ring.push t.disp.ops (Op_completion w.wid);
    fetch_next t w ~switch_paid:false ~open_gap:true;
    disp_kick t

(* The worker will stop at [stop_time] with [progress] done, before its
   completion: both of the segment's timers are dead. The completion is
   still pending ([stop_time < completion_at]) unless an earlier stop of
   this segment already cancelled it. *)
let stop_segment t (w : worker) ~stop_time ~progress =
  Sim.cancel t.sim w.complete_timer;
  w.complete_timer <- Sim.no_timer;
  cancel_quantum t w;
  w.epoch <- w.epoch + 1;
  w.stop_progress <- progress;
  Sim.schedule_at t.sim ~time:stop_time (t.lift (Ev_preempt_stop { w = w.wid; epoch = w.epoch }))

let on_quantum t (w : worker) ~epoch =
  expect_current w ~epoch "Ev_quantum";
  w.quantum_timer <- Sim.no_timer;
  match w.cur with
  | None -> ()
  | Some req -> (
    let now = Sim.now t.sim in
    if w.completion_at <= now then failwith "Server: Ev_quantum fired on a finished segment";
    match t.config.mechanism with
    | Mechanism.No_preempt -> ()
    | Mechanism.Rdtsc_probe -> (
      (* Self-preemption: the worker notices the elapsed quantum at its
         next rdtsc probe; no dispatcher involvement. *)
      let lateness =
        Mechanism.yield_lateness_ns Mechanism.Rdtsc_probe ~costs:t.config.costs
          ~rng:t.mech_rng ~probe_spacing_ns:(probe_spacing t req)
      in
      match
        resolve_stop t req ~seg_start_ns:w.seg_start_ns ~seg_start_progress:w.seg_start_progress
          ~mult:t.worker_mult ~completion_at:w.completion_at ~candidate:(now + lateness)
      with
      | None -> ()
      | Some (stop_time, progress) -> stop_segment t w ~stop_time ~progress)
    | Mechanism.Ipi | Mechanism.Linux_ipi | Mechanism.Uipi | Mechanism.Cache_line
    | Mechanism.Model_lateness _ ->
      (* The dispatcher must notice the elapsed quantum and signal; its
         busyness delays the signal (§3.3). *)
      Ring.push t.disp.ops (Op_preempt_signal { worker = w.wid; epoch });
      disp_kick t)

(* Dispatcher has written the preemption flag / sent the interrupt at the
   current instant; decide when the worker actually stops. *)
let handle_preempt_signal t ~worker ~epoch =
  let w = t.workers.(worker) in
  if epoch = w.epoch then begin
    match w.cur with
    | None -> ()
    | Some req ->
      let now = Sim.now t.sim in
      let lateness =
        Mechanism.yield_lateness_ns t.config.mechanism ~costs:t.config.costs ~rng:t.mech_rng
          ~probe_spacing_ns:(probe_spacing t req)
      in
      match
        resolve_stop t req ~seg_start_ns:w.seg_start_ns ~seg_start_progress:w.seg_start_progress
          ~mult:t.worker_mult ~completion_at:w.completion_at ~candidate:(now + lateness)
      with
      | None -> ()
      | Some (stop_time, progress) -> stop_segment t w ~stop_time ~progress
  end

let on_preempt_stop t (w : worker) ~epoch =
  if epoch = w.epoch then begin
    match w.cur with
    | None -> ()
    | Some req ->
      let now = Sim.now t.sim in
      if t.tracing then
        trace t ~request:req.Request.id
          (Tracing.Preempted { worker = w.wid; progress_ns = w.stop_progress });
      req.Request.done_ns <- w.stop_progress;
      Metrics.add_preemption t.metrics;
      Metrics.add_worker_busy t.metrics (now - w.busy_from);
      w.busy_from <- now;
      (* The segment is over; mark it so (Op_cancel uses [completion_at > now]
         as "actually executing" — re-signalling during the yield hand-off
         would invalidate the pending Ev_yield_done and wedge the worker). *)
      w.completion_at <- -1;
      (* Receive the notification, save the context, switch out. *)
      Sim.schedule_after t.sim ~delay:(t.notif_ns + t.cswitch_ns)
        (t.lift (Ev_yield_done { w = w.wid; epoch }))
  end

let on_yield_done t (w : worker) ~epoch =
  if epoch = w.epoch then begin
    match w.cur with
    | None -> ()
    | Some req ->
      Metrics.add_worker_busy t.metrics (Sim.now t.sim - w.busy_from);
      Ring.push t.disp.ops (Op_requeue { req; from_worker = w.wid });
      fetch_next t w ~switch_paid:true ~open_gap:false;
      disp_kick t
  end

(* ------------------------------------------------------------------ *)
(* Dispatcher op completion                                            *)
(* ------------------------------------------------------------------ *)

let on_disp_op_done t =
  let d = t.disp in
  let now = Sim.now t.sim in
  let op_ns = now - d.op_started_ns in
  Metrics.add_dispatcher_busy t.metrics op_ns;
  (* [cur_op] is left holding the finished op; it is only ever read while
     [busy], which we clear here. *)
  let op = d.cur_op in
  d.busy <- false;
  (match op with
  | Op_ingress req ->
    if req.Request.cancelled then discard_cancelled t req
    else begin
      Policy.push_new t.central req;
      if t.tracing then
        trace t ~request:req.Request.id
          (Tracing.Admitted { central_depth = Policy.length t.central; op_ns })
    end
  | Op_ingress_batch ->
    (* Each batch member is charged its amortized share of the op latency. *)
    let n = d.batch_n in
    let share = op_ns / max 1 n in
    for i = 0 to n - 1 do
      let r = d.batch_buf.(i) in
      if r.Request.cancelled then discard_cancelled t r
      else begin
        Policy.push_new t.central r;
        if t.tracing then
          trace t ~request:r.Request.id
            (Tracing.Admitted { central_depth = Policy.length t.central; op_ns = share })
      end
    done;
    d.batch_n <- 0
  | Op_completion wid -> release_view t wid
  | Op_requeue { req; from_worker } ->
    if req.Request.cancelled then discard_cancelled t req
    else begin
      Policy.push_preempted t.central req;
      if t.tracing then
        trace t ~request:req.Request.id
          (Tracing.Requeued { queue_depth = Policy.length t.central })
    end;
    if from_worker >= 0 then release_view t from_worker
  | Op_preempt_signal { worker; epoch } -> handle_preempt_signal t ~worker ~epoch
  | Op_send { worker; req } ->
    if req.Request.cancelled then begin
      (* Revoked while the hand-off op ran: the worker stays free. *)
      release_view t worker;
      discard_cancelled t req
    end
    else begin
      if t.tracing then
        trace t ~request:req.Request.id
          (Tracing.Dispatched
             { worker; central_depth = Policy.length t.central; local_depth = 0; op_ns });
      deliver t t.workers.(worker) req ~delay:(t.receive_ns + t.cswitch_ns)
    end
  | Op_push { worker; req } ->
    if req.Request.cancelled then begin
      release_view t worker;
      discard_cancelled t req
    end
    else begin
      let w = t.workers.(worker) in
      let direct = w.cur = None in
      if t.tracing then begin
        let local_depth = if direct then 0 else Local_queue.length w.local + 1 in
        trace t ~request:req.Request.id
          (Tracing.Dispatched
             { worker; central_depth = Policy.length t.central; local_depth; op_ns })
      end;
      if direct then deliver t w req ~delay:(t.receive_ns + t.cswitch_ns)
      else Local_queue.push w.local req
    end
  | Op_cancel req ->
    if Hashtbl.mem t.live req.Request.id then begin
      let running = ref (-1) in
      Array.iter
        (fun w -> match w.cur with Some r when r == req -> running := w.wid | _ -> ())
        t.workers;
      if !running >= 0 then begin
        let w = t.workers.(!running) in
        (* Revoke an executing leg through the normal preemption path —
           this is exactly why cancellation is cheap under Concord-style
           probes. Only when a segment is genuinely executing
           ([completion_at] in the future); during a delivery or yield
           hand-off the leg is discarded when it next surfaces (requeue,
           queue pop, or completion). Non-preemptive mechanisms cannot
           revoke a running request at all: it runs out and is discarded
           at completion. *)
        if Mechanism.preemptive t.config.mechanism && w.completion_at > Sim.now t.sim then
          handle_preempt_signal t ~worker:!running ~epoch:w.epoch
      end
      else begin
        match d.slice with
        | Some s when s.sreq == req -> () (* the slice end will discard it *)
        | _ ->
          (match d.saved with Some r when r == req -> d.saved <- None | _ -> ());
          (* Still queued somewhere (or in flight between ops): discard
             now; any ghost entry left in a queue is skipped by the
             cancellation-aware pops. *)
          discard_cancelled t req
      end
    end);
  disp_kick t

(* ------------------------------------------------------------------ *)
(* Instance life cycle                                                 *)
(* ------------------------------------------------------------------ *)

let create_instance ~sim ~lift ~config ~warmup_before ~n_classes ~rng
    ?(speed_factor = 1.0) ?tracer ?on_complete ?on_cancelled () =
  Config.validate config;
  if not (speed_factor > 0.0 && Float.is_finite speed_factor) then
    invalid_arg "Server.Instance.create: speed_factor must be positive and finite";
  let costs = config.Config.costs in
  let ns = scaled_ns costs ~speed:speed_factor in
  let estimate_sigma =
    match config.Config.policy with
    | Policy.Srpt_noisy { sigma } -> sigma
    | Policy.Fcfs | Policy.Srpt | Policy.Srpt_kv _ | Policy.Gittins _ | Policy.Locality_fcfs ->
      0.0
  in
  let estimate_means =
    match config.Config.policy with
    | Policy.Srpt_kv { means_ns } -> means_ns
    | Policy.Fcfs | Policy.Srpt | Policy.Srpt_noisy _ | Policy.Gittins _ | Policy.Locality_fcfs
      ->
      [||]
  in
  (* Estimates get their own stream, split off only when the policy
     actually draws them, so every other configuration's mech_rng stream is
     untouched (bit-identity with the pre-estimate code, and sigma = 0 is
     exactly Srpt). *)
  let est_rng = if estimate_sigma > 0.0 then Rng.split rng else rng in
  (* Never dispatched: pads vacated ring slots and the idle [cur_op]. *)
  let dummy_op = Op_completion (-1) in
  let n_workers = config.Config.n_workers in
  {
    sim;
    lift;
    lifted_op_done = lift Ev_disp_op_done;
    config;
    mech_rng = rng;
    estimate_sigma;
    est_rng;
    estimate_means;
    central = Policy.create config.Config.policy;
    workers =
      Array.init n_workers (fun wid ->
          {
            wid;
            epoch = 0;
            cur = None;
            seg_start_ns = 0;
            seg_start_progress = 0;
            completion_at = 0;
            complete_timer = Sim.no_timer;
            quantum_timer = Sim.no_timer;
            stop_progress = 0;
            local = Local_queue.create ~capacity:(Config.jbsq_depth config - 1);
            gap_open_ns = -1;
            busy_from = 0;
          });
    views = Array.make n_workers 0;
    idle_views = n_workers;
    depth = Config.jbsq_depth config;
    jbsq =
      (match config.Config.queue_model with
      | Config.Jbsq _ -> true
      | Config.Single_queue -> false);
    disp =
      {
        ops = Ring.create ~capacity:64 ~dummy:dummy_op ();
        busy = false;
        depoch = 0;
        op_started_ns = 0;
        cur_op = dummy_op;
        slice = None;
        saved = None;
        batch_buf = [||];
        batch_n = 0;
      };
    metrics = Metrics.create ~warmup_before ~n_classes;
    live = Hashtbl.create 1024;
    tracer;
    tracing = tracer <> None;
    on_complete;
    on_cancelled;
    finished = 0;
    ingress_ns = ns costs.Costs.disp_ingress_cycles;
    completion_ns = ns (costs.Costs.disp_completion_cycles + costs.Costs.flag_propagation_cycles);
    requeue_ns = ns costs.Costs.disp_requeue_cycles;
    signal_ns =
      ns
        (if Mechanism.is_precise config.Config.mechanism then costs.Costs.disp_ipi_send_cycles
         else costs.Costs.disp_flag_write_cycles);
    send_ns = ns costs.Costs.disp_send_cycles;
    push_ns = ns (costs.Costs.disp_send_cycles + costs.Costs.disp_jbsq_pick_cycles);
    (* Killing a queued duplicate costs what a requeue costs: one
       dispatcher queue operation. *)
    cancel_ns = ns costs.Costs.disp_requeue_cycles;
    quantum_ns = config.Config.quantum_ns;
    cswitch_ns = ns costs.Costs.context_switch_cycles;
    receive_ns = ns costs.Costs.worker_receive_cycles;
    local_pop_ns = ns costs.Costs.local_pop_cycles;
    notif_ns = ns (Mechanism.notif_cost_cycles costs config.Config.mechanism);
    worker_mult = (1.0 +. Mechanism.proc_overhead costs config.Config.mechanism) *. speed_factor;
    disp_mult = (1.0 +. costs.Costs.rdtsc_proc_overhead) *. speed_factor;
    default_spacing_ns = costs.Costs.probe_spacing_ns;
    speed = speed_factor;
  }

(* Hand an externally created request to this instance's ingress path, as
   if it had just landed in the NIC queue. *)
let inject t (req : Request.t) =
  (* The size estimate a noisy-SRPT scheduler would get from a predictor:
     drawn once at arrival, multiplicatively log-normal around the true
     size (median-unbiased), and never refined afterwards. *)
  if t.estimate_sigma > 0.0 then
    req.Request.estimate_ns <-
      max 1
        (int_of_float
           (Float.round
              (float_of_int req.Request.service_ns
              *. Rng.lognormal t.est_rng ~mu:0.0 ~sigma:t.estimate_sigma)));
  (* The opcode-level prediction (srpt-kv): every request of a class gets
     that class's empirical mean as its size estimate. Out-of-range class
     ids (e.g. the Raft tier's consensus mini-requests) keep their exact
     demand. *)
  if
    Array.length t.estimate_means > 0
    && req.Request.class_id >= 0
    && req.Request.class_id < Array.length t.estimate_means
  then req.Request.estimate_ns <- t.estimate_means.(req.Request.class_id);
  Hashtbl.replace t.live req.Request.id req;
  if t.tracing then
    trace t ~request:req.Request.id (Tracing.Arrived { service_ns = req.Request.service_ns });
  Ring.push t.disp.ops (Op_ingress req);
  disp_kick t

let handle t = function
  | Ev_disp_op_done -> on_disp_op_done t
  | Ev_disp_slice_end { depoch } -> on_slice_end t ~depoch
  | Ev_worker_begin { w; epoch } ->
    let wk = t.workers.(w) in
    if epoch = wk.epoch then begin_exec t wk
  | Ev_worker_complete { w; epoch } -> on_worker_complete t t.workers.(w) ~epoch
  | Ev_quantum { w; epoch } -> on_quantum t t.workers.(w) ~epoch
  | Ev_preempt_stop { w; epoch } -> on_preempt_stop t t.workers.(w) ~epoch
  | Ev_yield_done { w; epoch } -> on_yield_done t t.workers.(w) ~epoch

let censor_all ?also t ~now_ns =
  (Hashtbl.iter
     (fun _ req ->
       (* Revoked hedge legs are not part of the served population: their
          arrival is accounted by the winning leg (or by the primary's own
          censoring), so counting them here would double-book it. *)
       if not req.Request.cancelled then begin
         Metrics.record_censored t.metrics req ~now_ns;
         match also with None -> () | Some f -> f req
       end)
     t.live)
  [@lint.deterministic
    "hash order is stable for a fixed insertion history (non-randomized Hashtbl); \
     censored-request accounting is pinned by the golden tests"]

(* Balancer-issued revocation: queue the cancel through the dispatcher so
   it pays [cancel_ns] like any other op. Dropped silently when the leg is
   no longer live here (already completed, discarded, or surrendered). *)
let cancel t (req : Request.t) =
  if Hashtbl.mem t.live req.Request.id then begin
    Ring.push t.disp.ops (Op_cancel req);
    disp_kick t
  end

(* Rack-level work stealing: give up one not-yet-started request so an idle
   peer can run it. Only fresh (never-run, non-cancelled) requests are
   surrendered — migrating partial state across servers is not free in any
   real rack, and the thief re-injects the request as a new arrival. *)
let surrender t =
  if Policy.has_not_started t.central then begin
    match pop_not_started_live t with
    | None -> None
    | Some req ->
      Hashtbl.remove t.live req.Request.id;
      Some req
  end
  else None

module Instance = struct
  type nonrec 'e t = 'e t

  let create = create_instance
  let inject = inject
  let handle = handle
  let cancel = cancel
  let surrender = surrender
  let censor_all = censor_all
  let metrics t = t.metrics
  let inflight t = Hashtbl.length t.live
  let completed t = t.finished
  let n_workers t = t.config.Config.n_workers
end

(* ------------------------------------------------------------------ *)
(* Standalone run loop: one instance, its own clock and open-loop client *)
(* ------------------------------------------------------------------ *)

type run_event = Rv_arrival | Rv_end | Rv_inst of event

let run_detailed ~config ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
    ?events_out () =
  Config.validate config;
  let inputs =
    Driver.check ~who:"Server.run" ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ()
  in
  (* In-flight bound: a few timer/completion events per worker, one
     dispatcher op, one pending arrival. Pre-sizing skips heap doubling. *)
  let sim = Sim.create ~capacity:((4 * config.Config.n_workers) + 16) () in
  let driver = Driver.create inputs ~sim ~arrive:Rv_arrival ~end_of_run:Rv_end in
  let inst =
    create_instance ~sim
      ~lift:(fun e -> Rv_inst e)
      ~config ~warmup_before:inputs.Driver.warmup_before
      ~n_classes:(Array.length mix.Mix.classes)
      ~rng:(Rng.split (Driver.master driver))
      ?tracer
      ~on_complete:(fun _ -> Driver.complete driver)
      ()
  in
  let handler _ = function
    | Rv_arrival ->
      let req = Driver.take driver in
      Driver.schedule_next driver;
      inject inst req
    | Rv_end -> Driver.end_run driver
    | Rv_inst e -> handle inst e
  in
  Driver.run driver ~draw_ahead:true
    ~censor:(fun ~now_ns -> censor_all inst ~now_ns)
    (fun () -> Sim.run sim ~handler ());
  (match events_out with Some r -> r := Sim.events_processed sim | None -> ());
  ( Driver.summarize driver inst.metrics ~n_workers:config.Config.n_workers,
    Metrics.slowdown_samples inst.metrics )

let run ~config ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer () =
  fst
    (run_detailed ~config ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
       ())
