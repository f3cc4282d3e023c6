module Stats = Repro_engine.Stats

type t = {
  warmup_before : int;
  slowdowns : Stats.t;
  sojourns : Stats.t;
  idle_gaps : Stats.t;
  per_class : Stats.t array;
  mutable completed : int;
  mutable censored : int;
  mutable measured_censored : int;
  mutable first_measured_ns : int;
  mutable first_measured_arrival_ns : int;
  mutable last_measured_ns : int;
  mutable measured_completions : int;
  mutable negative_idle_gaps : int;
  mutable preemptions : int;
  mutable steal_slices : int;
  mutable dispatcher_busy_ns : int;
  mutable dispatcher_app_ns : int;
  mutable worker_busy_ns : int;
}

let create ~warmup_before ~n_classes =
  {
    warmup_before;
    slowdowns = Stats.create ();
    sojourns = Stats.create ();
    idle_gaps = Stats.create ();
    per_class = Array.init (max n_classes 1) (fun _ -> Stats.create ());
    completed = 0;
    censored = 0;
    measured_censored = 0;
    first_measured_ns = max_int;
    first_measured_arrival_ns = max_int;
    last_measured_ns = 0;
    measured_completions = 0;
    negative_idle_gaps = 0;
    preemptions = 0;
    steal_slices = 0;
    dispatcher_busy_ns = 0;
    dispatcher_app_ns = 0;
    worker_busy_ns = 0;
  }

(* Keyed on the origin id so a hedge duplicate (whose own id is allocated
   past the arrival sequence) is measured iff its primary would be. *)
let measured t (r : Request.t) = Request.origin_id r >= t.warmup_before

let record_sample t (r : Request.t) ~slowdown ~sojourn_ns =
  Stats.add t.slowdowns slowdown;
  Stats.add t.sojourns (float_of_int sojourn_ns);
  if r.class_id >= 0 && r.class_id < Array.length t.per_class then
    Stats.add t.per_class.(r.class_id) slowdown

let record_completion t (r : Request.t) =
  t.completed <- t.completed + 1;
  if measured t r then begin
    t.measured_completions <- t.measured_completions + 1;
    t.first_measured_ns <- Int.min t.first_measured_ns r.completion_ns;
    t.first_measured_arrival_ns <- Int.min t.first_measured_arrival_ns r.arrival_ns;
    t.last_measured_ns <- Int.max t.last_measured_ns r.completion_ns;
    record_sample t r ~slowdown:(Request.slowdown r) ~sojourn_ns:(Request.sojourn_ns r)
  end

let record_censored t (r : Request.t) ~now_ns =
  t.censored <- t.censored + 1;
  if measured t r then begin
    t.measured_censored <- t.measured_censored + 1;
    let sojourn_ns = now_ns - r.arrival_ns in
    let slowdown = float_of_int sojourn_ns /. float_of_int (max 1 r.service_ns) in
    record_sample t r ~slowdown ~sojourn_ns
  end

(* A negative gap means the cost model accounted a worker as starting its
   next request before the previous one released the core — an accounting
   bug, not a measurement. Count rather than silently drop. *)
let record_idle_gap t gap =
  if gap >= 0 then Stats.add t.idle_gaps (float_of_int gap)
  else t.negative_idle_gaps <- t.negative_idle_gaps + 1
let add_preemption t = t.preemptions <- t.preemptions + 1
let add_steal_slice t = t.steal_slices <- t.steal_slices + 1
let add_dispatcher_busy t ns = t.dispatcher_busy_ns <- t.dispatcher_busy_ns + ns
let add_dispatcher_app t ns = t.dispatcher_app_ns <- t.dispatcher_app_ns + ns
let add_worker_busy t ns = t.worker_busy_ns <- t.worker_busy_ns + ns

type summary = {
  offered_rps : float;
  completed : int;
  measured : int;
  censored : int;
  measured_censored : int;
  goodput_rps : float;
  mean_slowdown : float;
  p50_slowdown : float;
  p99_slowdown : float;
  p999_slowdown : float;
  mean_sojourn_ns : float;
  p999_sojourn_ns : float;
  preemptions : int;
  steal_slices : int;
  dispatcher_busy_frac : float;
  dispatcher_app_frac : float;
  worker_busy_frac : float;
  median_idle_gap_ns : float;
  negative_idle_gaps : int;
  per_class : (string * int * float) array;
}

let summarize t ~offered_rps ~span_ns ~n_workers ~class_names =
  let pct s p = if Stats.is_empty s then 0.0 else Stats.percentile s p in
  let slowdown =
    if Stats.is_empty t.slowdowns then [| 0.0; 0.0; 0.0 |]
    else Stats.percentiles t.slowdowns [| 50.0; 99.0; 99.9 |]
  in
  let span = max span_ns 1 in
  let measured_span =
    if t.measured_completions > 1 then max 1 (t.last_measured_ns - t.first_measured_ns)
    else if t.measured_completions = 1 then
      (* A single measured completion spans its own sojourn, not the whole
         run (which would report a near-zero goodput for short runs). *)
      max 1 (t.last_measured_ns - t.first_measured_arrival_ns)
    else span
  in
  {
    offered_rps;
    completed = t.completed;
    (* Completions only: censored requests also contribute slowdown samples
       (so Stats.count t.slowdowns = measured + measured_censored), but must
       not be reported as measured completions — that is what goodput is
       computed from. *)
    measured = t.measured_completions;
    censored = t.censored;
    measured_censored = t.measured_censored;
    goodput_rps = float_of_int t.measured_completions /. (float_of_int measured_span /. 1e9);
    mean_slowdown = Stats.mean t.slowdowns;
    p50_slowdown = slowdown.(0);
    p99_slowdown = slowdown.(1);
    p999_slowdown = slowdown.(2);
    mean_sojourn_ns = Stats.mean t.sojourns;
    p999_sojourn_ns = pct t.sojourns 99.9;
    preemptions = t.preemptions;
    steal_slices = t.steal_slices;
    dispatcher_busy_frac = float_of_int t.dispatcher_busy_ns /. float_of_int span;
    dispatcher_app_frac = float_of_int t.dispatcher_app_ns /. float_of_int span;
    worker_busy_frac =
      float_of_int t.worker_busy_ns /. (float_of_int span *. float_of_int (max n_workers 1));
    median_idle_gap_ns = pct t.idle_gaps 50.0;
    negative_idle_gaps = t.negative_idle_gaps;
    per_class =
      Array.mapi
        (fun i s ->
          let name = if i < Array.length class_names then class_names.(i) else string_of_int i in
          (name, Stats.count s, pct s 99.9))
        t.per_class;
  }

let slowdown_samples t = t.slowdowns

let summary_header =
  Printf.sprintf "%12s %9s %9s %9s %9s %9s %8s %8s" "load(kRps)" "goodput" "p50" "p99"
    "p99.9" "mean" "preempt" "censored"

let summary_row s =
  Printf.sprintf "%12.1f %9.1f %9.2f %9.2f %9.2f %9.2f %8d %8d" (s.offered_rps /. 1e3)
    (s.goodput_rps /. 1e3) s.p50_slowdown s.p99_slowdown s.p999_slowdown s.mean_slowdown
    s.preemptions s.censored
