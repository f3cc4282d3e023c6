type t = {
  id : int;
  class_id : int;
  arrival_ns : int;
  service_ns : int;
  lock_windows : (int * int) array;
  probe_spacing_ns : float;
  mutable estimate_ns : int;
  mutable done_ns : int;
  mutable started : bool;
  mutable dispatcher_owned : bool;
  mutable last_worker : int;
  mutable completion_ns : int;
  mutable cancelled : bool;
  hedge_of : int;
}

let create ~id ~arrival_ns ~(profile : Repro_workload.Mix.profile) =
  {
    id;
    class_id = profile.class_id;
    arrival_ns;
    service_ns = profile.service_ns;
    lock_windows = profile.lock_windows;
    probe_spacing_ns = profile.probe_spacing_ns;
    estimate_ns = profile.service_ns;
    done_ns = 0;
    started = false;
    dispatcher_owned = false;
    last_worker = -1;
    completion_ns = -1;
    cancelled = false;
    hedge_of = -1;
  }

(* A hedge duplicate: same arrival and service profile as the primary, a
   fresh id for separate per-leg progress, and [hedge_of] pointing back so
   metrics account both legs against one arrival. *)
let hedge_dup (primary : t) ~id =
  {
    primary with
    id;
    hedge_of = primary.id;
    estimate_ns = primary.service_ns;
    done_ns = 0;
    started = false;
    dispatcher_owned = false;
    last_worker = -1;
    completion_ns = -1;
    cancelled = false;
  }

let origin_id t = if t.hedge_of >= 0 then t.hedge_of else t.id

let remaining_ns t = t.service_ns - t.done_ns
let is_complete t = t.completion_ns >= 0

let defer_past_locks t p =
  let n = Array.length t.lock_windows in
  let rec scan i =
    if i >= n then p
    else begin
      let start, stop = t.lock_windows.(i) in
      if p < start then p else if p < stop then Int.min stop t.service_ns else scan (i + 1)
    end
  in
  scan 0

(* A segment that started at wall time [seg_start_ns] with
   [seg_start_progress] done advances one ns of progress per [mult] ns of
   wall time. *)
let progress_at t ~seg_start_ns ~seg_start_progress ~mult at =
  let wall = Int.max 0 (at - seg_start_ns) in
  Int.min t.service_ns (seg_start_progress + int_of_float (float_of_int wall /. mult))

let time_of_progress ~seg_start_ns ~seg_start_progress ~mult p =
  seg_start_ns + int_of_float (ceil (float_of_int (p - seg_start_progress) *. mult))

let stop_point t ~seg_start_ns ~seg_start_progress ~mult ~completion_at ~candidate =
  let p = progress_at t ~seg_start_ns ~seg_start_progress ~mult candidate in
  let p' = defer_past_locks t p in
  if p' >= t.service_ns then None
  else begin
    let stop_time =
      if p' = p then Int.max candidate (time_of_progress ~seg_start_ns ~seg_start_progress ~mult p)
      else time_of_progress ~seg_start_ns ~seg_start_progress ~mult p'
    in
    if stop_time >= completion_at then None else Some (stop_time, p')
  end

let probe_spacing t ~default = if t.probe_spacing_ns > 0.0 then t.probe_spacing_ns else default

let sojourn_ns t =
  if not (is_complete t) then invalid_arg "Request.sojourn_ns: not complete";
  t.completion_ns - t.arrival_ns

let slowdown t = float_of_int (sojourn_ns t) /. float_of_int (Int.max 1 t.service_ns)
