module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Prefetch = Repro_engine.Prefetch
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival

type inputs = {
  mix : Mix.t;
  arrival : Arrival.t;
  n_requests : int;
  warmup_before : int;
  drain_cap_ns : int;
  seed : int;
}

let check ~who ~mix ~arrival ~n_requests ?(warmup_frac = 0.1) ?(drain_cap_ns = 400_000_000)
    ?(seed = 42) () =
  if n_requests < 1 then invalid_arg (who ^ ": need at least one request");
  Arrival.validate arrival;
  if not (warmup_frac >= 0.0 && warmup_frac < 1.0) then
    invalid_arg (Printf.sprintf "%s: warmup_frac %g is not in [0, 1)" who warmup_frac);
  if drain_cap_ns < 0 then
    invalid_arg (Printf.sprintf "%s: drain_cap_ns %d is negative" who drain_cap_ns);
  let warmup_before = int_of_float (warmup_frac *. float_of_int n_requests) in
  { mix; arrival; n_requests; warmup_before; drain_cap_ns; seed }

type 'e t = {
  inputs : inputs;
  sim : 'e Sim.t;
  arrive : 'e;
  end_of_run : 'e;
  master : Rng.t;
  draw : int -> Mix.profile * int;
  mutable ahead : (Mix.profile * int) Prefetch.t option;
  mutable censor : now_ns:int -> unit;
  mutable arrived : int;
  mutable gap : int; (* from the last arrival taken to the next *)
  mutable completed : int;
  mutable ended : bool;
}

let create ({ mix; arrival; n_requests; seed; _ } as inputs) ~sim ~arrive ~end_of_run =
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  (* Arrival [i]'s profile and the gap to arrival [i + 1], if any. It
     closes over these locals, not the record, and [run] hands it to
     [Prefetch.start] under this name, so the lint walks it as a producer
     body. *)
  let draw i =
    let profile = Mix.sample mix service_rng in
    (profile, if i + 1 < n_requests then Arrival.next_gap_ns arrival arrival_rng ~index:i else 0)
  in
  { inputs; sim; arrive; end_of_run; master; draw; ahead = None;
    censor = (fun ~now_ns:_ -> ()); arrived = 0; gap = 0; completed = 0; ended = false }

let master d = d.master
let arrived d = d.arrived
let ended d = d.ended

let take d =
  let i = d.arrived in
  let profile, gap = match d.ahead with None -> d.draw i | Some p -> Prefetch.next p in
  d.arrived <- i + 1;
  d.gap <- gap;
  Request.create ~id:i ~arrival_ns:(Sim.now d.sim) ~profile

let schedule_next d =
  if d.arrived < d.inputs.n_requests then Sim.schedule_after d.sim ~delay:d.gap d.arrive
  else Sim.schedule_after d.sim ~delay:d.inputs.drain_cap_ns d.end_of_run

let end_run d =
  if not d.ended then begin
    d.ended <- true;
    d.censor ~now_ns:(Sim.now d.sim);
    Sim.stop d.sim
  end

let complete d =
  d.completed <- d.completed + 1;
  if d.completed >= d.inputs.n_requests then end_run d

(* A store-backed draw costs 2-4 us; a synthetic one costs less than the
   hand-off to a producer, so those stay inline. *)
let run d ~draw_ahead ~censor body =
  d.censor <- censor;
  if draw_ahead && (not d.inputs.mix.Mix.parallel_safe) && Prefetch.available () then begin
    let draw = d.draw in
    d.ahead <- Some (Prefetch.start ~n:d.inputs.n_requests draw)
  end;
  Sim.schedule_at d.sim ~time:0 d.arrive;
  Fun.protect ~finally:(fun () -> Option.iter Prefetch.stop d.ahead) body

let summarize d metrics ~n_workers =
  let { mix; arrival; _ } = d.inputs in
  Metrics.summarize metrics ~offered_rps:(Arrival.rate_rps arrival)
    ~span_ns:(max 1 (Sim.now d.sim)) ~n_workers
    ~class_names:(Array.map (fun (c : Mix.class_def) -> c.name) mix.Mix.classes)
