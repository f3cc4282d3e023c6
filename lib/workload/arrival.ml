module Rng = Repro_engine.Rng

type t =
  | Poisson of { rate_rps : float }
  | Uniform of { rate_rps : float }
  | Burst_poisson of { rate_rps : float; burst : int }
  | Diurnal of { rate_rps : float; amplitude : float; period_s : float }
  | Mmpp of { rate_rps : float; burst_factor : float; cycle : int; duty : float }

let rate_rps = function
  | Poisson { rate_rps }
  | Uniform { rate_rps }
  | Burst_poisson { rate_rps; _ }
  | Diurnal { rate_rps; _ }
  | Mmpp { rate_rps; _ } ->
    rate_rps

(* [int_of_float] turns a NaN gap, or one too large for an [int], into 0:
   a NaN or tiny rate would land every arrival at t=0. The gap is in range
   exactly when the rate is finite and > 0 and the gap fits: NaN fails both
   tests, 0 and tiny rates give an infinite or huge gap, infinite and
   negative rates a gap <= 0. *)
let mean_gap_ns rate =
  let gap = 1e9 /. rate in
  if not (gap > 0.0 && gap < Float.of_int max_int) then
    invalid_arg
      (Printf.sprintf
         "Arrival: rate %g rps is unusable: it must be finite and > 0, with a mean gap that \
          fits in int ns"
         rate);
  gap

let validate t = ignore (mean_gap_ns (rate_rps t) : float)

(* Round to nearest, not truncate: flooring every exponential gap drops
   half a nanosecond on average, so the realized rate sits measurably
   above nominal exactly at the high loads the sweeps probe. *)
let round_gap x = int_of_float (Float.round x)

let two_pi = 2.0 *. Float.pi

(* MMPP duty split: the first [on] arrivals of every cycle come at the
   burst rate, the rest at whatever off-rate keeps the long-run average
   exactly [rate_rps]. Index-driven (not time-driven) phase switching keeps
   the process deterministic per arrival count and trivially seekable. *)
let mmpp_gaps ~rate_rps ~burst_factor ~cycle ~duty =
  if burst_factor <= 1.0 then invalid_arg "Arrival: mmpp burst_factor must be > 1";
  if cycle < 2 then invalid_arg "Arrival: mmpp cycle must be >= 2";
  if duty <= 0.0 || duty >= 1.0 then invalid_arg "Arrival: mmpp duty must be in (0, 1)";
  let mean = mean_gap_ns rate_rps in
  let on = max 1 (int_of_float (Float.round (duty *. float_of_int cycle))) in
  let on = min on (cycle - 1) in
  let duty_real = float_of_int on /. float_of_int cycle in
  let gap_on = mean /. burst_factor in
  (* Solve duty_real * gap_on + (1 - duty_real) * gap_off = mean; positive
     whenever burst_factor > 1. *)
  let gap_off = (mean -. (duty_real *. gap_on)) /. (1.0 -. duty_real) in
  (on, gap_on, gap_off)

let next_gap_ns t rng ~index =
  match t with
  | Poisson { rate_rps } -> round_gap (Rng.exponential rng ~mean:(mean_gap_ns rate_rps))
  | Uniform { rate_rps } -> round_gap (mean_gap_ns rate_rps)
  | Burst_poisson { rate_rps; burst } ->
    if burst < 1 then invalid_arg "Arrival: burst must be >= 1";
    if (index + 1) mod burst <> 0 then 0
    else round_gap (Rng.exponential rng ~mean:(mean_gap_ns rate_rps *. float_of_int burst))
  | Diurnal { rate_rps; amplitude; period_s } ->
    if amplitude < 0.0 || amplitude >= 1.0 then
      invalid_arg "Arrival: diurnal amplitude must be in [0, 1)";
    if period_s <= 0.0 then invalid_arg "Arrival: diurnal period must be positive";
    (* A slow sinusoidal ramp over the mean rate — the day/night envelope of
       "millions of users" traffic, compressed to whatever period the run
       can afford. Phase advances with expected elapsed time (index x mean
       gap), keeping the generator stateless and seekable. The sqrt factor
       is the Jensen correction: gaps are drawn as 1/rate(phase), and over
       a full cycle E[1/(1 + a sin)] = 1/sqrt(1 - a^2) > 1, so the raw
       envelope would realize only sqrt(1 - a^2) of the nominal load (60%
       at a = 0.8). Scaling the instantaneous rate keeps the peak/trough
       ratio and makes the long-run average exactly [rate_rps]. *)
    let mean = mean_gap_ns rate_rps in
    let phase = two_pi *. float_of_int index *. mean /. (period_s *. 1e9) in
    let norm = sqrt (1.0 -. (amplitude *. amplitude)) in
    let rate_now = rate_rps *. (1.0 +. (amplitude *. sin phase)) /. norm in
    round_gap (Rng.exponential rng ~mean:(mean_gap_ns rate_now))
  | Mmpp { rate_rps; burst_factor; cycle; duty } ->
    (* Markov-modulated Poisson process, discretized per arrival: a two-state
       switched Poisson whose ON state fires [burst_factor] times faster.
       Long-run rate is exactly [rate_rps] by construction. *)
    let on, gap_on, gap_off = mmpp_gaps ~rate_rps ~burst_factor ~cycle ~duty in
    let pos = index mod cycle in
    let mean = if pos < on then gap_on else gap_off in
    round_gap (Rng.exponential rng ~mean)

let name = function
  | Poisson { rate_rps } -> Printf.sprintf "Poisson(%.0f rps)" rate_rps
  | Uniform { rate_rps } -> Printf.sprintf "Uniform(%.0f rps)" rate_rps
  | Burst_poisson { rate_rps; burst } ->
    Printf.sprintf "BurstPoisson(%.0f rps, burst=%d)" rate_rps burst
  | Diurnal { rate_rps; amplitude; period_s } ->
    Printf.sprintf "Diurnal(%.0f rps, amp=%.2f, period=%.3fs)" rate_rps amplitude period_s
  | Mmpp { rate_rps; burst_factor; cycle; duty } ->
    Printf.sprintf "MMPP(%.0f rps, x%.1f, cycle=%d, duty=%.2f)" rate_rps burst_factor cycle
      duty

let with_rate t rate =
  match t with
  | Poisson _ -> Poisson { rate_rps = rate }
  | Uniform _ -> Uniform { rate_rps = rate }
  | Burst_poisson { burst; _ } -> Burst_poisson { rate_rps = rate; burst }
  | Diurnal { amplitude; period_s; _ } -> Diurnal { rate_rps = rate; amplitude; period_s }
  | Mmpp { burst_factor; cycle; duty; _ } -> Mmpp { rate_rps = rate; burst_factor; cycle; duty }

let of_spec spec ~rate_rps =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parts = String.split_on_char ':' (String.lowercase_ascii spec) in
  match parts with
  | [ "poisson" ] -> Ok (Poisson { rate_rps })
  | [ "uniform" ] -> Ok (Uniform { rate_rps })
  | [ "burst"; b ] -> (
    match int_of_string_opt b with
    | Some burst when burst >= 1 -> Ok (Burst_poisson { rate_rps; burst })
    | _ -> err "burst size must be a positive integer, got %S" b)
  | [ "diurnal"; amp; period ] -> (
    match (float_of_string_opt amp, float_of_string_opt period) with
    | Some amplitude, Some period_s when amplitude >= 0.0 && amplitude < 1.0 && period_s > 0.0
      ->
      Ok (Diurnal { rate_rps; amplitude; period_s })
    | _ -> err "diurnal needs AMP in [0,1) and PERIOD_S > 0, got %S:%S" amp period)
  | [ "mmpp"; factor; cycle; duty ] -> (
    match (float_of_string_opt factor, int_of_string_opt cycle, float_of_string_opt duty) with
    | Some burst_factor, Some cycle, Some duty
      when burst_factor > 1.0 && cycle >= 2 && duty > 0.0 && duty < 1.0 ->
      Ok (Mmpp { rate_rps; burst_factor; cycle; duty })
    | _ -> err "mmpp needs FACTOR > 1, CYCLE >= 2, DUTY in (0,1), got %S:%S:%S" factor cycle duty)
  | _ ->
    err
      "unknown arrival spec %S (expected poisson | uniform | burst:N | diurnal:AMP:PERIOD_S | \
       mmpp:FACTOR:CYCLE:DUTY)"
      spec
