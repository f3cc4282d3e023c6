module Histogram = Repro_engine.Histogram

type t =
  | Off
  | Fixed of { delay_ns : int }
  | Percentile of { pct : float }
  | Adaptive of { budget : float }

let name = function
  | Off -> "off"
  | Fixed { delay_ns } -> Printf.sprintf "fixed:%d" delay_ns
  | Percentile { pct } -> Printf.sprintf "pct:%g" pct
  | Adaptive { budget } -> Printf.sprintf "adaptive:%g" budget

let all_names = [ "off"; "fixed:<ns>"; "pct:<p>"; "adaptive:<budget>" ]

let out_of_range t what = Error (Printf.sprintf "hedge %s: %s" (name t) what)

(* The one range check: the parser and every constructor of a hedged
   tier run it, so a value no spec string could produce is refused too. *)
let validate t =
  match t with
  | Fixed { delay_ns } when delay_ns < 0 ->
    out_of_range t "the delay must be a non-negative ns count"
  | Percentile { pct } when not (pct > 0.0 && pct < 100.0) ->
    out_of_range t "the percentile must be in (0, 100)"
  | Adaptive { budget } when not (budget > 0.0 && budget <= 1.0) ->
    out_of_range t "the budget must be a duplicate fraction in (0, 1]"
  | Off | Fixed _ | Percentile _ | Adaptive _ -> Ok ()

let of_string s =
  let s = String.lowercase_ascii s in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let number what parse rest make =
    match parse rest with
    | Some v ->
      let t = make v in
      Result.map (fun () -> t) (validate t)
    | None -> err "hedge spec %S: the argument must be %s" s what
  in
  match s with
  | "off" | "none" -> Ok Off
  | _ -> (
    match String.index_opt s ':' with
    | Some i -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.sub s 0 i with
      | "fixed" ->
        number "a whole ns count" int_of_string_opt rest (fun d -> Fixed { delay_ns = d })
      | "pct" -> number "a number" float_of_string_opt rest (fun p -> Percentile { pct = p })
      | "adaptive" ->
        number "a number" float_of_string_opt rest (fun b -> Adaptive { budget = b })
      | k -> err "unknown hedge policy %S (expected one of: %s)" k (String.concat ", " all_names))
    | None ->
      err "unknown hedge spec %S (expected one of: %s)" s (String.concat ", " all_names))

(* The online estimator behind pct/adaptive delays: a log-bucketed
   histogram of completed end-to-end slowdowns (sojourn normalized by each
   request's own service demand, in milli-units). Normalizing matters on
   bimodal mixes: an absolute p99-sojourn trigger can only ever fire for
   the longest request class — a short request's whole tail plays out in
   microseconds, long before any absolute tail-of-all-sojourns delay
   elapses. Tracking slowdown lets the trigger scale to the request at
   hand, which is also the percentile the paper's SLO is stated in.
   Percentile queries cost O(1) memory and bound the relative error, which
   is all a hedging trigger needs. *)
type estimator = Histogram.t

let slowdown_unit = 1000

(* Below this sample count the percentile estimate is noise; pct/adaptive
   hedging stays off until the estimator has warmed up (the Tail-at-Scale
   deployments bootstrap the same way). *)
let min_samples = 16

let make_estimator () = Histogram.create ()

let observe est ~sojourn_ns ~service_ns =
  Histogram.record est (max 0 (sojourn_ns * slowdown_unit / max 1 service_ns))

(* Adaptive hedging fires a little ahead of the SLO tail (p97): early
   enough to rescue stragglers well before they reach the p99 threshold,
   while the explicit budget — not the trigger — caps the duplicate rate.
   Firing much earlier floods the budget with false positives; firing at
   the SLO percentile itself leaves rescue margin on the table. *)
let adaptive_pct = 97.0

(* Deadline-aware arming: the goal of pct:P is to keep the request's
   slowdown at or under the observed P-th percentile, so the duplicate must
   be issued [lead_ns] (wire + its own expected completion) BEFORE that
   threshold, not at it — a backup that merely starts at the tail
   percentile can only ever improve the percentiles beyond P. Two guards
   keep that from degenerating into hedge-everything: the fire time must
   not come before [lead_ns] itself (an unqueued primary needs exactly that
   long, so earlier firing targets requests that are not yet observably
   late), and if the window [lead_ns, deadline - lead_ns] is empty the
   deadline is infeasible for any duplicate and we do not hedge at all. *)
let scaled est pct ~estimate_ns ~lead_ns =
  if Histogram.count est < min_samples then None
  else
    let deadline = Histogram.percentile est pct * max 1 estimate_ns / slowdown_unit in
    let fire = deadline - lead_ns in
    if fire < lead_ns then None else Some fire

let delay_ns t est ~estimate_ns ~lead_ns =
  match t with
  | Off -> None
  | Fixed { delay_ns } -> Some delay_ns
  | Percentile { pct } -> scaled est pct ~estimate_ns ~lead_ns
  | Adaptive _ -> scaled est adaptive_pct ~estimate_ns ~lead_ns

let within_budget t ~hedges ~primaries =
  match t with
  | Off -> false
  | Fixed _ | Percentile _ -> true
  | Adaptive { budget } -> float_of_int (hedges + 1) <= budget *. float_of_int (max 1 primaries)
