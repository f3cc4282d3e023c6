module Rng = Repro_engine.Rng

type t = Random | Round_robin | Jsq | Po2c | Jbsq of int

let name = function
  | Random -> "random"
  | Round_robin -> "rr"
  | Jsq -> "jsq"
  | Po2c -> "po2c"
  | Jbsq n -> Printf.sprintf "jbsq:%d" n

let all_names = [ "random"; "rr"; "jsq"; "po2c"; "jbsq:<n>" ]

let validate = function
  | Jbsq n when n < 1 -> Error (Printf.sprintf "policy jbsq:%d: the bound must be >= 1" n)
  | Random | Round_robin | Jsq | Po2c | Jbsq _ -> Ok ()

let of_string s =
  match String.lowercase_ascii s with
  | "random" -> Ok Random
  | "rr" | "round-robin" | "round_robin" -> Ok Round_robin
  | "jsq" -> Ok Jsq
  | "po2c" | "po2" -> Ok Po2c
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "jbsq" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt rest with
      | Some n -> Result.map (fun () -> Jbsq n) (validate (Jbsq n))
      | None -> Error (Printf.sprintf "policy %s: the jbsq bound must be an integer" s))
    | _ ->
      Error
        (Printf.sprintf "unknown policy %S (expected one of: %s)" s
           (String.concat ", " all_names)))

type state = { mutable rr : int; rng : Rng.t }

let make_state ~rng = { rr = 0; rng }

let argmin_view views =
  let best = ref 0 in
  for i = 1 to Array.length views - 1 do
    if views.(i) < views.(!best) then best := i
  done;
  !best

let choose t state ~views =
  let n = Array.length views in
  if n = 0 then invalid_arg "Lb_policy.choose: no servers";
  if n = 1 then begin
    match t with
    | Jbsq bound when views.(0) >= bound -> None
    | _ -> Some 0
  end
  else begin
    match t with
    | Random -> Some (Rng.int state.rng ~bound:n)
    | Round_robin ->
      let i = state.rr in
      state.rr <- (i + 1) mod n;
      Some i
    | Jsq -> Some (argmin_view views)
    | Po2c ->
      (* Two distinct uniform choices; the second draw is over the other
         n - 1 servers so a == b never happens (RackSched samples without
         replacement). *)
      let a = Rng.int state.rng ~bound:n in
      let b =
        let b = Rng.int state.rng ~bound:(n - 1) in
        if b >= a then b + 1 else b
      in
      Some
        (if views.(a) < views.(b) then a
         else if views.(b) < views.(a) then b
           (* On a tie keep the first sample: [a] is already uniform over all
              servers, so tied routing stays unbiased. (Resolving with
              [min a b] skewed every lightly-loaded rack toward low-index
              servers.) *)
         else a)
    | Jbsq bound ->
      let best = ref (-1) in
      Array.iteri
        (fun i v -> if v < bound && (!best < 0 || v < views.(!best)) then best := i)
        views;
      if !best < 0 then None else Some !best
  end
