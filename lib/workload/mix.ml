module Rng = Repro_engine.Rng

type profile = {
  class_id : int;
  service_ns : int;
  lock_windows : (int * int) array;
  probe_spacing_ns : float;
}

type class_def = {
  name : string;
  weight : float;
  mean_ns : float;
  generate : Rng.t -> profile;
}

type t = { name : string; classes : class_def array; parallel_safe : bool }

(* Inline weighted pick over the class array. This is [Rng.categorical]
   with the same fold order and float arithmetic (so streams are
   bit-identical), minus the per-sample weights array that the categorical
   API would force us to build. *)
let rec pick_class classes x i acc =
  if i = Array.length classes - 1 then i
  else begin
    let acc = acc +. classes.(i).weight in
    if x < acc then i else pick_class classes x (i + 1) acc
  end

let sample t rng =
  let idx =
    if Array.length t.classes = 1 then 0
    else begin
      let total = Array.fold_left (fun acc c -> acc +. c.weight) 0.0 t.classes in
      if total <= 0.0 then invalid_arg "Mix.sample: weights must sum to a positive value";
      let x = Rng.float rng *. total in
      pick_class t.classes x 0 0.0
    end
  in
  let profile = t.classes.(idx).generate rng in
  if profile.class_id = idx then profile else { profile with class_id = idx }

let mean_service_ns t =
  let total = Array.fold_left (fun acc c -> acc +. c.weight) 0.0 t.classes in
  Array.fold_left (fun acc c -> acc +. (c.weight /. total *. c.mean_ns)) 0.0 t.classes

let class_name t i =
  if i < 0 || i >= Array.length t.classes then invalid_arg "Mix.class_name: bad index";
  t.classes.(i).name

let simple_class ~name ~weight ~dist =
  let generate rng =
    let service_ns = Int.max 1 (int_of_float (Service_dist.sample dist rng)) in
    { class_id = 0; service_ns; lock_windows = [||]; probe_spacing_ns = 0.0 }
  in
  { name; weight; mean_ns = Service_dist.mean_ns dist; generate }

let of_classes ?(parallel_safe = true) ~name classes =
  if Array.length classes = 0 then invalid_arg "Mix.of_classes: no classes";
  Array.iter
    (fun c ->
      if c.weight <= 0.0 then invalid_arg "Mix.of_classes: non-positive weight";
      if not (Float.is_finite c.weight) then
        invalid_arg
          (Printf.sprintf "Mix.of_classes: class %S weight %g is not finite" c.name c.weight))
    classes;
  { name; classes; parallel_safe }

let of_dist ~name dist =
  of_classes ~name [| simple_class ~name:(Service_dist.name dist) ~weight:1.0 ~dist |]
