type queue_model = Single_queue | Jbsq of int

type lock_model = Fine_grained | Whole_request

type t = {
  name : string;
  n_workers : int;
  quantum_ns : int;
  mechanism : Repro_hw.Mechanism.t;
  queue_model : queue_model;
  dispatcher_steals : bool;
  policy : Policy.kind;
  lock_model : lock_model;
  ingress_batch : int;
  costs : Repro_hw.Costs.t;
}

let validate t =
  if t.n_workers < 1 then invalid_arg "Config: need at least one worker";
  if t.quantum_ns < 1 then invalid_arg "Config: quantum must be positive";
  if t.ingress_batch < 1 then invalid_arg "Config: ingress batch must be >= 1";
  (match t.policy with
  | Policy.Srpt_noisy { sigma } ->
    if not (Float.is_finite sigma) || sigma < 0.0 then
      invalid_arg "Config: srpt-noisy sigma must be finite and >= 0"
  | Policy.Srpt_kv { means_ns } ->
    if Array.length means_ns = 0 then
      invalid_arg "Config: srpt-kv needs at least one per-class mean";
    Array.iter
      (fun m -> if m < 1 then invalid_arg "Config: srpt-kv class means must be >= 1ns")
      means_ns
  | Policy.Fcfs | Policy.Srpt | Policy.Gittins _ | Policy.Locality_fcfs -> ());
  match t.queue_model with
  | Jbsq k when k < 1 -> invalid_arg "Config: JBSQ depth must be >= 1"
  | Jbsq _ | Single_queue -> ()

let jbsq_depth t = match t.queue_model with Single_queue -> 1 | Jbsq k -> k

let describe t =
  let queue =
    match t.queue_model with Single_queue -> "SQ" | Jbsq k -> Printf.sprintf "JBSQ(%d)" k
  in
  Printf.sprintf "%s: %d workers, q=%.1fus, %s, %s%s, policy=%s" t.name t.n_workers
    (float_of_int t.quantum_ns /. 1e3)
    (Repro_hw.Mechanism.name t.mechanism)
    queue
    (if t.dispatcher_steals then "+steal" else "")
    (Policy.kind_name t.policy)
