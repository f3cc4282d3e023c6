(** Server configuration: which system we are simulating.

    A configuration is the cross product the paper explores — preemption
    mechanism × queue model × dispatcher behaviour × policy — plus the
    hardware cost model. {!Systems} provides the named presets. *)

type queue_model =
  | Single_queue
      (** one physical queue at the dispatcher; synchronous pull-based
          hand-off (Shinjuku, Persephone) *)
  | Jbsq of int
      (** bounded per-worker queues of depth k including the in-service
          request; JBSQ(1) is semantically a single queue (§3.2) *)

type lock_model =
  | Fine_grained
      (** per-request lock windows from the workload profile; preemption is
          deferred only past actual critical sections (Concord's 4-line
          counter, §3.1) *)
  | Whole_request
      (** preemption disabled for the whole handler invocation (the
          Shinjuku prototype's LevelDB integration, §3.1) *)

type t = {
  name : string;
  n_workers : int;
  quantum_ns : int;
  mechanism : Repro_hw.Mechanism.t;  (** worker preemption mechanism *)
  queue_model : queue_model;
  dispatcher_steals : bool;  (** work-conserving dispatcher (§3.3) *)
  policy : Policy.kind;
  lock_model : lock_model;
  ingress_batch : int;
      (** how many queued arrivals the dispatcher admits per ingress
          micro-op; > 1 amortizes per-request cost at a small latency cost
          (the batching trade-off of §6) *)
  costs : Repro_hw.Costs.t;
}

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical combinations (no workers,
    non-positive quantum, JBSQ depth < 1, batch < 1, negative or
    non-finite estimate-noise sigma). *)

val jbsq_depth : t -> int
(** Outstanding-requests bound per worker: k for [Jbsq k], 1 for
    [Single_queue]. *)

val describe : t -> string
(** One-line description for reports. *)
