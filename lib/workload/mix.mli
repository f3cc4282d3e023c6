(** Multi-class workloads: what the server actually consumes.

    A {!t} bundles request classes (GET / SCAN / Payment / …), each with a
    weight and a generator that produces a full per-request profile:
    service time, lock windows (regions where safety-first preemption must
    be deferred, §3.1), and probe spacing (how densely the instrumented
    code polls, §4.3). Synthetic distributions become single-class mixes;
    the kvstore library builds mixes whose profiles come from executing
    real store operations. *)

type profile = {
  class_id : int;
  service_ns : int;  (** un-instrumented service time *)
  lock_windows : (int * int) array;
      (** non-preemptible [start, stop) windows in service-progress ns,
          sorted, non-overlapping *)
  probe_spacing_ns : float;
      (** mean distance between preemption probes in this request's code;
          0 means "use the cost model's default" *)
}

type class_def = {
  name : string;
  weight : float;
  mean_ns : float;  (** mean un-instrumented service time of this class *)
  generate : Repro_engine.Rng.t -> profile;
      (** must fill every profile field except [class_id], which {!sample}
          overwrites with the class index *)
}

type t = {
  name : string;
  classes : class_def array;
  parallel_safe : bool;
      (** whether [generate] closures are safe to call from several domains
          concurrently (and independent of call order). True for pure
          synthetic mixes; false when generators share mutable state, e.g.
          the kvstore-backed mixes, in which case sweeps over this mix must
          run their points sequentially. *)
}

val sample : t -> Repro_engine.Rng.t -> profile
(** Pick a class by weight and generate a request profile. *)

val mean_service_ns : t -> float
(** Weighted mean service time across classes. *)

val class_name : t -> int -> string
(** Name of class [i]. *)

val of_dist : name:string -> Service_dist.t -> t
(** Single-class mix from a plain distribution: no locks, default probes. *)

val of_classes : ?parallel_safe:bool -> name:string -> class_def array -> t
(** Validated multi-class mix (weights positive and finite, at least one
    class; [Invalid_argument] otherwise).
    [parallel_safe] (default true) must be set to false when the class
    generators share mutable state across calls. *)

val simple_class :
  name:string -> weight:float -> dist:Service_dist.t -> class_def
(** Class drawing from [dist] with no lock windows and default probes. *)
