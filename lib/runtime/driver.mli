(** The frame of one open-loop run (§5.1), shared by {!Server},
    {!Sls_server}, the rack balancer and the Raft group. The host keeps its
    routing, injection and censoring, and makes each call below where its
    model puts it. *)

type inputs = private {
  mix : Repro_workload.Mix.t;
  arrival : Repro_workload.Arrival.t;
  n_requests : int;
  warmup_before : int;  (** requests with a lower id are not measured *)
  drain_cap_ns : int;
  seed : int;
}

val check :
  who:string -> mix:Repro_workload.Mix.t -> arrival:Repro_workload.Arrival.t -> n_requests:int ->
  ?warmup_frac:float -> ?drain_cap_ns:int -> ?seed:int -> unit -> inputs
(** Defaults: [warmup_frac] 0.1, [drain_cap_ns] 400 ms, [seed] 42. Raises
    [Invalid_argument] naming [who] unless [n_requests >= 1], the rate is
    usable ({!Repro_workload.Arrival.validate}), [0 <= warmup_frac < 1]
    and [drain_cap_ns >= 0]. *)

type 'e t

val create : inputs -> sim:'e Repro_engine.Sim.t -> arrive:'e -> end_of_run:'e -> 'e t
(** Splits the arrival stream, then the service stream, off the master.
    The host's handler answers [arrive] with {!take} and {!schedule_next},
    and [end_of_run] with {!end_run}. *)

val master : 'e t -> Repro_engine.Rng.t
(** The master past those two splits, for the host's own streams. *)

val arrived : 'e t -> int
val ended : 'e t -> bool

val take : 'e t -> Request.t
(** The next arrival, numbered from 0, arriving now. *)

val schedule_next : 'e t -> unit
(** The next arrival, or after the last the end of run, [drain_cap_ns] on. *)

val complete : 'e t -> unit
(** Count a completed arrival; the last one ends the run. *)

val end_run : 'e t -> unit

val run : 'e t -> draw_ahead:bool -> censor:(now_ns:int -> unit) -> (unit -> 'a) -> 'a
(** Schedule the first arrival at time 0 and run [body], the host's
    engine. The run ends once: [censor] at that time, then the clock
    stops. With [draw_ahead], a mix that is not [parallel_safe] is drawn
    on a {!Repro_engine.Prefetch} producer when one is available; it owns
    the mix and both streams until [body] exits and draws what the inline
    path would. *)

val summarize : 'e t -> Metrics.t -> n_workers:int -> Metrics.summary
(** [metrics] over the run: the arrival process's offered load, the mix's
    class names, and the span from time 0 to the end of the run. *)
