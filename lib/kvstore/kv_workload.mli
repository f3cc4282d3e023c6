(** LevelDB-backed workload mixes (§5.3).

    Each request profile is produced by executing a real operation against
    a live {!Store}: GETs and writes run fully metered; SCAN service times
    use the store's closed-form estimate (validated against real metered
    walks in the tests) plus the real snapshot lock window, because
    generating hundreds of thousands of 15 000-entry walks would dominate
    simulation time rather than simulated time.

    Probe spacing: GETs/PUTs are short, straight-line code probed at
    function granularity (the cost model's default ≈100 ns). SCAN bodies
    are tight loops the Concord compiler unrolls to ≥200 IR instructions
    (§4.3), which lands a probe roughly every ≈230 ns of scan work. *)

val scan_probe_spacing_ns : float

val key_of_index : int -> string
(** The store's key for index [i]: [Printf.sprintf "user%08d" i]. *)

val populate :
  ?n_keys:int -> ?value_bytes:int -> seed:int -> unit -> Store.t
(** A store pre-loaded with [n_keys] (default 15 000) unique keys carrying
    [value_bytes] (default 100) values — the paper's LevelDB setup. *)

val get_scan_mix : ?zipf_alpha:float -> Store.t -> seed:int -> Repro_workload.Mix.t
(** 50 % GET / 50 % full SCAN — Fig. 9's workload. Keys are uniform by
    default; [zipf_alpha > 0] draws them Zipfian (rank 0 hottest), matching
    skewed production traffic. *)

val zippydb_mix : ?zipf_alpha:float -> Store.t -> seed:int -> Repro_workload.Mix.t
(** 78 % GET / 13 % PUT / 6 % DELETE / 3 % SCAN — Fig. 10's workload,
    after Meta's ZippyDB traces. Writes mutate the live store.
    [zipf_alpha] as in {!get_scan_mix}. *)

val measured_means : Store.t -> seed:int -> (string * float) list
(** Mean metered service time (ns) of each operation class against the
    given store, measured by running real operations — used for reports and
    calibration tests. *)
