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
(** The store's key for index [i]: [Printf.sprintf "user%08d" i]. Raises
    [Invalid_argument] if [i < 0]. *)

val value_of_index : value_bytes:int -> int -> string
(** The [value_bytes]-byte value {!populate} and the PUT generator store
    under [key_of_index i], for [i >= 0]: byte [j] is
    [Char.chr (33 + ((i + 7 * j) mod 94))]. So values of one length repeat
    with period 94 in [i], and a store holds 94 value strings per length,
    each shared by all the keys it is the value of. Raises
    [Invalid_argument] when [value_bytes] is negative. *)

val populate :
  ?n_keys:int -> ?value_bytes:int -> seed:int -> unit -> Store.t
(** A store pre-loaded with the keys [key_of_index i] for [i] below
    [n_keys] (default 15 000), each carrying its [value_bytes]-byte
    (default 100) {!value_of_index} — the paper's LevelDB setup. The keys
    are loaded in index order, which is key order, through
    {!Store.load_sorted}. Raises [Invalid_argument] when [n_keys] is
    outside [0, 10^8] (past 10^8 keys grow a ninth digit and stop sorting
    by index) or [value_bytes] is negative. *)

val get_scan_mix : ?zipf_alpha:float -> Store.t -> seed:int -> Repro_workload.Mix.t
(** 50 % GET / 50 % full SCAN — Fig. 9's workload. Keys are uniform by
    default; [zipf_alpha > 0] draws them Zipfian (rank 0 hottest), matching
    skewed production traffic. Raises [Invalid_argument] when [zipf_alpha]
    is negative or NaN. *)

val zippydb_mix : ?zipf_alpha:float -> Store.t -> seed:int -> Repro_workload.Mix.t
(** 78 % GET / 13 % PUT / 6 % DELETE / 3 % SCAN — Fig. 10's workload,
    after Meta's ZippyDB traces. Writes mutate the live store.
    [zipf_alpha] as in {!get_scan_mix}. *)

val measured_means : Store.t -> seed:int -> (string * float) list
(** Mean metered service time (ns) of each operation class against the
    given store, measured by running real operations — used for reports and
    calibration tests. *)
