(** A LevelDB-like in-memory key-value store with metered operations.

    Architecture mirrors LevelDB's in-memory setup from the paper (§5.3):
    a skip-list memtable absorbs writes (guarded by a mutex and preceded by
    a write-ahead-log append), immutable plain tables serve reads, scans
    merge the two under a snapshot, and a background compaction (unmetered,
    as LevelDB's happens off the request path) folds the memtable into the
    table set when it grows past a threshold.

    Every public operation returns an {!outcome}: the real result plus the
    simulated service time and mutex-hold windows that the scheduling
    runtime needs. *)

type t

type outcome = {
  found : string option;  (** [get]: the value; writes/scans: [None] *)
  scanned : int;  (** [scan]: number of live entries visited *)
  service_ns : int;
  lock_windows : (int * int) array;
}

val create : ?flush_threshold:int -> seed:int -> unit -> t
(** [flush_threshold] (default 4096): memtable entries that trigger a minor
    flush into a new table, which keeps its tombstones; past four tables a
    full {!compact} folds them into one (LevelDB's leveled compaction in
    two tiers). Both are unmetered. Raises [Invalid_argument] when
    [flush_threshold] is below 1. *)

val load : t -> (string * string) list -> unit
(** Bulk-load initial data, unmetered: the pairs (the last value per key
    winning) merge over everything the store held into a single table,
    exactly as inserting each into the memtable and then {!compact}ing
    would leave it, the store's RNG included. The pairs are sorted by key
    and deduplicated, then loaded by {!load_sorted}. *)

val load_sorted : t -> keys:string array -> entries:Skiplist.entry array -> unit
(** {!load} of [entries.(i)] under [keys.(i)], the keys already strictly
    ascending, without sorting, copying or boxing: the new table keeps both
    arrays (do not change them afterwards), so entries may share a
    [Skiplist.Value] box; a [Tombstone] deletes its key. Raises
    [Invalid_argument], leaving the store unchanged, when the keys are
    unsorted or repeat or the arrays differ in length. *)

val population : t -> int
(** Number of distinct keys ever inserted and not shadowed by a tombstone
    (live keys). O(1) after a load or a compaction; otherwise one unmetered
    pass of {!scan}'s merge walk, kept until a write or {!crash_recover}. *)

val total_entries : t -> int
(** Entries a full scan will visit (live + tombstones), across memtable and
    tables, before merging duplicates. *)

val get : t -> key:string -> outcome
val put : t -> key:string -> value:string -> outcome
val delete : t -> key:string -> outcome

val scan : t -> outcome
(** Full-database range query: merge-walk every source under a snapshot,
    charging per entry. This is the paper's ≈500 µs SCAN. *)

val scan_estimate_ns : t -> int
(** Closed-form estimate of [scan]'s service time from the current source
    sizes — used by high-volume workload generation so that building a
    million request profiles does not require a million real 15 000-entry
    walks. Tests assert it tracks {!scan} within a few percent. *)

val compact : t -> unit
(** Force the full background compaction immediately (unmetered): every
    table and the memtable merge into one, tombstones drop, and the
    write-ahead log truncates. *)

val wal : t -> Wal.t
(** The live write-ahead log covering the current memtable. *)

val crash_recover : t -> unit
(** Simulate a crash and recovery: discard the (volatile) memtable and
    rebuild it by replaying the write-ahead log, LevelDB-style. Writes
    since the last {!compact} survive via the log; a torn log tail loses
    only the torn record. Unmetered. *)
