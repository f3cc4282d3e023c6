(** Write-ahead log: LevelDB's durability path.

    Every store write appends an encoded, checksummed record before
    touching the memtable (the cost the meter charges as [wal_append]).
    This module implements the log for real — byte encoding, CRC-32,
    truncated/corrupt-tail handling — so crash recovery can be tested as
    behaviour rather than assumed: {!Store.crash_recover} rebuilds the
    memtable by replaying this log.

    Record layout (little-endian lengths):
    [crc32 (4B) | key_len (4B) | key | tag (1B: 0=value, 1=tombstone) |
    val_len (4B) | value], where the CRC covers everything after itself.
    The layout is fixed: [test_wal.ml] compares every byte of the log
    with a reference encoder that assembles each record in a payload
    buffer and checksums it a byte at a time. {!append} writes each piece
    straight into the log instead, and the CRC reads the payload where it
    lies, with no copy. The log holds its records in 4 KiB chunks
    (a larger record gets a chunk of its own size), and a record never
    spans two, so a growing log is never copied into a larger buffer;
    {!contents} joins the chunks. *)

(** CRC-32 (IEEE 802.3, reflected), written here with no library: a byte
    at a time through one 256-entry table, built when the module loads. *)
module Crc32 : sig
  val digest : string -> int32
  (** Checksum of a whole string. *)

  val update : int32 -> string -> int32
  (** Incremental: feed more bytes into a running checksum. *)
end

type t

val create : unit -> t

val append : t -> key:string -> entry:Skiplist.entry -> unit
(** Encode and append one record. *)

val byte_size : t -> int
(** Encoded size of the log in bytes. *)

val record_count : t -> int

val replay : t -> (string * Skiplist.entry) list
(** Decode all intact records in append order. A torn or corrupt tail
    (e.g. from a crash mid-append) terminates the replay silently, exactly
    as LevelDB treats a truncated log — records before it are returned. *)

val truncate : t -> unit
(** Drop the log (after a successful memtable flush). *)

val corrupt_tail : t -> unit
(** Testing hook: flip a byte in the final record's payload, simulating a
    torn write. No-op on an empty log. *)

val contents : t -> string
(** Raw encoded bytes (for tests). *)
