module Crc32 = struct
  (* Standard reflected CRC-32 (polynomial 0xEDB88320), table-driven, a
     byte at a time. The register is a native int holding the 32-bit value
     (an [int32] would be boxed on every byte); only the result is
     converted back. The table is built when the module loads. *)
  let mask = 0xFFFF_FFFF

  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)

  (* The inverted register [c] fed bytes [pos .. pos + len - 1] of [b],
     which the caller keeps inside [b]. *)
  let feed c b ~pos ~len =
    let c = ref c in
    for i = pos to pos + len - 1 do
      c :=
        Array.unsafe_get table ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
        lxor (!c lsr 8)
    done;
    !c

  (* The checksum of bytes [pos .. pos + len - 1] of [b], unboxed. *)
  let sub b ~pos ~len = lnot (feed mask b ~pos ~len) land mask

  let update crc s =
    let c =
      feed (lnot (Int32.to_int crc) land mask) (Bytes.unsafe_of_string s) ~pos:0
        ~len:(String.length s)
    in
    Int32.of_int (lnot c land mask)

  let digest s = update 0l s
end

(* The log is a run of chunks of [chunk_bytes] (one record larger than
   that gets a chunk of its own size), each holding whole records: the
   current chunk [cur], filled to [len], after the [sealed] ones (newest
   first, each with the length it was filled to). A full chunk is sealed,
   not copied into a larger one, so a growing log leaves no garbage behind
   it. *)
type t = {
  mutable cur : Bytes.t;
  mutable len : int;
  mutable sealed : (Bytes.t * int) list;
  mutable sealed_bytes : int;
  mutable count : int;
}

let chunk_bytes = 4096

let create () =
  { cur = Bytes.create chunk_bytes; len = 0; sealed = []; sealed_bytes = 0; count = 0 }

let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

(* Room for a record of [size] bytes at [t.len] in [t.cur]. *)
let reserve t size =
  if t.len + size > Bytes.length t.cur then begin
    if t.len > 0 then begin
      t.sealed <- (t.cur, t.len) :: t.sealed;
      t.sealed_bytes <- t.sealed_bytes + t.len
    end;
    t.cur <- Bytes.create (Int.max chunk_bytes size);
    t.len <- 0
  end

(* Each piece goes straight to its place in the log; the checksum then
   reads the payload where it lies and fills the four bytes kept for it. *)
let append t ~key ~entry =
  let klen = String.length key in
  let value = match entry with Skiplist.Value v -> v | Skiplist.Tombstone -> "" in
  let vlen = String.length value in
  let size = 4 + 4 + klen + 1 + 4 + vlen in
  reserve t size;
  let b = t.cur and off = t.len in
  put_u32 b (off + 4) klen;
  Bytes.blit_string key 0 b (off + 8) klen;
  Bytes.set b (off + 8 + klen)
    (match entry with Skiplist.Value _ -> '\000' | Skiplist.Tombstone -> '\001');
  put_u32 b (off + 9 + klen) vlen;
  Bytes.blit_string value 0 b (off + 13 + klen) vlen;
  put_u32 b off (Crc32.sub b ~pos:(off + 4) ~len:(size - 4));
  t.len <- off + size;
  t.count <- t.count + 1

let byte_size t = t.sealed_bytes + t.len
let record_count t = t.count

(* The chunks oldest first, each with the length it holds. *)
let chunks t = List.rev ((t.cur, t.len) :: t.sealed)

let replay t =
  (* The records of chunk [s], filled to [len], from [off] onto [acc]; a
     torn or corrupt record sets [torn], which ends the replay there. *)
  let torn = ref false in
  let rec decode s len off acc =
    let stop () =
      torn := true;
      acc
    in
    if off = len then acc
    else if off + 8 > len then stop ()
    else begin
      let stored_crc = get_u32 s off in
      let off = off + 4 in
      let key_len = get_u32 s off in
      if off + 4 + key_len + 1 + 4 > len then stop ()
      else begin
        let key = Bytes.sub_string s (off + 4) key_len in
        let tag_off = off + 4 + key_len in
        let tag = Bytes.get s tag_off in
        let val_len = get_u32 s (tag_off + 1) in
        let val_off = tag_off + 1 + 4 in
        if val_off + val_len > len then stop ()
        else if Crc32.sub s ~pos:off ~len:(val_off + val_len - off) <> stored_crc then stop ()
        else begin
          let entry =
            match tag with
            | '\000' -> Skiplist.Value (Bytes.sub_string s val_off val_len)
            | '\001' | _ -> Skiplist.Tombstone
          in
          decode s len (val_off + val_len) ((key, entry) :: acc)
        end
      end
    end
  in
  List.rev
    (List.fold_left (fun acc (s, len) -> if !torn then acc else decode s len 0 acc) [] (chunks t))

(* The log keeps its current chunk for the next records. *)
let truncate t =
  t.len <- 0;
  t.sealed <- [];
  t.sealed_bytes <- 0;
  t.count <- 0

(* Only a chunk holding records is sealed, and only for a record that
   then goes into [cur], so the log's last byte is in [cur]. *)
let corrupt_tail t =
  if t.len > 0 then begin
    let pos = t.len - 1 in
    Bytes.set t.cur pos (Char.chr (Char.code (Bytes.get t.cur pos) lxor 0x5A))
  end

let contents t = String.concat "" (List.map (fun (s, len) -> Bytes.sub_string s 0 len) (chunks t))
