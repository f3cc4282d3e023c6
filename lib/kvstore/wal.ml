module Crc32 = struct
  (* Standard reflected CRC-32 (polynomial 0xEDB88320), table-driven. The
     register is a native int holding the 32-bit value (an [int32] would be
     boxed on every byte); only the result is converted back. *)
  let mask = 0xFFFF_FFFF

  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
           done;
           !c))

  let update crc s =
    let table = Lazy.force table in
    let c = ref (lnot (Int32.to_int crc) land mask) in
    for i = 0 to String.length s - 1 do
      c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!c lsr 8)
    done;
    Int32.of_int (lnot !c land mask)

  let digest s = update 0l s
end

type t = { mutable buf : Buffer.t; mutable count : int }

let create () = { buf = Buffer.create 4096; count = 0 }

let put_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let encode_payload ~key ~entry =
  let payload = Buffer.create (String.length key + 16) in
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
  Buffer.contents payload

let append t ~key ~entry =
  let payload = encode_payload ~key ~entry in
  put_u32 t.buf (Int32.to_int (Crc32.digest payload) land 0xFFFFFFFF);
  Buffer.add_string t.buf payload;
  t.count <- t.count + 1

let byte_size t = Buffer.length t.buf
let record_count t = t.count

let replay t =
  let s = Buffer.contents t.buf in
  let len = String.length s in
  let rec decode off acc =
    if off + 4 > len then List.rev acc
    else begin
      let stored_crc = get_u32 s off in
      let off = off + 4 in
      if off + 4 > len then List.rev acc
      else begin
        let key_len = get_u32 s off in
        if key_len < 0 || off + 4 + key_len + 1 + 4 > len then List.rev acc
        else begin
          let key = String.sub s (off + 4) key_len in
          let tag_off = off + 4 + key_len in
          let tag = s.[tag_off] in
          let val_len = get_u32 s (tag_off + 1) in
          let val_off = tag_off + 1 + 4 in
          if val_len < 0 || val_off + val_len > len then List.rev acc
          else begin
            let payload = String.sub s off (4 + key_len + 1 + 4 + val_len) in
            if Int32.to_int (Crc32.digest payload) land 0xFFFFFFFF <> stored_crc then
              List.rev acc (* corrupt record: stop, keep the intact prefix *)
            else begin
              let entry =
                match tag with
                | '\000' -> Skiplist.Value (String.sub s val_off val_len)
                | '\001' | _ -> Skiplist.Tombstone
              in
              decode (val_off + val_len) ((key, entry) :: acc)
            end
          end
        end
      end
    end
  in
  decode 0 []

let truncate t =
  t.buf <- Buffer.create 4096;
  t.count <- 0

let corrupt_tail t =
  let s = Buffer.to_bytes t.buf in
  let len = Bytes.length s in
  if len > 0 then begin
    let pos = len - 1 in
    Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x5A));
    t.buf <- Buffer.create (len + 64);
    Buffer.add_bytes t.buf s
  end

let contents t = Buffer.contents t.buf
