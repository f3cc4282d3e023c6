module Rng = Repro_engine.Rng

type t = {
  meter : Cost_meter.t;
  rng : Rng.t;
  mutable memtable : Skiplist.t;
  mutable tables : Plain_table.t list; (* newest first *)
  live_keys : (string, unit) Hashtbl.t; (* shadow index for bookkeeping only *)
  wal : Wal.t; (* covers the current memtable; truncated on flush *)
  flush_threshold : int;
}

type outcome = {
  found : string option;
  scanned : int;
  service_ns : int;
  lock_windows : (int * int) array;
}

let create ?(flush_threshold = 4096) ~seed () =
  let rng = Rng.create ~seed in
  {
    meter = Cost_meter.create ();
    rng;
    memtable = Skiplist.create ~rng ();
    tables = [];
    live_keys = Hashtbl.create 4096;
    wal = Wal.create ();
    flush_threshold;
  }

let population t = Hashtbl.length t.live_keys

let total_entries t =
  Skiplist.length t.memtable
  + List.fold_left (fun acc table -> acc + Plain_table.length table) 0 t.tables

(* The memtable's entries as a table, in key order. *)
let memtable_table t =
  let n = Skiplist.length t.memtable in
  let keys = Array.make n "" and vals = Array.make n Skiplist.Tombstone in
  let (_ : int) =
    Skiplist.fold t.memtable ~init:0 ~f:(fun i k e ->
        keys.(i) <- k;
        vals.(i) <- e;
        i + 1)
  in
  Plain_table.of_sorted ~keys ~vals

(* Two tables merged into one, [newer] winning a key both hold. *)
let merge_newer newer older =
  let n1 = Plain_table.length newer and n2 = Plain_table.length older in
  if n2 = 0 then newer
  else if n1 = 0 then older
  else begin
    let k1 = Plain_table.keys newer and v1 = Plain_table.vals newer in
    let k2 = Plain_table.keys older and v2 = Plain_table.vals older in
    let keys = Array.make (n1 + n2) "" and vals = Array.make (n1 + n2) Skiplist.Tombstone in
    let rec go i j k =
      if i = n1 then begin
        Array.blit k2 j keys k (n2 - j);
        Array.blit v2 j vals k (n2 - j);
        k + n2 - j
      end
      else if j = n2 then begin
        Array.blit k1 i keys k (n1 - i);
        Array.blit v1 i vals k (n1 - i);
        k + n1 - i
      end
      else begin
        let c = String.compare k1.(i) k2.(j) in
        keys.(k) <- (if c <= 0 then k1.(i) else k2.(j));
        vals.(k) <- (if c <= 0 then v1.(i) else v2.(j));
        go (if c <= 0 then i + 1 else i) (if c >= 0 then j + 1 else j) (k + 1)
      end
    in
    let n = go 0 0 0 in
    Plain_table.of_sorted ~keys:(Array.sub keys 0 n) ~vals:(Array.sub vals 0 n)
  end

let is_value = function Skiplist.Value _ -> true | Skiplist.Tombstone -> false

(* [table] without its tombstones. *)
let live_only table =
  let keys = Plain_table.keys table and vals = Plain_table.vals table in
  if Array.for_all is_value vals then table
  else begin
    let live =
      Array.of_seq (Seq.filter (fun i -> is_value vals.(i)) (Seq.init (Array.length vals) Fun.id))
    in
    Plain_table.of_sorted ~keys:(Array.map (Array.get keys) live)
      ~vals:(Array.map (Array.get vals) live)
  end

(* Replace every source with one table: [newest] over the memtable's
   entries [mem] over the tables, the newest source winning per key and
   tombstones dropped (a full compaction has nothing underneath to
   shadow). Unmetered: LevelDB compacts on a background thread. *)
let fold_into_one_table t ~newest ~mem =
  let live = live_only (List.fold_left merge_newer newest (mem :: t.tables)) in
  t.tables <- (if Plain_table.length live = 0 then [] else [ live ]);
  t.memtable <- Skiplist.create ~rng:t.rng ();
  (* The memtable is durable in the tables now; its log can go. *)
  Wal.truncate t.wal

let compact t =
  let nothing = Plain_table.of_sorted ~keys:[||] ~vals:[||] in
  fold_into_one_table t ~newest:nothing ~mem:(memtable_table t)

(* Minor flush: freeze the memtable into a new L0 table (newest-first in
   [tables]), keeping tombstones so they continue to shadow older tables.
   Unmetered: background work in LevelDB. *)
let flush t =
  let mem = memtable_table t in
  if Plain_table.length mem > 0 then t.tables <- mem :: t.tables;
  t.memtable <- Skiplist.create ~rng:t.rng ();
  Wal.truncate t.wal

(* How many tables may accumulate before a full compaction folds them into
   one (LevelDB's leveled compaction, collapsed to two tiers). *)
let max_tables = 4

let maybe_flush t =
  if Skiplist.length t.memtable >= t.flush_threshold then begin
    flush t;
    if List.length t.tables > max_tables then compact t
  end

(* Keys both tables hold. *)
let count_common a b =
  let a = Plain_table.keys a and b = Plain_table.keys b in
  let rec go i j acc =
    if i = Array.length a || j = Array.length b then acc
    else begin
      let c = String.compare a.(i) b.(j) in
      if c = 0 then go (i + 1) (j + 1) (acc + 1)
      else if c < 0 then go (i + 1) j acc
      else go i (j + 1) acc
    end
  in
  go 0 0 0

(* The pairs become one sorted table merged over what the store held, as
   if each had been inserted into the memtable before a full compaction,
   without building the memtable: an insert of a key the memtable lacks
   draws a node level, so the load draws one per such key and leaves the
   store's RNG (and every later operation's metered cost) where the
   inserts would have. The table is built, and the keys' order checked,
   before the store changes. *)
let load_sorted t ~keys ~values =
  let loaded = Plain_table.of_sorted ~keys ~vals:(Array.map (fun v -> Skiplist.Value v) values) in
  let mem = memtable_table t in
  for _ = 1 to Plain_table.length loaded - count_common loaded mem do
    Skiplist.draw_level t.memtable
  done;
  Array.iter (fun key -> Hashtbl.replace t.live_keys key ()) keys;
  fold_into_one_table t ~newest:loaded ~mem

(* The pairs sorted by key, the last value per key winning as successive
   memtable inserts would leave them. The sort is stable and skipped for
   input already in key order. *)
let load t pairs =
  let arr = Array.of_list pairs in
  let n = Array.length arr in
  let key i = fst arr.(i) in
  let rec ascending i = i >= n || (String.compare (key (i - 1)) (key i) < 0 && ascending (i + 1)) in
  if not (ascending 1) then Array.stable_sort (fun (a, _) (b, _) -> String.compare a b) arr;
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if i = n - 1 || not (String.equal (key i) (key (i + 1))) then begin
      arr.(!kept) <- arr.(i);
      incr kept
    end
  done;
  load_sorted t ~keys:(Array.init !kept key) ~values:(Array.init !kept (fun i -> snd arr.(i)))

let finish t ~found ~scanned =
  {
    found;
    scanned;
    service_ns = Cost_meter.elapsed_ns t.meter;
    lock_windows = Cost_meter.lock_windows t.meter;
  }

let get t ~key =
  let m = t.meter in
  Cost_meter.reset m;
  (* LevelDB's Get: take the mutex, grab memtable/table refs, drop it. *)
  Cost_meter.lock m;
  Cost_meter.snapshot m;
  Cost_meter.unlock m;
  let entry =
    match Skiplist.find ~meter:m t.memtable ~key with
    | Some e -> Some e
    | None ->
      let rec search = function
        | [] -> None
        | table :: rest -> (
          match Plain_table.get ~meter:m table ~key with Some e -> Some e | None -> search rest)
      in
      search t.tables
  in
  let found =
    match entry with
    | Some (Skiplist.Value v) ->
      Cost_meter.copy_bytes m (String.length v);
      Some v
    | Some Skiplist.Tombstone | None -> None
  in
  finish t ~found ~scanned:0

let write t ~key entry =
  let m = t.meter in
  Cost_meter.reset m;
  let payload =
    String.length key + (match entry with Skiplist.Value v -> String.length v | Skiplist.Tombstone -> 0)
  in
  (* LevelDB's Write: mutex held across the WAL append and memtable insert. *)
  Cost_meter.lock m;
  Cost_meter.wal_append m payload;
  Wal.append t.wal ~key ~entry;
  Skiplist.insert ~meter:m t.memtable ~key entry;
  Cost_meter.unlock m;
  (match entry with
  | Skiplist.Value _ -> Hashtbl.replace t.live_keys key ()
  | Skiplist.Tombstone -> Hashtbl.remove t.live_keys key);
  let outcome = finish t ~found:None ~scanned:0 in
  maybe_flush t;
  outcome

let put t ~key ~value = write t ~key (Skiplist.Value value)
let delete t ~key = write t ~key Skiplist.Tombstone

(* One source of the scan merge. *)
type cursor = Mem of Skiplist.Cursor.cursor | Tab of Plain_table.Cursor.cursor

let at_end = function Mem c -> Skiplist.Cursor.at_end c | Tab c -> Plain_table.Cursor.at_end c
let cursor_key = function Mem c -> Skiplist.Cursor.key c | Tab c -> Plain_table.Cursor.key c

let cursor_entry = function
  | Mem c -> Skiplist.Cursor.entry c
  | Tab c -> Plain_table.Cursor.entry c

let cursor_advance ?meter = function
  | Mem c -> Skiplist.Cursor.advance ?meter c
  | Tab c -> Plain_table.Cursor.advance ?meter c

let at_key key src = (not (at_end src)) && String.equal (cursor_key src) key

(* The sources from the first one not yet at its end. *)
let rec from_first_live = function
  | src :: rest when at_end src -> from_first_live rest
  | sources -> sources

(* The smallest of [best] and the keys the [sources] stand at, charging one
   comparison per source compared. *)
let rec smallest m best = function
  | [] -> best
  | src :: rest when at_end src -> smallest m best rest
  | src :: rest ->
    Cost_meter.key_compare m;
    let k = cursor_key src in
    smallest m (if String.compare k best < 0 then k else best) rest

(* The entry of the first (newest) source standing at [key]. *)
let rec visible key = function
  | src :: rest -> if at_key key src then cursor_entry src else visible key rest
  | [] -> invalid_arg "Store.scan: no source at the merge key"

let rec advance_at ~meter key = function
  | [] -> ()
  | src :: rest ->
    if at_key key src then cursor_advance ?meter src;
    advance_at ~meter key rest

let scan t =
  let m = t.meter in
  Cost_meter.reset m;
  Cost_meter.lock m;
  Cost_meter.snapshot m;
  Cost_meter.unlock m;
  (* Sources newest-first: memtable shadows tables; earlier tables shadow
     later ones. *)
  let sources =
    Mem (Skiplist.Cursor.start t.memtable)
    :: List.map (fun table -> Tab (Plain_table.Cursor.start table)) t.tables
  in
  let meter = Some m in
  (* Each step takes the smallest key among the sources; the first (newest)
     source holding it provides the entry, and every source holding it
     advances. Reading a cursor allocates nothing. *)
  let rec step scanned =
    match from_first_live sources with
    | [] -> scanned
    | lead :: rest as live -> (
      let key = smallest m (cursor_key lead) rest in
      let entry = visible key live in
      advance_at ~meter key live;
      match entry with
      | Skiplist.Value v ->
        Cost_meter.copy_bytes m (min 8 (String.length v));
        step (scanned + 1)
      | Skiplist.Tombstone -> step scanned)
  in
  let scanned = step 0 in
  finish t ~found:None ~scanned

let scan_estimate_ns t =
  let cal = Cost_meter.calibration t.meter in
  (* Only non-empty sources take part in the merge's smallest-key fold, and
     each output charges one comparison per extra active source. *)
  let active_sources =
    (if Skiplist.length t.memtable > 0 then 1 else 0)
    + List.length (List.filter (fun tb -> Plain_table.length tb > 0) t.tables)
  in
  let entries = float_of_int (total_entries t) in
  let per_entry =
    cal.Cost_meter.Calibration.iter_step_ns
    +. (float_of_int (max 0 (active_sources - 1)) *. cal.Cost_meter.Calibration.key_compare_ns)
    +. (8.0 *. cal.Cost_meter.Calibration.byte_copy_ns)
  in
  int_of_float
    ((2.0 *. cal.Cost_meter.Calibration.lock_ns)
    +. cal.Cost_meter.Calibration.snapshot_ns
    +. (entries *. per_entry))


let wal t = t.wal

(* Simulate a crash: the volatile memtable is lost and rebuilt by replaying
   the write-ahead log over the durable tables, exactly LevelDB's recovery
   path. Unmetered: recovery happens before the server takes load. *)
let crash_recover t =
  t.memtable <- Skiplist.create ~rng:t.rng ();
  List.iter
    (fun (key, entry) -> Skiplist.insert t.memtable ~key entry)
    (Wal.replay t.wal);
  (* Rebuild the bookkeeping index from durable + replayed state. *)
  Hashtbl.reset t.live_keys;
  List.iter
    (fun table ->
      let vals = Plain_table.vals table in
      Array.iteri
        (fun i k ->
          match vals.(i) with
          | Skiplist.Value _ -> Hashtbl.replace t.live_keys k ()
          | Skiplist.Tombstone -> Hashtbl.remove t.live_keys k)
        (Plain_table.keys table))
    (List.rev t.tables);
  ignore
    (Skiplist.fold t.memtable ~init:() ~f:(fun () k e ->
         match e with
         | Skiplist.Value _ -> Hashtbl.replace t.live_keys k ()
         | Skiplist.Tombstone -> Hashtbl.remove t.live_keys k))
