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

(* The memtable's entries in key order. *)
let memtable_entries t =
  Array.of_list (List.rev (Skiplist.fold t.memtable ~init:[] ~f:(fun acc k e -> (k, e) :: acc)))

(* Two key-sorted entry arrays merged into one, [newer] winning a key both
   hold. *)
let merge_newer newer older =
  let n1 = Array.length newer and n2 = Array.length older in
  if n2 = 0 then newer
  else if n1 = 0 then older
  else begin
    let out = Array.make (n1 + n2) newer.(0) in
    let rec go i j k =
      if i = n1 then begin
        Array.blit older j out k (n2 - j);
        k + n2 - j
      end
      else if j = n2 then begin
        Array.blit newer i out k (n1 - i);
        k + n1 - i
      end
      else begin
        let c = String.compare (fst newer.(i)) (fst older.(j)) in
        out.(k) <- (if c <= 0 then newer.(i) else older.(j));
        go (if c <= 0 then i + 1 else i) (if c >= 0 then j + 1 else j) (k + 1)
      end
    in
    Array.sub out 0 (go 0 0 0)
  end

let is_value (_, e) = match e with Skiplist.Value _ -> true | Skiplist.Tombstone -> false

(* Replace every source with one table: [newest] over the memtable's
   entries [mem] over the tables, the newest source winning per key and
   tombstones dropped (a full compaction has nothing underneath to
   shadow). Unmetered: LevelDB compacts on a background thread. *)
let fold_into_one_table t ~newest ~mem =
  let merged =
    List.fold_left merge_newer newest (mem :: List.map Plain_table.entries t.tables)
  in
  let live =
    if Array.for_all is_value merged then merged
    else Array.of_list (List.filter is_value (Array.to_list merged))
  in
  t.tables <- (if Array.length live = 0 then [] else [ Plain_table.of_sorted live ]);
  t.memtable <- Skiplist.create ~rng:t.rng ();
  (* The memtable is durable in the tables now; its log can go. *)
  Wal.truncate t.wal

let compact t = fold_into_one_table t ~newest:[||] ~mem:(memtable_entries t)

(* Minor flush: freeze the memtable into a new L0 table (newest-first in
   [tables]), keeping tombstones so they continue to shadow older tables.
   Unmetered: background work in LevelDB. *)
let flush t =
  let entries = memtable_entries t in
  if Array.length entries > 0 then t.tables <- Plain_table.of_sorted entries :: t.tables;
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

(* The loaded pairs as one key-sorted entry array, the last value per key
   winning, as successive memtable inserts would leave them. The sort is
   stable and skipped for input already in key order. *)
let sorted_last_wins pairs =
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
  let entries = Array.make !kept ("", Skiplist.Tombstone) in
  for i = 0 to !kept - 1 do
    let k, v = arr.(i) in
    entries.(i) <- (k, Skiplist.Value v)
  done;
  entries

(* Keys both sorted arrays hold. *)
let count_common a b =
  let rec go i j acc =
    if i = Array.length a || j = Array.length b then acc
    else begin
      let c = String.compare (fst a.(i)) (fst b.(j)) in
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
   inserts would have. *)
let load t pairs =
  let loaded = sorted_last_wins pairs in
  let mem = memtable_entries t in
  for _ = 1 to Array.length loaded - count_common loaded mem do
    Skiplist.draw_level t.memtable
  done;
  List.iter (fun (key, _) -> Hashtbl.replace t.live_keys key ()) pairs;
  fold_into_one_table t ~newest:loaded ~mem

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

let cursor_peek = function
  | Mem c -> Skiplist.Cursor.peek c
  | Tab c -> Plain_table.Cursor.peek c

let cursor_advance ~meter = function
  | Mem c -> Skiplist.Cursor.advance ~meter c
  | Tab c -> Plain_table.Cursor.advance ~meter c

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
  let scanned = ref 0 in
  let rec step () =
    (* Find the smallest key among the sources; the first (newest) source
       holding it provides the entry. *)
    let smallest =
      List.fold_left
        (fun acc src ->
          match (cursor_peek src, acc) with
          | None, acc -> acc
          | Some (k, _), None -> Some k
          | Some (k, _), Some best ->
            Cost_meter.key_compare m;
            if String.compare k best < 0 then Some k else Some best)
        None sources
    in
    match smallest with
    | None -> ()
    | Some key ->
      let entry =
        List.fold_left
          (fun acc src ->
            match (acc, cursor_peek src) with
            | Some e, _ -> Some e
            | None, Some (k, e) when String.equal k key -> Some e
            | None, (Some _ | None) -> None)
          None sources
      in
      (* Advance every source positioned at this key. *)
      List.iter
        (fun src ->
          match cursor_peek src with
          | Some (k, _) when String.equal k key -> cursor_advance ~meter:m src
          | Some _ | None -> ())
        sources;
      (match entry with
      | Some (Skiplist.Value v) ->
        incr scanned;
        Cost_meter.copy_bytes m (min 8 (String.length v))
      | Some Skiplist.Tombstone | None -> ());
      step ()
  in
  step ();
  finish t ~found:None ~scanned:!scanned

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
      Array.iter
        (fun (k, e) ->
          match e with
          | Skiplist.Value _ -> Hashtbl.replace t.live_keys k ()
          | Skiplist.Tombstone -> Hashtbl.remove t.live_keys k)
        (Plain_table.entries table))
    (List.rev t.tables);
  ignore
    (Skiplist.fold t.memtable ~init:() ~f:(fun () k e ->
         match e with
         | Skiplist.Value _ -> Hashtbl.replace t.live_keys k ()
         | Skiplist.Tombstone -> Hashtbl.remove t.live_keys k))
