(* Tests for the LevelDB-like store: data-structure correctness against a
   reference map, cost calibration against the paper's measured service
   times, and the lock-window / scan-estimate contracts the scheduling
   runtime depends on. *)

module Rng = Repro_engine.Rng
module Skiplist = Repro_kvstore.Skiplist
module Plain_table = Repro_kvstore.Plain_table
module Store = Repro_kvstore.Store
module Cost_meter = Repro_kvstore.Cost_meter
module Kv_workload = Repro_kvstore.Kv_workload
module Digits = Repro_kvstore.Digits
module Mix = Repro_workload.Mix

(* --- cost meter -------------------------------------------------------- *)

let test_meter_accumulates () =
  let m = Cost_meter.create () in
  Cost_meter.charge_ns m 100.0;
  Cost_meter.charge_ns m 50.5;
  Alcotest.(check int) "elapsed" 150 (Cost_meter.elapsed_ns m);
  Cost_meter.reset m;
  Alcotest.(check int) "reset" 0 (Cost_meter.elapsed_ns m)

let test_meter_lock_windows () =
  let m = Cost_meter.create () in
  Cost_meter.charge_ns m 100.0;
  Cost_meter.lock m;
  Cost_meter.charge_ns m 200.0;
  Cost_meter.unlock m;
  Cost_meter.charge_ns m 50.0;
  let windows = Cost_meter.lock_windows m in
  Alcotest.(check int) "one window" 1 (Array.length windows);
  let start, stop = windows.(0) in
  Alcotest.(check bool) "window brackets the locked work" true (start >= 100 && stop > start)

let test_meter_nested_locks () =
  let m = Cost_meter.create () in
  Cost_meter.lock m;
  Cost_meter.lock m;
  Cost_meter.charge_ns m 100.0;
  Cost_meter.unlock m;
  Cost_meter.charge_ns m 100.0;
  Cost_meter.unlock m;
  Alcotest.(check int) "nested locks = one outer window" 1
    (Array.length (Cost_meter.lock_windows m));
  Alcotest.check_raises "unbalanced unlock" (Invalid_argument "Cost_meter.unlock: not locked")
    (fun () -> Cost_meter.unlock m)

let test_meter_open_window_closed_at_query () =
  let m = Cost_meter.create () in
  Cost_meter.lock m;
  Cost_meter.charge_ns m 100.0;
  Alcotest.(check int) "open window reported" 1 (Array.length (Cost_meter.lock_windows m))

(* --- skip list ---------------------------------------------------------- *)

let test_skiplist_basic () =
  let sl = Skiplist.create ~rng:(Rng.create ~seed:1) () in
  Skiplist.insert sl ~key:"b" (Skiplist.Value "2");
  Skiplist.insert sl ~key:"a" (Skiplist.Value "1");
  Skiplist.insert sl ~key:"c" (Skiplist.Value "3");
  Alcotest.(check int) "length" 3 (Skiplist.length sl);
  Alcotest.(check bool) "find b" true (Skiplist.find sl ~key:"b" = Some (Skiplist.Value "2"));
  Alcotest.(check bool) "miss" true (Skiplist.find sl ~key:"zz" = None);
  Alcotest.(check (option string)) "min key" (Some "a") (Skiplist.min_key sl)

let test_skiplist_overwrite () =
  let sl = Skiplist.create ~rng:(Rng.create ~seed:2) () in
  Skiplist.insert sl ~key:"k" (Skiplist.Value "old");
  Skiplist.insert sl ~key:"k" (Skiplist.Value "new");
  Alcotest.(check int) "no duplicate node" 1 (Skiplist.length sl);
  Alcotest.(check bool) "updated" true (Skiplist.find sl ~key:"k" = Some (Skiplist.Value "new"))

let test_skiplist_tombstone () =
  let sl = Skiplist.create ~rng:(Rng.create ~seed:3) () in
  Skiplist.insert sl ~key:"k" (Skiplist.Value "v");
  Skiplist.insert sl ~key:"k" Skiplist.Tombstone;
  Alcotest.(check bool) "tombstone visible" true (Skiplist.find sl ~key:"k" = Some Skiplist.Tombstone)

let test_skiplist_fold_sorted () =
  let sl = Skiplist.create ~rng:(Rng.create ~seed:4) () in
  List.iter (fun k -> Skiplist.insert sl ~key:k (Skiplist.Value k)) [ "m"; "a"; "z"; "f" ];
  let keys = List.rev (Skiplist.fold sl ~init:[] ~f:(fun acc k _ -> k :: acc)) in
  Alcotest.(check (list string)) "in key order" [ "a"; "f"; "m"; "z" ] keys

let test_skiplist_metering_charges () =
  let sl = Skiplist.create ~rng:(Rng.create ~seed:5) () in
  for i = 0 to 999 do
    Skiplist.insert sl ~key:(Printf.sprintf "%04d" i) (Skiplist.Value "v")
  done;
  let m = Cost_meter.create () in
  ignore (Skiplist.find ~meter:m sl ~key:"0500");
  Alcotest.(check bool) "search costs time" true (Cost_meter.elapsed_ns m > 0)

let prop_skiplist_matches_map =
  let op_gen =
    QCheck.Gen.(
      pair (int_range 0 30) (int_range 0 2) |> map (fun (k, op) -> (Printf.sprintf "%03d" k, op)))
  in
  QCheck.Test.make ~count:200 ~name:"skiplist agrees with a reference map"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 100) op_gen))
    (fun ops ->
      let sl = Skiplist.create ~rng:(Rng.create ~seed:6) () in
      let reference = Hashtbl.create 32 in
      List.iter
        (fun (key, op) ->
          match op with
          | 0 ->
            Skiplist.insert sl ~key (Skiplist.Value key);
            Hashtbl.replace reference key (Skiplist.Value key)
          | 1 ->
            Skiplist.insert sl ~key Skiplist.Tombstone;
            Hashtbl.replace reference key Skiplist.Tombstone
          | _ -> ignore (Skiplist.find sl ~key))
        ops;
      Hashtbl.fold (fun key v acc -> acc && Skiplist.find sl ~key = Some v) reference true)

(* --- plain table -------------------------------------------------------- *)

let table_of_list entries =
  let keys = Array.of_list entries in
  Plain_table.of_sorted ~keys ~vals:(Array.map (fun k -> Skiplist.Value k) keys)

let test_table_get () =
  let t = table_of_list [ "a"; "c"; "e"; "g" ] in
  Alcotest.(check bool) "hit" true (Plain_table.get t ~key:"e" = Some (Skiplist.Value "e"));
  Alcotest.(check bool) "miss between" true (Plain_table.get t ~key:"d" = None);
  Alcotest.(check bool) "miss below" true (Plain_table.get t ~key:"A" = None);
  Alcotest.(check bool) "miss above" true (Plain_table.get t ~key:"z" = None)

let test_table_rejects_unsorted () =
  Alcotest.check_raises "unsorted input"
    (Invalid_argument "Plain_table.of_sorted: keys not strictly ascending") (fun () ->
      ignore
        (Plain_table.of_sorted ~keys:[| "b"; "a" |]
           ~vals:[| Skiplist.Tombstone; Skiplist.Tombstone |]))

let test_table_cursor () =
  let t = table_of_list [ "a"; "b" ] in
  let c = Plain_table.Cursor.start t in
  Alcotest.(check bool) "first" true
    ((not (Plain_table.Cursor.at_end c))
    && Plain_table.Cursor.key c = "a"
    && Plain_table.Cursor.entry c = Skiplist.Value "a");
  Plain_table.Cursor.advance c;
  Plain_table.Cursor.advance c;
  Alcotest.(check bool) "exhausted" true (Plain_table.Cursor.at_end c);
  Alcotest.check_raises "no key past the end" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Plain_table.Cursor.key c))

let prop_table_matches_linear_search =
  QCheck.Test.make ~count:200 ~name:"plain-table binary search equals linear search"
    QCheck.(pair (list_of_size (Gen.int_range 0 40) (int_range 0 99)) (int_range 0 99))
    (fun (keys, probe) ->
      let sorted = List.sort_uniq compare (List.map (Printf.sprintf "%02d") keys) in
      let t = table_of_list sorted in
      let key = Printf.sprintf "%02d" probe in
      let linear = List.exists (String.equal key) sorted in
      (Plain_table.get t ~key <> None) = linear)

(* --- store -------------------------------------------------------------- *)

let test_store_get_put_delete () =
  let store = Store.create ~seed:1 () in
  Store.load store [ ("a", "1"); ("b", "2") ];
  Alcotest.(check (option string)) "get hit" (Some "1") (Store.get store ~key:"a").Store.found;
  Alcotest.(check (option string)) "get miss" None (Store.get store ~key:"x").Store.found;
  ignore (Store.put store ~key:"c" ~value:"3");
  Alcotest.(check (option string)) "after put" (Some "3") (Store.get store ~key:"c").Store.found;
  ignore (Store.delete store ~key:"a");
  Alcotest.(check (option string)) "after delete" None (Store.get store ~key:"a").Store.found;
  Alcotest.(check int) "population tracks live keys" 2 (Store.population store)

let test_store_delete_then_reinsert () =
  let store = Store.create ~seed:2 () in
  Store.load store [ ("k", "old") ];
  ignore (Store.delete store ~key:"k");
  ignore (Store.put store ~key:"k" ~value:"new");
  Alcotest.(check (option string)) "reinsert wins over tombstone" (Some "new")
    (Store.get store ~key:"k").Store.found

let test_store_scan_counts_live () =
  let store = Store.create ~seed:3 () in
  Store.load store (List.init 100 (fun i -> (Printf.sprintf "%03d" i, "v")));
  ignore (Store.delete store ~key:"050");
  let outcome = Store.scan store in
  Alcotest.(check int) "tombstoned key skipped" 99 outcome.Store.scanned

let test_store_compaction_preserves_data () =
  let store = Store.create ~seed:4 ~flush_threshold:8 () in
  Store.load store (List.init 50 (fun i -> (Printf.sprintf "%03d" i, "v0")));
  (* Trigger several flushes through the threshold. *)
  for i = 0 to 39 do
    ignore (Store.put store ~key:(Printf.sprintf "%03d" i) ~value:"v1")
  done;
  ignore (Store.delete store ~key:"000");
  Store.compact store;
  Alcotest.(check (option string)) "updated survives compaction" (Some "v1")
    (Store.get store ~key:"020").Store.found;
  Alcotest.(check (option string)) "old value survives" (Some "v0")
    (Store.get store ~key:"045").Store.found;
  Alcotest.(check (option string)) "tombstone dropped but key gone" None
    (Store.get store ~key:"000").Store.found;
  Alcotest.(check int) "entries = live after full compaction" 49 (Store.total_entries store)

let test_store_lock_windows () =
  let store = Store.create ~seed:5 () in
  Store.load store [ ("a", "1") ];
  let put = Store.put store ~key:"b" ~value:"2" in
  Alcotest.(check int) "put holds the mutex once" 1 (Array.length put.Store.lock_windows);
  let start, stop = put.Store.lock_windows.(0) in
  Alcotest.(check bool) "put window covers most of the op" true
    (stop - start > (put.Store.service_ns * 5 / 10) && start < 100);
  let get = Store.get store ~key:"a" in
  Alcotest.(check int) "get locks briefly" 1 (Array.length get.Store.lock_windows);
  let gstart, gstop = get.Store.lock_windows.(0) in
  Alcotest.(check bool) "get window is short and early" true
    (gstart <= 100 && gstop - gstart < get.Store.service_ns / 2)

let test_paper_service_times () =
  (* 5.3: GETs ~600ns, PUT/DELETE ~2.3us, SCAN ~500us on 15 000 keys. *)
  let store = Kv_workload.populate ~seed:7 () in
  let means = Kv_workload.measured_means store ~seed:11 in
  let get = List.assoc "GET" means
  and put = List.assoc "PUT" means
  and delete = List.assoc "DELETE" means
  and scan = List.assoc "SCAN" means in
  Alcotest.(check bool) "GET in [400,800]ns" true (get > 400.0 && get < 800.0);
  Alcotest.(check bool) "PUT in [1.8,2.8]us" true (put > 1_800.0 && put < 2_800.0);
  Alcotest.(check bool) "DELETE close to PUT" true (Float.abs (delete -. put) < 500.0);
  Alcotest.(check bool) "SCAN in [400,600]us" true (scan > 400_000.0 && scan < 600_000.0)

let test_scan_estimate_tracks_real () =
  let store = Kv_workload.populate ~n_keys:5_000 ~seed:8 () in
  (* Dirty the memtable so the estimate must account for a live merge. *)
  for i = 0 to 199 do
    ignore (Store.put store ~key:(Printf.sprintf "user%08d" (i * 7919 mod 5_000)) ~value:"x")
  done;
  let real = (Store.scan store).Store.service_ns in
  let est = Store.scan_estimate_ns store in
  let rel = Float.abs (float_of_int (real - est)) /. float_of_int real in
  if rel > 0.08 then Alcotest.failf "estimate %d vs real %d (%.1f%% off)" est real (100. *. rel)

let test_mix_profiles () =
  let store = Kv_workload.populate ~seed:9 () in
  let mix = Kv_workload.zippydb_mix store ~seed:9 in
  Alcotest.(check int) "four classes" 4 (Array.length mix.Mix.classes);
  let rng = Rng.create ~seed:10 in
  for _ = 1 to 200 do
    let p = Mix.sample mix rng in
    if p.Mix.service_ns <= 0 then Alcotest.fail "non-positive service";
    Array.iter
      (fun (s, e) ->
        if s < 0 || e > p.Mix.service_ns || s >= e then
          Alcotest.failf "bad lock window (%d,%d) for service %d" s e p.Mix.service_ns)
      p.Mix.lock_windows
  done

let test_get_scan_mix_balance () =
  let store = Kv_workload.populate ~seed:12 () in
  let mix = Kv_workload.get_scan_mix store ~seed:12 in
  let rng = Rng.create ~seed:13 in
  let scans = ref 0 in
  let n = 2_000 in
  for _ = 1 to n do
    let p = Mix.sample mix rng in
    if p.Mix.service_ns > 100_000 then incr scans
  done;
  let frac = float_of_int !scans /. float_of_int n in
  Alcotest.(check bool) "about half are scans" true (Float.abs (frac -. 0.5) < 0.05)

(* Keys are twelve bytes inside the eight-digit range and as wide as the
   index outside it; both must give Printf's form, at and across the
   boundaries. *)
let test_key_of_index_matches_printf () =
  List.iter
    (fun i ->
      Alcotest.(check string) (string_of_int i) (Printf.sprintf "user%08d" i)
        (Kv_workload.key_of_index i))
    [ 0; 1; 9; 10; 14_999; 9_999_999; 10_000_000; 99_999_999; 100_000_000; max_int ]

(* Every index a generator can draw, beside the boundary list above. *)
let prop_key_of_index_matches_printf =
  QCheck.Test.make ~count:1_000 ~name:"keys match the Printf form at random indices"
    QCheck.(int_range 0 99_999_999)
    (fun i -> String.equal (Kv_workload.key_of_index i) (Printf.sprintf "user%08d" i))

(* --- the digit writer ------------------------------------------------------ *)

(* [n] in [%d] form at its own width and in [%0*d] form wider, written
   between two guard bytes that must stay as they were; a width one short
   must raise. *)
let digits_match_printf n =
  let w = Digits.width n in
  let at width =
    let b = Bytes.make (width + 2) '#' in
    Digits.write b ~pos:1 ~width n;
    if Bytes.get b 0 <> '#' || Bytes.get b (width + 1) <> '#' then "guard overwritten"
    else Bytes.sub_string b 1 width
  in
  let short_raises =
    match Digits.write (Bytes.create w) ~pos:0 ~width:(w - 1) n with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  w = String.length (string_of_int n)
  && String.equal (at w) (Printf.sprintf "%d" n)
  && List.for_all (fun extra -> String.equal (at (w + extra)) (Printf.sprintf "%0*d" (w + extra) n)) [ 1; 4 ]
  && short_raises

let test_digits_at_the_boundaries () =
  let powers = List.init 18 (fun k -> int_of_float (10. ** float_of_int (k + 1))) in
  List.iter
    (fun n -> if not (digits_match_printf n) then Alcotest.failf "%d differs from Printf" n)
    ([ max_int; max_int - 1; 0; 1; 9 ] @ List.concat_map (fun p -> [ p - 1; p; p + 1 ]) powers)

let prop_digits_match_printf =
  QCheck.Test.make ~count:2_000 ~name:"the digit writer matches Printf at random ints"
    QCheck.(oneof [ pos_int; int_range 0 1_000_000_000 ])
    digits_match_printf

(* No key or digit string has a sign: a negative index or int is refused,
   not written as Printf's [user-0000001]. *)
let test_negative_ints_refused () =
  let refuses name expected f =
    List.iter
      (fun n -> Alcotest.check_raises name (Invalid_argument (expected n)) (fun () -> f n))
      [ -1; -100_000_000; min_int ]
  in
  refuses "key_of_index"
    (Printf.sprintf "Kv_workload.key_of_index: index %d is negative")
    (fun i -> ignore (Kv_workload.key_of_index i));
  refuses "width" (Printf.sprintf "Digits.width: %d is negative") (fun n -> ignore (Digits.width n));
  refuses "write" (Printf.sprintf "Digits.write: %d is negative") (fun n ->
      Digits.write (Bytes.create 24) ~pos:0 ~width:24 n)

(* A threshold below 1 flushed the memtable on every write. *)
let test_store_refuses_bad_threshold () =
  List.iter
    (fun flush_threshold ->
      Alcotest.check_raises (string_of_int flush_threshold)
        (Invalid_argument
           (Printf.sprintf "Store.create: flush_threshold %d is not positive" flush_threshold))
        (fun () -> ignore (Store.create ~flush_threshold ~seed:1 ())))
    [ min_int; -1; 0 ]

(* A negative alpha read as uniform keys and a NaN one sent every request
   to key 0. *)
let test_mixes_refuse_bad_zipf () =
  let store = Kv_workload.populate ~n_keys:100 ~seed:1 () in
  List.iter
    (fun (entry, mix) ->
      List.iter
        (fun (zipf_alpha, shown) ->
          Alcotest.check_raises (entry ^ " " ^ shown)
            (Invalid_argument
               (Printf.sprintf "Kv_workload.%s: zipf_alpha %s is not a non-negative number" entry
                  shown))
            (fun () -> ignore (mix ~zipf_alpha store)))
        [ (Float.nan, "nan"); (-1.0, "-1"); (Float.neg_infinity, "-inf") ])
    [
      ("get_scan_mix", fun ~zipf_alpha s -> Kv_workload.get_scan_mix ~zipf_alpha s ~seed:1);
      ("zippydb_mix", fun ~zipf_alpha s -> Kv_workload.zippydb_mix ~zipf_alpha s ~seed:1);
    ]

(* --- populate -------------------------------------------------------------- *)

(* Value [i]'s per-byte definition, which [value_of_index] builds from 94
   interned windows per length. *)
let oracle_value ~value_bytes i =
  String.init value_bytes (fun j -> Char.chr (33 + ((i + (7 * j)) mod 94)))

(* Every key index a store can hold, at the lengths around the period (94)
   and the default (100), and at one no table is kept for (257). The
   default length's values are the interned strings themselves: value [i]
   is value [i mod 94]. *)
let prop_values_match_oracle =
  QCheck.Test.make ~count:1_000 ~name:"values equal their per-byte definition"
    QCheck.(pair (int_range 0 99_999_999) (oneofl [ 0; 1; 93; 94; 95; 100; 257 ]))
    (fun (i, value_bytes) ->
      let value = Kv_workload.value_of_index ~value_bytes in
      List.for_all
        (fun i -> String.equal (value i) (oracle_value ~value_bytes i))
        [ i; 0; 93; 94; 99_999_999 ]
      && (value_bytes <> 100 || value i == value (i mod 94)))

(* [populate] against what it replaced, [Store.load] of the pairs list with
   per-byte values, and against what a load stands for, a PUT of each pair
   and a full compaction. Every key reads the same (and one past the last
   misses), the counts and a full scan agree, and so does every metered
   outcome of a fixed run of writes, reads and a scan afterwards. The 24
   PUTs of new keys each draw a skip-list level, so a load that drew one
   level more or fewer than the PUTs shifts their costs. *)
let oracle_pairs ~n_keys ~value_bytes =
  List.init n_keys (fun i -> (Kv_workload.key_of_index i, oracle_value ~value_bytes i))

let list_loaded ~n_keys ~value_bytes ~seed =
  let store = Store.create ~seed () in
  Store.load store (oracle_pairs ~n_keys ~value_bytes);
  store

let put_and_compacted ~n_keys ~value_bytes ~seed =
  let store = Store.create ~seed () in
  List.iter
    (fun (key, value) -> ignore (Store.put store ~key ~value))
    (oracle_pairs ~n_keys ~value_bytes);
  Store.compact store;
  store

let ops_after_load =
  let key = Kv_workload.key_of_index in
  List.init 24 (fun k s -> Store.put s ~key:(key (20_000 + (37 * k))) ~value:"new")
  @ [
      (fun s -> Store.put s ~key:(key 3) ~value:"over");
      (fun s -> Store.get s ~key:(key 3));
      (fun s -> Store.delete s ~key:(key 5));
      (fun s -> Store.get s ~key:(key 5));
      (fun s -> Store.get s ~key:(key 20_037));
      Store.scan;
    ]

let test_populate_matches_list_load () =
  List.iter
    (fun (n_keys, value_bytes) ->
      List.iter
        (fun (path, reference) ->
          let a = Kv_workload.populate ~n_keys ~value_bytes ~seed:42 ()
          and b = reference ~n_keys ~value_bytes ~seed:42 in
          let same what x y =
            if x <> y then
              Alcotest.failf "%d keys of %d bytes against the %s: %s differs" n_keys value_bytes
                path what
          in
          same "population" (Store.population a) (Store.population b);
          same "entry count" (Store.total_entries a) (Store.total_entries b);
          for i = 0 to n_keys do
            let key = Kv_workload.key_of_index i in
            same ("get " ^ key) (Store.get a ~key) (Store.get b ~key)
          done;
          same "scan" (Store.scan a) (Store.scan b);
          List.iteri
            (fun k op -> same (Printf.sprintf "operation %d after" k) (op a) (op b))
            ops_after_load)
        [ ("list load", list_loaded); ("PUTs and a compaction", put_and_compacted) ])
    [ (0, 0); (0, 100); (1, 0); (1, 100); (15_000, 0); (15_000, 100) ]

(* Past 10^8 keys grow a ninth digit and stop sorting by index, so
   [populate] refuses those counts rather than sorting. *)
let test_populate_rejects_bad_sizes () =
  List.iter
    (fun n_keys ->
      Alcotest.check_raises (string_of_int n_keys)
        (Invalid_argument
           (Printf.sprintf "Kv_workload.populate: n_keys %d is outside [0, 100000000]" n_keys))
        (fun () -> ignore (Kv_workload.populate ~n_keys ~seed:1 ())))
    [ min_int; -1; 100_000_001; max_int ];
  Alcotest.check_raises "negative value length"
    (Invalid_argument "Kv_workload: value length -1 is negative") (fun () ->
      ignore (Kv_workload.populate ~n_keys:0 ~value_bytes:(-1) ~seed:1 ()))

(* A sorted load checks its keys before it touches the store: refused keys
   leave the population, the RNG and so every later metered outcome as an
   untouched store has them. *)
let test_load_sorted_refuses () =
  let loaded = Store.create ~seed:3 () and untouched = Store.create ~seed:3 () in
  List.iter
    (fun (keys, values, message) ->
      Alcotest.check_raises message (Invalid_argument message) (fun () ->
          Store.load_sorted loaded ~keys ~entries:(Array.map (fun v -> Skiplist.Value v) values)))
    [
      ([| "b"; "a" |], [| "1"; "2" |], "Plain_table.of_sorted: keys not strictly ascending");
      ([| "a"; "a" |], [| "1"; "2" |], "Plain_table.of_sorted: keys not strictly ascending");
      ([| "a"; "b" |], [| "1" |], "Plain_table.of_sorted: keys and vals differ in length");
    ];
  Alcotest.(check int) "population" (Store.population untouched) (Store.population loaded);
  List.iteri
    (fun k op ->
      if op loaded <> op untouched then Alcotest.failf "operation %d after differs" k)
    ops_after_load

let suite =
  [
    Alcotest.test_case "meter accumulates and resets" `Quick test_meter_accumulates;
    Alcotest.test_case "meter lock windows" `Quick test_meter_lock_windows;
    Alcotest.test_case "meter nested locks" `Quick test_meter_nested_locks;
    Alcotest.test_case "meter open window" `Quick test_meter_open_window_closed_at_query;
    Alcotest.test_case "skiplist basics" `Quick test_skiplist_basic;
    Alcotest.test_case "skiplist overwrite" `Quick test_skiplist_overwrite;
    Alcotest.test_case "skiplist tombstone" `Quick test_skiplist_tombstone;
    Alcotest.test_case "skiplist fold in key order" `Quick test_skiplist_fold_sorted;
    Alcotest.test_case "skiplist metering" `Quick test_skiplist_metering_charges;
    QCheck_alcotest.to_alcotest prop_skiplist_matches_map;
    Alcotest.test_case "plain table get" `Quick test_table_get;
    Alcotest.test_case "plain table rejects unsorted" `Quick test_table_rejects_unsorted;
    Alcotest.test_case "plain table cursor" `Quick test_table_cursor;
    QCheck_alcotest.to_alcotest prop_table_matches_linear_search;
    Alcotest.test_case "store get/put/delete" `Quick test_store_get_put_delete;
    Alcotest.test_case "delete then reinsert" `Quick test_store_delete_then_reinsert;
    Alcotest.test_case "scan skips tombstones" `Quick test_store_scan_counts_live;
    Alcotest.test_case "compaction preserves data" `Quick test_store_compaction_preserves_data;
    Alcotest.test_case "lock windows match LevelDB's locking" `Quick test_store_lock_windows;
    Alcotest.test_case "paper service times (5.3)" `Slow test_paper_service_times;
    Alcotest.test_case "scan estimate tracks real walks" `Quick test_scan_estimate_tracks_real;
    Alcotest.test_case "mix profiles are well-formed" `Quick test_mix_profiles;
    Alcotest.test_case "get/scan mix balance" `Quick test_get_scan_mix_balance;
    Alcotest.test_case "keys match the Printf form" `Quick test_key_of_index_matches_printf;
    QCheck_alcotest.to_alcotest prop_key_of_index_matches_printf;
    Alcotest.test_case "the digit writer matches Printf at the boundaries" `Quick
      test_digits_at_the_boundaries;
    QCheck_alcotest.to_alcotest prop_digits_match_printf;
    Alcotest.test_case "keys and digits refuse a negative int" `Quick
      test_negative_ints_refused;
    Alcotest.test_case "store refuses a flush threshold below 1" `Quick
      test_store_refuses_bad_threshold;
    Alcotest.test_case "mixes refuse a negative or NaN zipf alpha" `Quick
      test_mixes_refuse_bad_zipf;
    QCheck_alcotest.to_alcotest prop_values_match_oracle;
    Alcotest.test_case "populate equals a list load and PUTs of per-byte values" `Quick
      test_populate_matches_list_load;
    Alcotest.test_case "populate refuses unsortable key counts" `Quick
      test_populate_rejects_bad_sizes;
    Alcotest.test_case "sorted load refuses bad keys, store untouched" `Quick
      test_load_sorted_refuses;
  ]

(* --- leveled structure (minor flushes vs full compaction) ------------------ *)

let test_minor_flush_creates_tables () =
  let store = Store.create ~seed:21 ~flush_threshold:4 () in
  Store.load store [ ("base", "0") ];
  (* 4 writes trigger one minor flush; entries stay scannable. *)
  for i = 1 to 4 do
    ignore (Store.put store ~key:(Printf.sprintf "k%d" i) ~value:"v")
  done;
  Alcotest.(check int) "wal truncated by the flush" 0
    (Repro_kvstore.Wal.record_count (Store.wal store));
  Alcotest.(check int) "all keys live" 5 (Store.population store);
  Alcotest.(check (option string)) "read from L0" (Some "v") (Store.get store ~key:"k2").Store.found;
  Alcotest.(check (option string)) "read from older table" (Some "0")
    (Store.get store ~key:"base").Store.found

let test_newer_table_shadows_older () =
  let store = Store.create ~seed:22 ~flush_threshold:2 () in
  Store.load store [ ("k", "old") ];
  ignore (Store.put store ~key:"k" ~value:"new");
  ignore (Store.put store ~key:"other" ~value:"x");
  (* threshold reached: memtable flushed to an L0 table above the old one *)
  Alcotest.(check (option string)) "newest wins across tables" (Some "new")
    (Store.get store ~key:"k").Store.found

let test_tombstone_shadows_across_tables () =
  let store = Store.create ~seed:23 ~flush_threshold:2 () in
  Store.load store [ ("k", "old") ];
  ignore (Store.delete store ~key:"k");
  ignore (Store.put store ~key:"pad" ~value:"p");
  (* tombstone now lives in a flushed L0 table *)
  Alcotest.(check (option string)) "flushed tombstone still hides the key" None
    (Store.get store ~key:"k").Store.found;
  let scanned = (Store.scan store).Store.scanned in
  (* Only "pad" is live: "k" is hidden by the flushed tombstone. *)
  Alcotest.(check int) "scan skips the shadowed key" 1 scanned

let test_full_compaction_bounds_tables () =
  let store = Store.create ~seed:24 ~flush_threshold:3 () in
  Store.load store (List.init 10 (fun i -> (Printf.sprintf "%02d" i, "v")));
  let before = Store.scan_estimate_ns store in
  (* Enough writes for several minor flushes and at least one full
     compaction (> 4 tables folds to 1). *)
  for round = 0 to 7 do
    for i = 0 to 2 do
      ignore (Store.put store ~key:(Printf.sprintf "%02d" i) ~value:(string_of_int round))
    done
  done;
  Store.compact store;
  let after = Store.scan_estimate_ns store in
  (* After compaction, duplicates are merged: cost returns near baseline. *)
  Alcotest.(check bool) "compaction bounds the scan cost" true
    (after < before * 2);
  Alcotest.(check (option string)) "latest value survives" (Some "7")
    (Store.get store ~key:"01").Store.found

(* A bulk load merges the pairs (the last value per key winning) over
   whatever the store holds: tables, a memtable and tombstones from
   random writes under a small flush threshold. Afterwards every key reads
   as a map model says, the live count matches, a full scan visits exactly
   the live keys, and the loaded store keeps serving writes. *)
let prop_load_matches_model =
  let key = QCheck.Gen.map (Printf.sprintf "k%02d") (QCheck.Gen.int_bound 30) in
  let a_write = QCheck.Gen.(pair key (opt (map string_of_int (int_bound 99)))) in
  let a_pair = QCheck.Gen.(pair key (map string_of_int (int_bound 99))) in
  QCheck.Test.make ~count:200 ~name:"bulk load merges over any store state like a map"
    QCheck.(make Gen.(pair (list_size (int_bound 40) a_write) (list_size (int_bound 40) a_pair)))
    (fun (writes, pairs) ->
      let module M = Map.Make (String) in
      let store = Store.create ~flush_threshold:3 ~seed:31 () in
      let model =
        List.fold_left
          (fun m (key, value) ->
            match value with
            | Some value ->
              ignore (Store.put store ~key ~value);
              M.add key value m
            | None ->
              ignore (Store.delete store ~key);
              M.remove key m)
          M.empty writes
      in
      Store.load store pairs;
      let model = List.fold_left (fun m (k, v) -> M.add k v m) model pairs in
      let reads_match m =
        List.for_all
          (fun i ->
            let key = Printf.sprintf "k%02d" i in
            (Store.get store ~key).Store.found = M.find_opt key m)
          (List.init 31 Fun.id)
      in
      let loaded_ok =
        reads_match model
        && Store.population store = M.cardinal model
        && (Store.scan store).Store.scanned = M.cardinal model
      in
      ignore (Store.put store ~key:"k00" ~value:"after");
      loaded_ok && reads_match (M.add "k00" "after" model))

(* The live count after every step of random writes, compactions and
   crash recoveries under a small flush threshold, so that minor flushes
   leave tables that keep their tombstones: [population] must equal a map
   model's cardinal each time, and at the end a full scan's count. The
   store knows the count after a compaction and walks for it otherwise;
   reading a lone table's length whenever the memtable is empty would
   count a flushed tombstone as a live key. *)
type step = Put of string * string | Delete of string | Compact | Crash_recover

let prop_population_matches_model =
  let key = QCheck.Gen.map (Printf.sprintf "k%02d") (QCheck.Gen.int_bound 29) in
  let a_step =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> Put (k, string_of_int v)) key (int_bound 99));
          (4, map (fun k -> Delete k) key);
          (1, return Compact);
          (1, return Crash_recover);
        ])
  in
  QCheck.Test.make ~count:300 ~name:"population equals a map model after every step"
    QCheck.(make Gen.(pair (int_range 1 3) (list_size (int_bound 60) a_step)))
    (fun (flush_threshold, steps) ->
      let module M = Map.Make (String) in
      let store = Store.create ~flush_threshold ~seed:32 () in
      let apply model = function
        | Put (key, value) ->
          ignore (Store.put store ~key ~value);
          M.add key value model
        | Delete key ->
          ignore (Store.delete store ~key);
          M.remove key model
        | Compact ->
          Store.compact store;
          model
        | Crash_recover ->
          Store.crash_recover store;
          model
      in
      let rec go model = function
        | [] -> Some model
        | step :: rest ->
          let model = apply model step in
          if Store.population store = M.cardinal model then go model rest else None
      in
      match go M.empty steps with
      | None -> false
      | Some model ->
        let n = M.cardinal model in
        Store.population store = n && (Store.scan store).Store.scanned = n)

let leveled_suite =
  [
    Alcotest.test_case "minor flush creates tables" `Quick test_minor_flush_creates_tables;
    Alcotest.test_case "newer table shadows older" `Quick test_newer_table_shadows_older;
    Alcotest.test_case "tombstones shadow across tables" `Quick
      test_tombstone_shadows_across_tables;
    Alcotest.test_case "full compaction bounds tables" `Quick test_full_compaction_bounds_tables;
    QCheck_alcotest.to_alcotest prop_load_matches_model;
    QCheck_alcotest.to_alcotest prop_population_matches_model;
  ]

let suite = suite @ leveled_suite
