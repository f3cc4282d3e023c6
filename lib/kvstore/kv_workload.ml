module Rng = Repro_engine.Rng
module Mix = Repro_workload.Mix

let scan_probe_spacing_ns = 230.0

(* [key_of_index] sorts by index below this bound: past it keys grow a
   ninth digit. *)
let max_keys = 100_000_000

(* [Printf.sprintf "user%08d" i], written in place by {!Digits}: twelve
   bytes for every index below [max_keys], which is every key a generator
   draws. *)
let key_of_index i =
  if i < 0 then invalid_arg (Printf.sprintf "Kv_workload.key_of_index: index %d is negative" i);
  let width = if i < max_keys then 8 else Digits.width i in
  let b = Bytes.create (4 + width) in
  Bytes.set_int32_le b 0 0x72657375l (* "user" *);
  Digits.write b ~pos:4 ~width i;
  Bytes.unsafe_to_string b

(* Value [i] of [n] bytes has byte [j] = [33 + ((i + 7j) mod 94)], a
   printable payload that varies with the key. As 27 is the inverse of 7
   mod 94, that is the [n]-byte window at offset [27i mod 94] of the
   period-94 sequence [c_k = 33 + (7k mod 94)]: the 94 windows of a length
   are all its values, and keys whose indices differ by a multiple of 94
   hold the same string. The store reads only a value's bytes and length,
   so the sharing changes no outcome. *)
let windows n =
  if n < 0 then invalid_arg (Printf.sprintf "Kv_workload: value length %d is negative" n);
  let c = String.init (94 + n - 1) (fun k -> Char.chr (33 + (7 * k mod 94))) in
  Array.init 94 (fun k -> String.sub c k n)

(* The paper's value size, whose 94 values are built once, when the module
   initializes, and never change: the PUT generator reads them on the
   arrival producer's domain. *)
let default_value_bytes = 100
let default_windows = windows default_value_bytes

(* The value of each index at one length, all drawn from one table. *)
let values value_bytes =
  let w = if value_bytes = default_value_bytes then default_windows else windows value_bytes in
  fun i -> w.(27 * (i mod 94) mod 94)

let value_of_index ~value_bytes i = values value_bytes i

let populate ?(n_keys = 15_000) ?(value_bytes = default_value_bytes) ~seed () =
  if n_keys < 0 || n_keys > max_keys then
    invalid_arg
      (Printf.sprintf "Kv_workload.populate: n_keys %d is outside [0, %d]" n_keys max_keys);
  let value = values value_bytes in
  (* One box per interned value, shared as the value is. *)
  let entries = Array.init 94 (fun i -> Skiplist.Value (value i)) in
  let store = Store.create ~seed () in
  Store.load_sorted store ~keys:(Array.init n_keys key_of_index)
    ~entries:(Array.init n_keys (fun i -> entries.(i mod 94)));
  store

let profile_of_outcome (o : Store.outcome) ~probe_spacing_ns : Mix.profile =
  {
    Mix.class_id = 0;
    service_ns = Int.max 1 o.Store.service_ns;
    lock_windows = o.Store.lock_windows;
    probe_spacing_ns;
  }

(* The number of distinct keys the generators draw from; writes stay inside
   this space so the live population (and hence SCAN cost) is stationary. *)
let keyspace store = max 1 (Store.population store)

(* Key-popularity model: uniform by default; a positive [zipf_alpha] makes
   rank 0 the hottest key (production KV traffic is famously skewed). *)
let key_picker ~entry ~keyspace_size ~zipf_alpha =
  if not (zipf_alpha >= 0.0) then
    invalid_arg
      (Printf.sprintf "Kv_workload.%s: zipf_alpha %g is not a non-negative number" entry
         zipf_alpha);
  if zipf_alpha = 0.0 then fun rng -> Rng.int rng ~bound:keyspace_size
  else begin
    let zipf = Repro_engine.Zipf.create ~n:keyspace_size ~alpha:zipf_alpha in
    fun rng -> Repro_engine.Zipf.sample zipf rng
  end

let get_class store ~pick ~weight : Mix.class_def =
  let generate rng =
    let key = key_of_index (pick rng) in
    profile_of_outcome (Store.get store ~key) ~probe_spacing_ns:0.0
  in
  (* Mean measured lazily by the caller via [measured_means]; this field
     seeds sweep sizing, so a representative constant is enough. *)
  { Mix.name = "GET"; weight; mean_ns = 600.0; generate }

let put_class store ~pick ~value_bytes ~weight : Mix.class_def =
  let value_of = values value_bytes in
  let generate rng =
    let i = pick rng in
    let key = key_of_index i in
    let value = value_of i in
    profile_of_outcome (Store.put store ~key ~value) ~probe_spacing_ns:0.0
  in
  { Mix.name = "PUT"; weight; mean_ns = 2_300.0; generate }

let delete_class store ~pick ~weight : Mix.class_def =
  let generate rng =
    let key = key_of_index (pick rng) in
    profile_of_outcome (Store.delete store ~key) ~probe_spacing_ns:0.0
  in
  { Mix.name = "DELETE"; weight; mean_ns = 2_300.0; generate }

let scan_class store ~weight : Mix.class_def =
  (* One real metered walk anchors the lock window shape; subsequent
     requests use the closed-form estimate against current store state. *)
  let anchor = Store.scan store in
  let generate _rng =
    let service_ns = Int.max 1 (Store.scan_estimate_ns store) in
    {
      Mix.class_id = 0;
      service_ns;
      lock_windows = anchor.Store.lock_windows;
      probe_spacing_ns = scan_probe_spacing_ns;
    }
  in
  { Mix.name = "SCAN"; weight; mean_ns = float_of_int anchor.Store.service_ns; generate }

(* Both mixes close over one shared Store.t (whose meter, memtable and rng
   they touch on every generate call), so they are not parallel-safe:
   sweeps must sample them from a single domain, in order. *)
let get_scan_mix ?(zipf_alpha = 0.0) store ~seed:_ =
  let pick = key_picker ~entry:"get_scan_mix" ~keyspace_size:(keyspace store) ~zipf_alpha in
  Mix.of_classes ~parallel_safe:false ~name:"LevelDB 50% GET / 50% SCAN"
    [| get_class store ~pick ~weight:0.5; scan_class store ~weight:0.5 |]

let zippydb_mix ?(zipf_alpha = 0.0) store ~seed:_ =
  let pick = key_picker ~entry:"zippydb_mix" ~keyspace_size:(keyspace store) ~zipf_alpha in
  Mix.of_classes ~parallel_safe:false ~name:"LevelDB ZippyDB"
    [|
      get_class store ~pick ~weight:0.78;
      put_class store ~pick ~value_bytes:default_value_bytes ~weight:0.13;
      delete_class store ~pick ~weight:0.06;
      scan_class store ~weight:0.03;
    |]

let measured_means store ~seed =
  let rng = Rng.create ~seed in
  let keyspace_size = keyspace store in
  let sample n f =
    let total = ref 0 in
    for _ = 1 to n do
      total := !total + f ()
    done;
    float_of_int !total /. float_of_int n
  in
  let get_mean =
    sample 200 (fun () ->
        (Store.get store ~key:(key_of_index (Rng.int rng ~bound:keyspace_size))).Store.service_ns)
  in
  let put_mean =
    sample 200 (fun () ->
        let i = Rng.int rng ~bound:keyspace_size in
        (Store.put store ~key:(key_of_index i)
           ~value:(value_of_index ~value_bytes:default_value_bytes i))
          .Store.service_ns)
  in
  let delete_mean =
    sample 50 (fun () ->
        let i = Rng.int rng ~bound:keyspace_size in
        (Store.delete store ~key:(key_of_index i)).Store.service_ns)
  in
  (* Repair the deletions so the caller's store keeps its population. *)
  for i = 0 to keyspace_size - 1 do
    let key = key_of_index i in
    if (Store.get store ~key).Store.found = None then
      ignore (Store.put store ~key ~value:(value_of_index ~value_bytes:default_value_bytes i))
  done;
  let scan_mean = sample 3 (fun () -> (Store.scan store).Store.service_ns) in
  [ ("GET", get_mean); ("PUT", put_mean); ("DELETE", delete_mean); ("SCAN", scan_mean) ]
