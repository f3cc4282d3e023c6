module Calibration = struct
  type t = {
    node_step_ns : float;
    table_probe_ns : float;
    key_compare_ns : float;
    iter_step_ns : float;
    byte_copy_ns : float;
    wal_append_ns : float;
    wal_byte_ns : float;
    lock_ns : float;
    snapshot_ns : float;
  }

  (* Calibrated against the paper's measured service times (§5.3): with
     15 000 keys of ~16 B and ~100 B values these constants land GET at
     ≈ 600 ns, PUT/DELETE at ≈ 2.3 µs, full SCAN at ≈ 500 µs. *)
  let default =
    {
      node_step_ns = 18.0;
      table_probe_ns = 30.0;
      key_compare_ns = 6.0;
      iter_step_ns = 26.5;
      byte_copy_ns = 0.06;
      wal_append_ns = 1_700.0;
      wal_byte_ns = 1.4;
      lock_ns = 25.0;
      snapshot_ns = 40.0;
    }
end

(* The running times live in an all-float record, which OCaml stores flat:
   a charge updates [elapsed] in place. As fields of the mixed record [t],
   every charge (tens per GET) would box a fresh float and pay a write
   barrier. *)
type clock = { mutable elapsed : float; mutable window_start : float }

type t = {
  cal : Calibration.t;
  clock : clock;
  mutable lock_depth : int;
  mutable windows : (int * int) list; (* reversed *)
}

let create ?(calibration = Calibration.default) () =
  { cal = calibration; clock = { elapsed = 0.0; window_start = 0.0 }; lock_depth = 0; windows = [] }

let reset t =
  t.clock.elapsed <- 0.0;
  t.lock_depth <- 0;
  t.clock.window_start <- 0.0;
  t.windows <- []

let elapsed_ns t = int_of_float t.clock.elapsed
let calibration t = t.cal
let charge_ns t ns = if ns > 0.0 then t.clock.elapsed <- t.clock.elapsed +. ns
let node_step t = charge_ns t t.cal.node_step_ns
let table_probe t = charge_ns t t.cal.table_probe_ns
let key_compare t = charge_ns t t.cal.key_compare_ns
let iter_step t = charge_ns t t.cal.iter_step_ns
let copy_bytes t n = charge_ns t (float_of_int n *. t.cal.byte_copy_ns)
let wal_append t n = charge_ns t (t.cal.wal_append_ns +. (float_of_int n *. t.cal.wal_byte_ns))
let snapshot t = charge_ns t t.cal.snapshot_ns

let lock t =
  charge_ns t t.cal.lock_ns;
  if t.lock_depth = 0 then t.clock.window_start <- t.clock.elapsed;
  t.lock_depth <- t.lock_depth + 1

let unlock t =
  if t.lock_depth <= 0 then invalid_arg "Cost_meter.unlock: not locked";
  charge_ns t t.cal.lock_ns;
  t.lock_depth <- t.lock_depth - 1;
  if t.lock_depth = 0 then begin
    let start = int_of_float t.clock.window_start and stop = int_of_float t.clock.elapsed in
    if stop > start then t.windows <- (start, stop) :: t.windows
  end

let lock_windows t =
  let windows =
    if t.lock_depth > 0 then
      (int_of_float t.clock.window_start, int_of_float t.clock.elapsed) :: t.windows
    else t.windows
  in
  let arr = Array.of_list (List.rev windows) in
  arr
