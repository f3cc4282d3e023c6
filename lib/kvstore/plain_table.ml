type t = { keys : string array; vals : Skiplist.entry array }

let of_sorted ~keys ~vals =
  let n = Array.length keys in
  if Array.length vals <> n then
    invalid_arg "Plain_table.of_sorted: keys and vals differ in length";
  for i = 1 to n - 1 do
    if String.compare keys.(i - 1) keys.(i) >= 0 then
      invalid_arg "Plain_table.of_sorted: keys not strictly ascending"
  done;
  { keys; vals }

let length t = Array.length t.keys

let get ?meter t ~key =
  let charge () =
    match meter with
    | None -> ()
    | Some m ->
      Cost_meter.table_probe m;
      Cost_meter.key_compare m
  in
  let rec search lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      charge ();
      let c = String.compare key t.keys.(mid) in
      if c = 0 then Some t.vals.(mid)
      else if c < 0 then search lo mid
      else search (mid + 1) hi
    end
  in
  search 0 (Array.length t.keys)

let keys t = t.keys
let vals t = t.vals

module Cursor = struct
  type cursor = { table : t; mutable idx : int }

  let start table = { table; idx = 0 }
  let at_end c = c.idx >= Array.length c.table.keys

  (* Past the end, the bounds check raises [Invalid_argument]. *)
  let key c = c.table.keys.(c.idx)
  let entry c = c.table.vals.(c.idx)

  let advance ?meter c =
    (match meter with None -> () | Some m -> Cost_meter.iter_step m);
    if c.idx < Array.length c.table.keys then c.idx <- c.idx + 1
end
