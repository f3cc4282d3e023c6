(* Power-of-two ring so head/tail wrap with a mask instead of mod. [head]
   and [tail] are monotonically increasing logical positions; the physical
   slot is [pos land mask]. *)

type 'a t = {
  mutable buf : 'a array;
  mutable mask : int;
  mutable head : int;
  mutable tail : int;
  dummy : 'a;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(capacity = 16) ~dummy () =
  let cap = pow2_at_least (max capacity 2) 2 in
  { buf = Array.make cap dummy; mask = cap - 1; head = 0; tail = 0; dummy }

let length t = t.tail - t.head
let is_empty t = t.tail = t.head

let grow t =
  let old_cap = Array.length t.buf in
  let cap = old_cap * 2 in
  let buf = Array.make cap t.dummy in
  (* Unroll the old ring into the front of the new array. *)
  let n = length t in
  for i = 0 to n - 1 do
    buf.(i) <- t.buf.((t.head + i) land t.mask)
  done;
  t.buf <- buf;
  t.mask <- cap - 1;
  t.head <- 0;
  t.tail <- n

let push t v =
  if length t = Array.length t.buf then grow t;
  t.buf.(t.tail land t.mask) <- v;
  t.tail <- t.tail + 1

let pop_unsafe t =
  if is_empty t then invalid_arg "Ring.pop_unsafe: empty";
  let i = t.head land t.mask in
  let v = t.buf.(i) in
  t.buf.(i) <- t.dummy;
  t.head <- t.head + 1;
  v

let peek_unsafe t =
  if is_empty t then invalid_arg "Ring.peek_unsafe: empty";
  t.buf.(t.head land t.mask)
