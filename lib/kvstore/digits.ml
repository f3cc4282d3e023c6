(* "00" "01" ... "99": the two digits of each pair [p] at [2p]. *)
let pairs =
  String.init 200 (fun k -> Char.chr (48 + if k land 1 = 0 then k / 20 else k / 2 mod 10))

let negative fn n = invalid_arg (Printf.sprintf "Digits.%s: %d is negative" fn n)

let too_narrow n width =
  invalid_arg (Printf.sprintf "Digits.write: %d does not fit in %d characters" n width)

(* A 63-bit int has at most 19 digits. *)
let width n =
  if n < 0 then negative "width" n;
  let k = ref 1 and lim = ref 10 in
  while !k < 19 && n >= !lim do
    incr k;
    if !k < 19 then lim := !lim * 10
  done;
  !k

(* The digits right to left, two per division, into [pos .. pos + width - 1]. *)
let write b ~pos ~width n =
  if n < 0 then negative "write" n;
  if width < 1 then too_narrow n width;
  if pos < 0 || pos > Bytes.length b - width then
    invalid_arg (Printf.sprintf "Digits.write: width %d at %d is outside the bytes" width pos);
  let m = ref n and k = ref (pos + width - 2) in
  while !k >= pos do
    let q = !m / 100 in
    let p = 2 * (!m - (100 * q)) in
    Bytes.unsafe_set b !k (String.unsafe_get pairs p);
    Bytes.unsafe_set b (!k + 1) (String.unsafe_get pairs (p + 1));
    m := q;
    k := !k - 2
  done;
  if !k = pos - 1 then begin
    let q = !m / 10 in
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 + !m - (10 * q)));
    m := q
  end;
  if !m <> 0 then too_narrow n width
