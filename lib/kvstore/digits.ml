(* "00" "01" ... "99": the two digits of each pair [p] at [2p]. *)
let pairs =
  String.init 200 (fun k -> Char.chr (48 + if k land 1 = 0 then k / 20 else k / 2 mod 10))

let too_narrow n width =
  invalid_arg (Printf.sprintf "Digits.write: %d does not fit in %d characters" n width)

(* A 63-bit int has at most 19 digits; [-|n|] exists for every int
   ([min_int] has no positive counterpart). *)
let width n =
  let m = if n > 0 then -n else n in
  let k = ref 1 and lim = ref (-10) in
  while !k < 19 && m <= !lim do
    incr k;
    if !k < 19 then lim := !lim * 10
  done;
  if n < 0 then !k + 1 else !k

(* The sign, then the magnitude's digits right to left, two per
   division, into [first .. last]. [min_int]'s magnitude is no int, so
   its last digit goes first and the loop writes the rest. *)
let write b ~pos ~width n =
  if width < (if n < 0 then 2 else 1) then too_narrow n width;
  if pos < 0 || pos > Bytes.length b - width then
    invalid_arg (Printf.sprintf "Digits.write: width %d at %d is outside the bytes" width pos);
  let first = if n < 0 then pos + 1 else pos and last = pos + width - 1 in
  if n < 0 then Bytes.unsafe_set b pos '-';
  let magnitude =
    if n <> min_int then abs n
    else begin
      Bytes.unsafe_set b last (Char.unsafe_chr (48 - (n mod 10)));
      -(n / 10)
    end
  in
  let m = ref magnitude and k = ref (if n <> min_int then last - 1 else last - 2) in
  while !k >= first do
    let q = !m / 100 in
    let p = 2 * (!m - (100 * q)) in
    Bytes.unsafe_set b !k (String.unsafe_get pairs p);
    Bytes.unsafe_set b (!k + 1) (String.unsafe_get pairs (p + 1));
    m := q;
    k := !k - 2
  done;
  if !k = first - 1 then begin
    let q = !m / 10 in
    Bytes.unsafe_set b first (Char.unsafe_chr (48 + !m - (10 * q)));
    m := q
  end;
  if !m <> 0 then too_narrow n width
