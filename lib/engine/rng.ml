(* xoshiro256** by Blackman & Vigna, seeded via splitmix64. Both are public
   domain reference algorithms; we transcribe them directly so simulations
   are reproducible across OCaml versions (unlike Stdlib.Random).

   The 256-bit state is stored as eight 32-bit limbs in immediate [int]
   fields rather than four [int64] fields: without flambda every Int64
   intermediate is boxed, which put ~170 heap bytes on every draw — and the
   simulator draws on the critical path of every request. The limb
   arithmetic below reproduces the 64-bit reference bit for bit (the
   golden-stream tests in test_rng.ml compare against fixed seeds, and
   [bits64] reassembles the exact reference output). *)

type t = {
  mutable s0h : int;
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  (* last output, as limbs; written by [step], never read across draws *)
  mutable rh : int;
  mutable rl : int;
}

let mask32 = 0xFFFFFFFF

(* Seeding is cold, so the splitmix64 reference can stay on boxed Int64. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let hi_of v = Int64.to_int (Int64.shift_right_logical v 32)
let lo_of v = Int64.to_int (Int64.logand v 0xFFFFFFFFL)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  {
    s0h = hi_of s0;
    s0l = lo_of s0;
    s1h = hi_of s1;
    s1l = lo_of s1;
    s2h = hi_of s2;
    s2l = lo_of s2;
    s3h = hi_of s3;
    s3l = lo_of s3;
    rh = 0;
    rl = 0;
  }

(* One xoshiro256** step:
     result = rotl (s1 * 5) 7 * 9
     t = s1 << 17
     s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl s3 45
   on (hi, lo) 32-bit limbs, modulo 2^64 throughout. Multiplications by the
   constants 5 and 9 become shift-and-add so no partial product leaves the
   63-bit immediate range. *)
let step t =
  let s1h = t.s1h and s1l = t.s1l in
  (* m = s1 * 5 = (s1 << 2) + s1 *)
  let ml_full = ((s1l lsl 2) land mask32) + s1l in
  let ml = ml_full land mask32 in
  let mh = (((s1h lsl 2) land mask32) lor (s1l lsr 30)) + s1h + (ml_full lsr 32) land mask32 in
  let mh = mh land mask32 in
  (* r = rotl m 7 *)
  let rh = ((mh lsl 7) land mask32) lor (ml lsr 25) in
  let rl = ((ml lsl 7) land mask32) lor (mh lsr 25) in
  (* result = r * 9 = (r << 3) + r *)
  let resl_full = ((rl lsl 3) land mask32) + rl in
  let resl = resl_full land mask32 in
  let resh = ((((rh lsl 3) land mask32) lor (rl lsr 29)) + rh + (resl_full lsr 32)) land mask32 in
  (* tmp = s1 << 17 *)
  let tmph = ((s1h lsl 17) land mask32) lor (s1l lsr 15) in
  let tmpl = (s1l lsl 17) land mask32 in
  (* state update *)
  let s2h = t.s2h lxor t.s0h and s2l = t.s2l lxor t.s0l in
  let s3h = t.s3h lxor s1h and s3l = t.s3l lxor s1l in
  t.s1h <- s1h lxor s2h;
  t.s1l <- s1l lxor s2l;
  t.s0h <- t.s0h lxor s3h;
  t.s0l <- t.s0l lxor s3l;
  t.s2h <- s2h lxor tmph;
  t.s2l <- s2l lxor tmpl;
  (* s3 = rotl s3 45 *)
  t.s3h <- ((s3l lsl 13) land mask32) lor (s3h lsr 19);
  t.s3l <- ((s3h lsl 13) land mask32) lor (s3l lsr 19);
  t.rh <- resh;
  t.rl <- resl

let bits64 t =
  step t;
  Int64.logor (Int64.shift_left (Int64.of_int t.rh) 32) (Int64.of_int t.rl)

let split t =
  (* Int64.to_int keeps the low 63 bits; OCaml's native [lsl] wraps the same
     way, but the boxed path is clearer and [split] is cold. *)
  let seed = Int64.to_int (bits64 t) in
  create ~seed

(* Top 53 bits scaled into [0,1). [(v >>> 11)] as limbs is
   [(hi << 21) + (lo >>> 11)], an exact integer below 2^53. *)
let float t =
  step t;
  float_of_int ((t.rh lsl 21) lor (t.rl lsr 11)) *. 0x1.0p-53

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo over 63 random bits; the bias is bound/2^63, far below anything
     a simulation of < 2^40 draws can observe. *)
  step t;
  if bound <= 0x40000000 then begin
    (* r = v >>> 1 = hi * 2^31 + (lo >>> 1); reduce limb-wise so the
       product stays well inside the immediate range. *)
    let m = ((t.rh mod bound) * (0x80000000 mod bound)) + ((t.rl lsr 1) mod bound) in
    m mod bound
  end
  else begin
    let v = Int64.logor (Int64.shift_left (Int64.of_int t.rh) 32) (Int64.of_int t.rl) in
    let r = Int64.shift_right_logical v 1 in
    Int64.to_int (Int64.rem r (Int64.of_int bound))
  end

let bool t =
  step t;
  t.rl land 1 = 1

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t in
  -.mean *. log u

let normal t ~mu ~sigma =
  let rec nonzero () =
    let u = float t in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let rec normal_positive t ~mu ~sigma =
  let x = normal t ~mu ~sigma in
  if x >= mu then x else normal_positive t ~mu ~sigma

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let pareto t ~scale ~shape =
  if scale <= 0.0 || shape <= 0.0 then invalid_arg "Rng.pareto: parameters must be positive";
  let u = 1.0 -. float t in
  scale /. (u ** (1.0 /. shape))

let categorical t ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.categorical: weights must sum to a positive value";
  let x = float t *. total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else scan (i + 1) acc
  in
  scan 0 0.0
