type t = { n : int; cdf : float array }

let create ~n ~alpha =
  if n < 1 then invalid_arg "Zipf.create: n must be positive";
  if not (alpha >= 0.0) then
    invalid_arg (Printf.sprintf "Zipf.create: alpha %g is not a non-negative number" alpha);
  let weights = Array.init n (fun k -> (1.0 /. float_of_int (k + 1)) ** alpha) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  { n; cdf }

let sample t rng =
  let u = Rng.float rng in
  (* Smallest index whose cumulative mass reaches u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) < u then search (mid + 1) hi else search lo mid
    end
  in
  search 0 (t.n - 1)

let probability t k =
  if k < 0 || k >= t.n then invalid_arg "Zipf.probability: rank out of range";
  if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
