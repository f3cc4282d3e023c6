(* Array-based binary min-heap ordered by (key, seq); seq is a per-heap
   insertion counter that breaks ties FIFO so simulation replays are
   deterministic. Position 0 of the heap arrays is the root.

   Slot layout. The heap order lives in three plain [int] arrays indexed by
   heap position: [keys], [seqs] and [slots]. A payload never moves: [add]
   stores it once in [vals.(s)] for a free slot [s], and the sifts shuffle
   only the slot number. Writing an [int] array needs no GC write barrier,
   so each event pays one barrier (its [vals] store) instead of one per
   sift level, and the remembered set no longer fills up and forces early
   minor collections. [slots] is a permutation of [0 .. cap-1]: positions
   below [size] hold the live entries' slots, and positions from [size] up
   hold the free ones, so no separate free list is needed. [add] takes
   [slots.(size)]; a pop parks the root's slot at the vacated position
   [size]; [grow] fills the new tail with fresh slot numbers. A popped
   payload stays reachable from [vals] until its slot is reused. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    slots = Array.init capacity Fun.id;
    vals = [||];
    size = 0;
    next_seq = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

(* Called only when full, so [slots] is a permutation of [0 .. old-1] and
   every old slot of [vals] is live. *)
let grow h v =
  let old = Array.length h.keys in
  let cap = old * 2 in
  let keys = Array.make cap 0
  and seqs = Array.make cap 0
  and slots = Array.init cap Fun.id
  and vals = Array.make cap v in
  Array.blit h.keys 0 keys 0 old;
  Array.blit h.seqs 0 seqs 0 old;
  Array.blit h.slots 0 slots 0 old;
  Array.blit h.vals 0 vals 0 old;
  h.keys <- keys;
  h.seqs <- seqs;
  h.slots <- slots;
  h.vals <- vals

(* The sifts move the hole rather than swapping entries pairwise: the entry
   being placed rides in registers while displaced entries shift one
   position, so each level costs one store per array. All three arrays hold
   [int]s, so none of those stores runs the write barrier. The final layout
   is identical to a swap-based sift, and the (key, seq) order is total, so
   pop order — and therefore simulation output — is unchanged. Indices stay
   below [size] by construction, hence the unsafe accesses. *)

let place h key seq s i =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i s

let rec sift_up h key seq s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let kp = Array.unsafe_get h.keys p in
    if key < kp || (key = kp && seq < Array.unsafe_get h.seqs p) then begin
      Array.unsafe_set h.keys i kp;
      Array.unsafe_set h.seqs i (Array.unsafe_get h.seqs p);
      Array.unsafe_set h.slots i (Array.unsafe_get h.slots p);
      sift_up h key seq s p
    end
    else place h key seq s i
  end
  else place h key seq s i

let rec sift_down h key seq s i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let r = l + 1 in
    let c =
      if r < h.size then begin
        let kl = Array.unsafe_get h.keys l and kr = Array.unsafe_get h.keys r in
        if kr < kl || (kr = kl && Array.unsafe_get h.seqs r < Array.unsafe_get h.seqs l) then r
        else l
      end
      else l
    in
    let kc = Array.unsafe_get h.keys c in
    if kc < key || (kc = key && Array.unsafe_get h.seqs c < seq) then begin
      Array.unsafe_set h.keys i kc;
      Array.unsafe_set h.seqs i (Array.unsafe_get h.seqs c);
      Array.unsafe_set h.slots i (Array.unsafe_get h.slots c);
      sift_down h key seq s c
    end
    else place h key seq s i
  end
  else place h key seq s i

let add h ~key v =
  if Array.length h.vals = 0 then h.vals <- Array.make (Array.length h.keys) v
  else if h.size = Array.length h.keys then grow h v;
  let i = h.size in
  let s = Array.unsafe_get h.slots i in
  Array.unsafe_set h.vals s v;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.size <- i + 1;
  sift_up h key seq s i

let min_key h = if h.size = 0 then None else Some h.keys.(0)

(* Removes the root and returns its slot. The last entry is re-placed from
   the root down, and the root's slot is parked at the vacated position
   [n], the head of the free region. *)
let remove_root h =
  let s = Array.unsafe_get h.slots 0 in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then
    sift_down h (Array.unsafe_get h.keys n) (Array.unsafe_get h.seqs n)
      (Array.unsafe_get h.slots n) 0;
  Array.unsafe_set h.slots n s;
  s

(* Non-allocating variants of [min_key]/[pop] for the event-loop hot path.
   Callers must guard with [is_empty]: on an empty heap [unsafe_min_key]
   returns whatever stale key sits at position 0, and [pop_unsafe] raises. *)
let unsafe_min_key h = Array.unsafe_get h.keys 0

let pop_unsafe h =
  if h.size = 0 then invalid_arg "Heap.pop_unsafe: empty";
  Array.unsafe_get h.vals (remove_root h)

let pop h =
  if h.size = 0 then None
  else begin
    let key = h.keys.(0) in
    let v = Array.unsafe_get h.vals (remove_root h) in
    Some (key, v)
  end

let clear h =
  h.size <- 0;
  h.next_seq <- 0

let iter h ~f =
  for i = 0 to h.size - 1 do
    f ~key:h.keys.(i) h.vals.(h.slots.(i))
  done
