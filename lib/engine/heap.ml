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
   [slots.(size)]; a pop or [remove] parks the freed slot at the vacated
   position [size]; [grow] fills the new tail with fresh slot numbers. A
   freed payload stays reachable from [vals] until its slot is reused.

   Position index. [pos] is the inverse permutation of [slots]: for every
   slot [s], [slots.(pos.(s)) = s]. [place], the sifts and the parking
   stores keep it exact with [int] stores only, so an event still costs one
   write barrier. It lets [remove] find a pending entry in O(1).

   Handles. A handle packs an entry's slot (low [slot_bits] bits) with the
   low 32 bits of its seq. It is pending iff its slot sits below [size],
   not in an open hole (below), and the entry there has that seq. A freed
   slot is the next one [add] takes, so the seq is what tells a fired or
   removed entry from a later one in the same slot; seqs are never reset,
   so this holds until the heap has taken 2^32 more entries.

   Hole at the root. [pop_unsafe] frees the root and leaves position 0 empty
   ([hole]) instead of refilling it from the last entry. An event handler
   usually schedules a near-future event next: [add] drops it into the
   hole and sifts it down from the root, where it stops within a level or
   two, instead of a pop sifting the last entry all the way down and the
   push sifting back up. [remove] works around the hole; every other
   operation first settles it, refilling it from the last entry as a pop
   does. While the hole is open, [size] counts it, [slots.(0)] holds a
   free slot, and [keys.(0)]/[seqs.(0)] still hold the taken entry's
   (key, seq), which orders before every entry left, so no sift ever
   moves an entry into the hole. *)

type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array;
  mutable vals : 'a array;
  mutable size : int; (* positions in use, an open hole included *)
  mutable hole : bool; (* position 0 is empty: [pop_unsafe] freed it *)
  mutable next_seq : int;
}

type handle = int

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let tag_mask = 0xFFFF_FFFF

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  if capacity > slot_mask + 1 then invalid_arg "Heap.create: capacity exceeds 2^30";
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    slots = Array.init capacity Fun.id;
    pos = Array.init capacity Fun.id;
    vals = [||];
    size = 0;
    hole = false;
    next_seq = 0;
  }

(* Called only when full, so [slots] is a permutation of [0 .. old-1] and
   every old slot of [vals] is live. The new tail's slots sit at their own
   positions, so [pos] is the identity there too. *)
let grow h v =
  let old = Array.length h.keys in
  let cap = old * 2 in
  if cap > slot_mask + 1 then failwith "Heap.add: more than 2^30 pending entries";
  let keys = Array.make cap 0
  and seqs = Array.make cap 0
  and slots = Array.init cap Fun.id
  and pos = Array.init cap Fun.id
  and vals = Array.make cap v in
  Array.blit h.keys 0 keys 0 old;
  Array.blit h.seqs 0 seqs 0 old;
  Array.blit h.slots 0 slots 0 old;
  Array.blit h.pos 0 pos 0 old;
  Array.blit h.vals 0 vals 0 old;
  h.keys <- keys;
  h.seqs <- seqs;
  h.slots <- slots;
  h.pos <- pos;
  h.vals <- vals

(* The sifts move the hole rather than swapping entries pairwise: the entry
   being placed rides in registers while displaced entries shift one
   position, so each level costs one store per array. All four arrays hold
   [int]s, so none of those stores runs the write barrier. The final layout
   is identical to a swap-based sift, and the (key, seq) order is total, so
   pop order — and therefore simulation output — is unchanged. Indices stay
   below [size] by construction, hence the unsafe accesses. *)

let place h key seq s i =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i s;
  Array.unsafe_set h.pos s i

(* Move the entry at position [j] to position [i]. *)
let[@inline] shift h j i =
  Array.unsafe_set h.keys i (Array.unsafe_get h.keys j);
  Array.unsafe_set h.seqs i (Array.unsafe_get h.seqs j);
  let s = Array.unsafe_get h.slots j in
  Array.unsafe_set h.slots i s;
  Array.unsafe_set h.pos s i

(* Does (key, seq) order before the parent of position [i > 0]? *)
let[@inline] before_parent h key seq i =
  let p = (i - 1) / 2 in
  let kp = Array.unsafe_get h.keys p in
  key < kp || (key = kp && seq < Array.unsafe_get h.seqs p)

let rec sift_up h key seq s i =
  if i > 0 && before_parent h key seq i then begin
    let p = (i - 1) / 2 in
    shift h p i;
    sift_up h key seq s p
  end
  else place h key seq s i

(* 1 if the entry at position [j] orders before the one at [i], else 0,
   computed with flag arithmetic instead of [||]/[&&]: which of two
   siblings is smaller is a coin flip, so a branch on it mispredicts about
   half the time. *)
let[@inline] before_flag h j i =
  let kj = Array.unsafe_get h.keys j and ki = Array.unsafe_get h.keys i in
  Bool.to_int (kj < ki)
  lor (Bool.to_int (kj = ki)
      land Bool.to_int (Array.unsafe_get h.seqs j < Array.unsafe_get h.seqs i))

let rec sift_down h key seq s i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let r = l + 1 in
    let c = if r < h.size then l + before_flag h r l else l in
    let kc = Array.unsafe_get h.keys c in
    if kc < key || (kc = key && Array.unsafe_get h.seqs c < seq) then begin
      shift h c i;
      sift_down h key seq s c
    end
    else place h key seq s i
  end
  else place h key seq s i

(* Frees the entry at position [i] and returns its slot. The last entry
   fills the hole, sifted up or down from [i], and the freed slot is parked
   at the vacated position [n], the head of the free region. *)
let remove_at h i =
  let s = Array.unsafe_get h.slots i in
  let n = h.size - 1 in
  h.size <- n;
  if i < n then begin
    let key = Array.unsafe_get h.keys n
    and seq = Array.unsafe_get h.seqs n
    and last = Array.unsafe_get h.slots n in
    if i > 0 && before_parent h key seq i then sift_up h key seq last i
    else sift_down h key seq last i
  end;
  Array.unsafe_set h.slots n s;
  Array.unsafe_set h.pos s n;
  s

(* Refill an open hole from the last entry, as [pop] removes a root. *)
let refill h =
  h.hole <- false;
  ignore (remove_at h 0 : int)

(* Every operation but [add] and [remove] starts here, so only the test is
   inlined; the refill is the rare path. *)
let[@inline] settle h = if h.hole then refill h

let length h =
  settle h;
  h.size

let is_empty h =
  settle h;
  h.size = 0

let add_removable h ~key v =
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let s =
    if h.hole then begin
      (* The hole's slot is the one a pop would have freed for this add. *)
      h.hole <- false;
      let s = Array.unsafe_get h.slots 0 in
      Array.unsafe_set h.vals s v;
      sift_down h key seq s 0;
      s
    end
    else begin
      if Array.length h.vals = 0 then h.vals <- Array.make (Array.length h.keys) v
      else if h.size = Array.length h.keys then grow h v;
      let i = h.size in
      let s = Array.unsafe_get h.slots i in
      Array.unsafe_set h.vals s v;
      h.size <- i + 1;
      sift_up h key seq s i;
      s
    end
  in
  ((seq land tag_mask) lsl slot_bits) lor s

let add h ~key v = ignore (add_removable h ~key v : handle)

let min_key h = if is_empty h then None else Some h.keys.(0)

(* With the hole open, the removed entry sits below the root, and the last
   entry that refills its position never sifts into the hole (see the top
   of the file). Its freed slot then swaps with the hole's, so the free
   slots come back in the order a root refill and then [remove] would have
   freed them. *)
let remove h (hd : handle) =
  let s = hd land slot_mask in
  let i = if hd >= 0 && s < Array.length h.pos then Array.unsafe_get h.pos s else max_int in
  if
    i >= h.size
    || (i = 0 && h.hole)
    || Array.unsafe_get h.seqs i land tag_mask <> hd lsr slot_bits
  then invalid_arg "Heap.remove: handle is not pending";
  let s = remove_at h i in
  if h.hole then begin
    let n = h.size and s0 = Array.unsafe_get h.slots 0 in
    Array.unsafe_set h.slots 0 s;
    Array.unsafe_set h.pos s 0;
    Array.unsafe_set h.slots n s0;
    Array.unsafe_set h.pos s0 n
  end

(* Non-allocating variants of [min_key]/[pop] for the event-loop hot path.
   [next_key] answers [max_int] for an empty heap, so a loop that reads
   the key settles the hole once and needs no [is_empty] before it; the
   [pop_unsafe] that follows finds the root settled. [pop_unsafe] raises
   on an empty heap and leaves the hole open (see the top of the file). *)
let next_key h =
  settle h;
  if h.size = 0 then max_int else Array.unsafe_get h.keys 0

let pop_unsafe h =
  settle h;
  if h.size = 0 then invalid_arg "Heap.pop_unsafe: empty";
  h.hole <- true;
  Array.unsafe_get h.vals (Array.unsafe_get h.slots 0)

let pop h =
  if is_empty h then None
  else begin
    let key = h.keys.(0) in
    let v = Array.unsafe_get h.vals (remove_at h 0) in
    Some (key, v)
  end

(* [next_seq] is not reset, so no handle taken before the clear can match
   an entry added after it. Ties compare seqs only relative to each other,
   so later entries keep their FIFO order either way. *)
let clear h =
  h.hole <- false;
  h.size <- 0

let iter h ~f =
  settle h;
  for i = 0 to h.size - 1 do
    f ~key:h.keys.(i) h.vals.(h.slots.(i))
  done
