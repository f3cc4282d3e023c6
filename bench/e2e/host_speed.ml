(* The host's speed, probed between timed runs.

   This benchmark shares its machine with other tenants, and their load
   slows every timed run of a window by a common factor: the same run can
   read 1.7x slower for minutes at a time. A fixed kernel that uses no code
   of the repository is timed before each run; the median of those probes
   against [nominal_ns], the kernel's median on the reference host, gives
   the window's slowdown, and the end-to-end times are divided by it. A
   change to the simulator moves the runs and never the probe.

   The kernel allocates nothing, so GC settings cannot move it either. Its
   time is mostly dependent cache misses over an 8 MiB array plus a binary
   heap of ints, the two costs that dominate an event-driven run. *)

let nominal_ns = 28e6

let chase =
  lazy
    (let n = 1 lsl 20 in
     let a = Array.init n Fun.id in
     (* one random cycle through every slot (Sattolo's shuffle) *)
     let st = ref 12345 in
     for i = n - 1 downto 1 do
       st := ((!st * 1103515245) + 12345) land 0x3fffffff;
       let j = !st mod i in
       let t = a.(i) in
       a.(i) <- a.(j);
       a.(j) <- t
     done;
     a)

let heap = Array.make 4096 0

let kernel a =
  let size = ref 0 and st = ref 12345 and p = ref 0 in
  let rnd () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let push k =
    let i = ref !size in
    incr size;
    heap.(!i) <- k;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < heap.(!i) then begin
          swap c !i;
          i := c
        end
        else sifting := false
      end
    done;
    top
  in
  for _ = 1 to 2048 do
    push (rnd ())
  done;
  for _ = 1 to 150_000 do
    let k = pop () in
    p := a.(!p);
    push (k + (rnd () land 0xffff) + (!p land 1))
  done;
  Sys.opaque_identity !p

(* Wall time of one kernel run, in ns. *)
let probe () =
  let a = Lazy.force chase in
  let t0 = Workloads.now_ns () in
  ignore (kernel a : int);
  Workloads.now_ns () - t0
