module Heap = Repro_engine.Heap
module Gittins = Repro_workload.Gittins

type kind =
  | Fcfs
  | Srpt
  | Srpt_noisy of { sigma : float }
  | Srpt_kv of { means_ns : int array }
  | Gittins of Gittins.t
  | Locality_fcfs

let kind_name = function
  | Fcfs -> "fcfs"
  | Srpt -> "srpt"
  | Srpt_noisy { sigma } -> Printf.sprintf "srpt-noisy:%g" sigma
  | Srpt_kv _ -> "srpt-kv"
  | Gittins _ -> "gittins"
  | Locality_fcfs -> "locality-fcfs"

(* Doubly-linked queue with O(1) push/pop and in-place removal, used by the
   list-ordered policies. Nodes are threaded onto a second intrusive list
   of never-started requests, so the work-conserving dispatcher's
   "anything stealable?" check is O(1) instead of a full-queue scan under
   backlog. Membership is decided by [req.started] at push time, which is
   sound because the server only flips [started] after removing a request
   from the central queue. *)
module Dlq = struct
  type node = {
    req : Request.t;
    mutable prev : node option;
    mutable next : node option;
    mutable fprev : node option; (* fresh-sublist links *)
    mutable fnext : node option;
    mutable in_fresh : bool;
  }

  type t = {
    mutable head : node option;
    mutable tail : node option;
    mutable size : int;
    mutable fhead : node option;
    mutable ftail : node option;
    mutable n_fresh : int;
  }

  let create () =
    { head = None; tail = None; size = 0; fhead = None; ftail = None; n_fresh = 0 }

  let push_tail t req =
    let fresh = not req.Request.started in
    let node =
      { req; prev = t.tail; next = None; fprev = t.ftail; fnext = None; in_fresh = fresh }
    in
    (match t.tail with None -> t.head <- Some node | Some tl -> tl.next <- Some node);
    t.tail <- Some node;
    t.size <- t.size + 1;
    if fresh then begin
      (match t.ftail with None -> t.fhead <- Some node | Some ftl -> ftl.fnext <- Some node);
      t.ftail <- Some node;
      t.n_fresh <- t.n_fresh + 1
    end
    else node.fprev <- None

  let remove t node =
    (match node.prev with None -> t.head <- node.next | Some p -> p.next <- node.next);
    (match node.next with None -> t.tail <- node.prev | Some n -> n.prev <- node.prev);
    node.prev <- None;
    node.next <- None;
    t.size <- t.size - 1;
    if node.in_fresh then begin
      (match node.fprev with None -> t.fhead <- node.fnext | Some p -> p.fnext <- node.fnext);
      (match node.fnext with None -> t.ftail <- node.fprev | Some n -> n.fprev <- node.fprev);
      node.fprev <- None;
      node.fnext <- None;
      node.in_fresh <- false;
      t.n_fresh <- t.n_fresh - 1
    end

  let pop_head t =
    match t.head with
    | None -> None
    | Some node ->
      remove t node;
      Some node.req

  (* Both lists append at the tail, so the fresh sublist preserves main-list
     (arrival) order: popping its head is exactly the first not-started
     request the old full scan would have found. *)
  let pop_fresh_head t =
    match t.fhead with
    | None -> None
    | Some node ->
      remove t node;
      Some node.req

  let find t ~limit ~pred =
    let rec scan node i =
      match node with
      | None -> None
      | Some n ->
        if i >= limit then None
        else if pred n.req then Some n
        else scan n.next (i + 1)
    in
    scan t.head 0
end

(* How many queue entries the locality policy may inspect; bounded so the
   dispatcher's pick stays O(1) like the real system's. *)
let locality_scan_limit = 8

(* Rank-ordered policies share one two-heap structure: [fresh] holds
   never-executed requests, [started] the preempted ones, each keyed by the
   policy's rank (lower = served sooner, in ns of equivalent remaining
   work). Keeping the heaps separate is what gives pop_not_started /
   has_not_started their O(1) answers for the stealing dispatcher. *)
type t =
  | List_queue of { kind : kind; q : Dlq.t }
  | Rank_queue of {
      kind : kind;
      fresh : Request.t Heap.t;
      started : Request.t Heap.t;
      fresh_key : Request.t -> int;
      started_key : Request.t -> int;
    }

(* Remaining work according to the (possibly noisy) estimate; clamped at 1
   so an underestimated request that outlives its estimate becomes
   highest-priority and runs to completion — the standard noisy-SRPT
   behaviour. With exact estimates this equals [Request.remaining_ns]
   (which is >= 1 for any queued request), so [Srpt_noisy {sigma = 0.}]
   is bit-identical to [Srpt]. *)
let estimated_remaining (r : Request.t) = Int.max 1 (r.Request.estimate_ns - r.Request.done_ns)

let create = function
  | Fcfs -> List_queue { kind = Fcfs; q = Dlq.create () }
  | Locality_fcfs -> List_queue { kind = Locality_fcfs; q = Dlq.create () }
  | Srpt ->
    Rank_queue
      {
        kind = Srpt;
        fresh = Heap.create ();
        started = Heap.create ();
        fresh_key = (fun r -> r.Request.service_ns);
        started_key = Request.remaining_ns;
      }
  | (Srpt_noisy _ | Srpt_kv _) as kind ->
    Rank_queue
      {
        kind;
        fresh = Heap.create ();
        started = Heap.create ();
        fresh_key = (fun r -> r.Request.estimate_ns);
        started_key = estimated_remaining;
      }
  | Gittins table as kind ->
    let rank0 = Gittins.rank0_ns table in
    Rank_queue
      {
        kind;
        fresh = Heap.create ();
        started = Heap.create ();
        fresh_key = (fun _ -> rank0);
        started_key = (fun r -> Gittins.rank_ns table ~age_ns:r.Request.done_ns);
      }

let kind = function List_queue { kind; _ } | Rank_queue { kind; _ } -> kind

let length = function
  | List_queue { q; _ } -> q.Dlq.size
  | Rank_queue { fresh; started; _ } -> Heap.length fresh + Heap.length started

let is_empty t = length t = 0

let push_new t req =
  match t with
  | List_queue { q; _ } -> Dlq.push_tail q req
  | Rank_queue { fresh; fresh_key; _ } -> Heap.add fresh ~key:(fresh_key req) req

let push_preempted t req =
  match t with
  | List_queue { q; _ } -> Dlq.push_tail q req
  | Rank_queue { started; started_key; _ } -> Heap.add started ~key:(started_key req) req

let pop t ~worker =
  match t with
  | List_queue { kind = Locality_fcfs; q } -> begin
    let local =
      Dlq.find q ~limit:locality_scan_limit ~pred:(fun r -> r.Request.last_worker = worker)
    in
    match local with
    | Some node ->
      Dlq.remove q node;
      Some node.Dlq.req
    | None -> Dlq.pop_head q
  end
  | List_queue { q; _ } -> Dlq.pop_head q
  | Rank_queue { fresh; started; _ } ->
    (* Unboxed heap accessors: no (key, value) tuple or nested option per
       pop. Ties between the two heaps go to [fresh], as before. *)
    let no_fresh = Heap.is_empty fresh and no_started = Heap.is_empty started in
    if no_fresh && no_started then None
    else if
      no_started || ((not no_fresh) && Heap.next_key fresh <= Heap.next_key started)
    then Some (Heap.pop_unsafe fresh)
    else Some (Heap.pop_unsafe started)

let pop_not_started t =
  match t with
  | List_queue { q; _ } -> Dlq.pop_fresh_head q
  | Rank_queue { fresh; _ } ->
    if Heap.is_empty fresh then None else Some (Heap.pop_unsafe fresh)

let has_not_started t =
  match t with
  | List_queue { q; _ } -> q.Dlq.n_fresh > 0
  | Rank_queue { fresh; _ } -> not (Heap.is_empty fresh)

(* ---- spec parsing ----------------------------------------------------- *)

let spec_syntax = "fcfs | srpt | srpt-noisy[:SIGMA] | srpt-kv | gittins | locality-fcfs"

(* Per-class empirical mean service times, sampled with a dedicated
   fixed-seed stream like {!Gittins.of_mix} (same caveat about stateful
   kvstore-backed generators: the table is built before the simulation
   streams split, so determinism is unaffected). Classes the sampler never
   hits fall back to the declared class mean. *)
let srpt_kv_samples = 4_096
let srpt_kv_seed = 0x51eb

let srpt_kv_of_mix (mix : Repro_workload.Mix.t) =
  let n = Array.length mix.Repro_workload.Mix.classes in
  let sums = Array.make n 0.0
  and counts = Array.make n 0 in
  let rng = Repro_engine.Rng.create ~seed:srpt_kv_seed in
  for _ = 1 to srpt_kv_samples do
    let p = Repro_workload.Mix.sample mix rng in
    sums.(p.Repro_workload.Mix.class_id) <-
      sums.(p.Repro_workload.Mix.class_id) +. float_of_int p.Repro_workload.Mix.service_ns;
    counts.(p.Repro_workload.Mix.class_id) <- counts.(p.Repro_workload.Mix.class_id) + 1
  done;
  let means_ns =
    Array.init n (fun i ->
        if counts.(i) > 0 then max 1 (int_of_float (sums.(i) /. float_of_int counts.(i)))
        else max 1 (int_of_float mix.Repro_workload.Mix.classes.(i).Repro_workload.Mix.mean_ns))
  in
  Srpt_kv { means_ns }

let of_spec spec ~mix =
  let fail () =
    Error (Printf.sprintf "unknown policy %S (expected %s)" spec spec_syntax)
  in
  match spec with
  | "fcfs" -> Ok Fcfs
  | "srpt" -> Ok Srpt
  | "srpt-noisy" -> Ok (Srpt_noisy { sigma = 1.0 })
  | "srpt-kv" -> Ok (srpt_kv_of_mix mix)
  | "gittins" -> Ok (Gittins (Gittins.of_mix mix))
  | "locality-fcfs" -> Ok Locality_fcfs
  | _ -> (
    match String.index_opt spec ':' with
    | Some i when String.sub spec 0 i = "srpt-noisy" -> (
      let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
      match float_of_string_opt arg with
      | Some sigma when Float.is_finite sigma && sigma >= 0.0 ->
        Ok (Srpt_noisy { sigma })
      | _ -> Error (Printf.sprintf "bad srpt-noisy sigma %S (need a float >= 0)" arg))
    | _ -> fail ())
