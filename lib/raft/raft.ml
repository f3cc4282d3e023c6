module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Stats = Repro_engine.Stats
module Costs = Repro_hw.Costs
module Mix = Repro_workload.Mix
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Request = Repro_runtime.Request
module Server = Repro_runtime.Server
module Driver = Repro_runtime.Driver
module Tracing = Repro_runtime.Tracing
module Cluster = Repro_cluster.Cluster
module Lb_policy = Repro_cluster.Lb_policy
module Hedge = Repro_cluster.Hedge
module Wal = Repro_kvstore.Wal
module Cost_meter = Repro_kvstore.Cost_meter
module Skiplist = Repro_kvstore.Skiplist

type role = Follower | Candidate | Leader

let role_name = function Follower -> "follower" | Candidate -> "candidate" | Leader -> "leader"

type t = {
  read_lb : Lb_policy.t;
  rtt_cycles : int;
  read_leases : bool;
  write_ratio : float;
  hedge : Hedge.t;
  kill_leader_at_ns : int option;
  cancel_cost_cycles : int option;
  specs : Cluster.instance_spec array;
}

(* Timings are stated in cycles of the members' cost model (2 GHz
   reference clock => 2 cycles per ns) and calibrated against the
   Concord/Ra consensus-overhead table in SNIPPETS.md: a ~50 us direct
   operation becomes ~190 us through a single-member group (local durable
   append dominates) and ~750-800 us through a three-member group (one-way
   wire, follower append, one-way ack ride on top, sequentially as that
   summary breaks them down). *)
let default_rtt_cycles = 880_000 (* 440 us round trip *)
let heartbeat_cycles = 200_000 (* 100 us *)
let election_timeout_cycles = 1_000_000 (* 500 us minimum *)

(* The leader's lease renews when the quorum heartbeat ack returns, one
   full RTT after the grant instant, so a useful lease must outlive the
   RTT by at least a heartbeat period. *)
let lease_cycles = 1_000_000 (* 500 us *)
let log_write_cycles = 280_000 (* 140 us: fsync-class durability *)
let follower_ae_cycles = 360_000 (* 180 us: decode + append + fsync *)

(* Lease safety: a member only grants its vote after its election timeout
   elapsed without leader contact, so no new leader can exist while a
   lease granted by the old one is still valid. *)
let () = assert (lease_cycles <= election_timeout_cycles)

let homogeneous ?(read_lb = Lb_policy.Po2c) ?(rtt_cycles = default_rtt_cycles)
    ?(read_leases = true) ?(write_ratio = 0.5) ?(hedge = Hedge.Off) ?kill_leader_at_ns
    ?cancel_cost_cycles ?(stragglers = []) ~nodes config =
  let fail msg = invalid_arg ("Raft.homogeneous: " ^ msg) in
  if nodes < 1 then fail "need at least one member";
  let specs = Cluster.homogeneous_specs ~who:"Raft.homogeneous" ~stragglers nodes config in
  if rtt_cycles < 0 then fail "rtt_cycles must be >= 0";
  if not (Float.is_finite write_ratio) || write_ratio < 0.0 || write_ratio > 1.0 then
    fail "write_ratio must be in [0, 1]";
  (match kill_leader_at_ns with
  | Some t when t < 0 -> fail "kill_leader_at_ns must be >= 0"
  | _ -> ());
  Config.validate config;
  let valid = function Ok () -> () | Error e -> fail e in
  valid (Lb_policy.validate read_lb);
  valid (Hedge.validate hedge);
  { read_lb; rtt_cycles; read_leases; write_ratio; hedge; kill_leader_at_ns; cancel_cost_cycles;
    specs }

(* Each write adds a durable append at the leader and an AppendEntries
   mini at every follower to its own service time. Capacity is aggregate
   work, so fold that in or a load point derived from it melts the leader. *)
let capacity_rps raft mix =
  let config = raft.specs.(0).Cluster.config in
  let nodes = Array.length raft.specs in
  let ns_of = Costs.ns_of config.Config.costs in
  let consensus_ns =
    float_of_int (ns_of log_write_cycles + ((nodes - 1) * ns_of follower_ae_cycles))
  in
  let eff_service_ns = Mix.mean_service_ns mix +. (raft.write_ratio *. consensus_ns) in
  float_of_int (nodes * config.Config.n_workers) /. eff_service_ns *. 1e9

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  nodes : int;
  read_leases : bool;
  requests : int;
  writes : int;
  reads : int;
  client : Metrics.summary;
  write_mean_ns : float;
  write_p50_ns : float;
  write_p99_ns : float;
  read_mean_ns : float;
  read_p50_ns : float;
  read_p99_ns : float;
  per_node : Metrics.summary array;
  roles : role array;
  alive : bool array;
  final_leader : int option;
  final_term : int;
  elections : int;
  leader_changes : int;
  committed : int;
  commit_indexes : int array;
  log_lengths : int array;
  wal_records : int array;
  resubmissions : int;
  parked : int;
  routed : int array;
  hedges : int;
  hedge_wins : int;
  hedge_cancels : int;
  hedge_wasted_ns : int;
  writes_hedged : int;
  leader_p99_slowdown : float;
  follower_p99_slowdown : float;
  invariant_failures : string list;
}

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

(* Per-member protocol state. The mirror log ([log_terms]/[log_ids]) is
   the semantic Raft log used by elections, conflict truncation and the
   committed-entry-loss invariant; the {!Wal} alongside it is the real
   byte-encoded append path whose record count cross-checks it (it is
   append-only — conflict truncation leaves its superseded records in
   place, like a real log segment awaiting compaction). *)
type node = {
  id : int;
  wal : Wal.t;
  mutable log_terms : int array;
  mutable log_ids : int array;
  mutable log_len : int;
  mutable role : role;
  mutable term : int;
  mutable voted_for : int; (* -1: none this term *)
  mutable votes : int; (* as candidate *)
  mutable alive : bool;
  mutable commit_index : int;
  mutable lease_expiry_ns : int;
  mutable election_timer : Sim.timer; (* pending Election_timeout, or Sim.no_timer *)
  mutable hb_epoch : int; (* stale-heartbeat-chain guard *)
  mutable next_round : int; (* heartbeat round counter (as leader) *)
  hb_rounds : (int, int * int) Hashtbl.t; (* round -> (sent_ns, acks) *)
  pending_ae : (int, int * int * int * int) Hashtbl.t;
      (* index -> (entry_term, req_id, msg_term, leader): processed
         AppendEntries waiting for their predecessor (out-of-order instance
         completion or a log gap being backfilled) *)
  mutable last_nack_len : int; (* damp duplicate backfill requests *)
  mutable sent_upto : int;
      (* as leader: highest index whose AppendEntries have been broadcast.
         Fan-out strictly follows log order even though the durable-append
         minis complete out of order across workers, so followers on FIFO
         links see gaps only around failover/truncation. *)
  elect_rng : Rng.t;
}

(* What a consensus mini-request was doing, keyed by its request id. *)
type mini =
  | Mini_append of { node : int; index : int; term : int }
  | Mini_ae of { node : int; index : int; entry_term : int; req_id : int; msg_term : int; leader : int }

(* A replicating log entry at the current leader, keyed by its index. *)
type entry = {
  e_term : int;
  e_req_id : int;
  e_client : int option; (* client slot to apply on commit *)
  e_leg : Request.t option;
  e_acked : bool array;
      (* per-member ack bitmap: duplicate acks (backfill overlap) must not
         double-count toward the quorum *)
  mutable e_durable : bool;
}

type phase = Parked | Consensus | Served | Done

type client = {
  orig : Request.t;
  is_write : bool;
  mutable leg : Request.t; (* current live leg (a fresh dup after failover) *)
  mutable phase : phase;
  mutable node : int; (* member responsible while Consensus/Served *)
  mutable dup : Request.t option; (* hedge duplicate, lease reads only *)
  mutable dup_node : int;
}

type ev =
  | Arrive
  | Hb_tick of { node : int; epoch : int }
  | Hb_deliver of { node : int; from : int; term : int; sent_ns : int; round : int; leader_commit : int }
  | Hb_ack of { node : int; term : int; round : int }
  | Election_timeout of { node : int }
  | Vote_request of { node : int; from : int; term : int; last_index : int; last_term : int }
  | Vote_grant of { node : int; term : int }
  | Ae_deliver of { node : int; from : int; term : int; index : int; entry_term : int; req_id : int }
  | Ae_ack of { node : int; from : int; term : int; index : int }
  | Ae_nack of { node : int; from : int; term : int; follower_len : int }
  | Backfill_check of { node : int; leader : int; term : int; len : int }
      (* follower-local: if the log gap observed one RTT ago still hasn't
         closed from in-flight deliveries, ask the leader to backfill *)
  | Hedge_fire of { origin : int }
  | Cancel of { node : int; req : Request.t }
  | Kill_leader
  | End_of_run
  | Inst of { node : int; ev : Server.event }

let new_node ~id ~elect_rng =
  {
    id;
    wal = Wal.create ();
    log_terms = Array.make 64 0;
    log_ids = Array.make 64 0;
    log_len = 0;
    role = Follower;
    term = 1;
    voted_for = -1;
    votes = 0;
    alive = true;
    commit_index = 0;
    lease_expiry_ns = 0;
    election_timer = Sim.no_timer;
    hb_epoch = 0;
    next_round = 0;
    hb_rounds = Hashtbl.create 16;
    pending_ae = Hashtbl.create 16;
    last_nack_len = -1;
    sent_upto = 0;
    elect_rng;
  }

let node_last_term nd = if nd.log_len = 0 then 0 else nd.log_terms.(nd.log_len - 1)

let push_log nd ~term ~req_id =
  if nd.log_len = Array.length nd.log_terms then begin
    let cap = 2 * nd.log_len in
    let terms = Array.make cap 0 and ids = Array.make cap 0 in
    Array.blit nd.log_terms 0 terms 0 nd.log_len;
    Array.blit nd.log_ids 0 ids 0 nd.log_len;
    nd.log_terms <- terms;
    nd.log_ids <- ids
  end;
  nd.log_terms.(nd.log_len) <- term;
  nd.log_ids.(nd.log_len) <- req_id;
  nd.log_len <- nd.log_len + 1

(* What one run needs: [run_detailed]'s arguments. *)
type run = { raft : t; inputs : Driver.inputs; tracer : Tracing.t option }

(* ------------------------------------------------------------------ *)
(* The group                                                           *)
(* ------------------------------------------------------------------ *)

(* One run of the group: its values are the run's state, its functions
   the protocol's steps. *)
module Group (R : sig val run : run end) = struct
  let { raft; inputs; tracer } = R.run
  let { Driver.mix; n_requests; warmup_before; _ } = inputs
  let n = Array.length raft.specs
  let quorum = (n / 2) + 1
  let n_classes = Array.length mix.Mix.classes

  (* Consensus mini-requests carry their own class so per-member tables
     separate protocol work from client work. *)
  let raft_class = n_classes
  let costs0 = raft.specs.(0).Cluster.config.Config.costs
  let cyc c = Costs.ns_of costs0 c
  let one_way_ns = cyc raft.rtt_cycles / 2
  let heartbeat_ns = max 1 (cyc heartbeat_cycles)
  let election_timeout_ns = max 1 (cyc election_timeout_cycles)
  let lease_ns = max 1 (cyc lease_cycles)

  (* One representative record through the real WAL encoder prices the
     byte-proportional part of an append (checksum + copy, the kvstore
     cost model); the cycle constants carry the fsync-class latency. *)
  let wal_record_ns =
    let scratch = Wal.create () in
    Wal.append scratch ~key:"e00000000" ~entry:(Skiplist.Value (String.make 48 'v'));
    let calib = Cost_meter.Calibration.default in
    int_of_float
      (calib.Cost_meter.Calibration.wal_append_ns
      +. (float_of_int (Wal.byte_size scratch) *. calib.Cost_meter.Calibration.wal_byte_ns))

  let log_write_ns = cyc log_write_cycles + wal_record_ns
  let follower_ae_ns = cyc follower_ae_cycles + wal_record_ns

  let total_workers =
    Array.fold_left (fun acc (s : Cluster.instance_spec) -> acc + s.config.Config.n_workers) 0
      raft.specs

  let sim : ev Sim.t = Sim.create ~capacity:((4 * total_workers) + (16 * n) + 64) ()
  let driver = Driver.create inputs ~sim ~arrive:Arrive ~end_of_run:End_of_run
  let master = Driver.master driver
  let classify_rng = Rng.split master
  let lb_rng = Rng.split master
  let mech_rngs = Array.init n (fun _ -> Rng.split master)
  let elect_rngs = Array.init n (fun _ -> Rng.split master)
  let nodes = Array.init n (fun i -> new_node ~id:i ~elect_rng:elect_rngs.(i))
  let clients : client option array = Array.make n_requests None
  let client_metrics = Metrics.create ~warmup_before ~n_classes
  let write_soj = Stats.create ()
  let read_soj = Stats.create ()
  let views = Array.make n 0
  let routed = Array.make n 0
  let pending_writes : int Queue.t = Queue.create ()
  let pending_reads : int Queue.t = Queue.create ()
  let lb_state = Lb_policy.make_state ~rng:lb_rng
  let entries : (int, entry) Hashtbl.t = Hashtbl.create 256
  let aux : (int, mini) Hashtbl.t = Hashtbl.create 256
  let committed_log : (int * int * int) list ref = ref []
  let leaders_of_term : (int, int) Hashtbl.t = Hashtbl.create 8
  let violations : string list ref = ref []
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  let leader = ref (Some 0)
  let elections = ref 1 (* the t=0 leader *)
  let leader_changes = ref 0
  let committed = ref 0
  let resubmissions = ref 0
  let parked = ref 0
  let writes_n = ref 0
  let reads_n = ref 0
  (* The slowdown estimate behind pct:/adaptive delays, built only when
     lease reads can hedge: nothing else reads or feeds it. *)
  let estimator =
    if raft.hedge <> Hedge.Off && n > 1 && raft.read_leases then Some (Hedge.make_estimator ())
    else None
  let hedges = ref 0
  let hedge_wins = ref 0
  let hedge_cancels = ref 0
  let hedge_wasted_ns = ref 0
  let writes_hedged = ref 0
  let read_dispatches = ref 0

  (* Mini-requests, hedge duplicates and failover replays get ids past the
     arrival sequence, globally unique across members and traces. *)
  let next_aux = ref n_requests

  let fresh_id () =
    let id = !next_aux in
    incr next_aux;
    id

  let instances : ev Server.Instance.t array ref = ref [||]
  let inst i = !instances.(i)

  let trace_fe ~request kind =
    match tracer with
    | Some tr -> Tracing.record tr ~time_ns:(Sim.now sim) ~request kind
    | None -> ()

  let get_client ci = match clients.(ci) with Some c -> c | None -> assert false

  (* Member [m] takes client leg [leg]. A leg handed on by consensus or by
     lease routing first marks the hand-off, which the breakdown charges
     to its [consensus] component. *)
  let inject_leg ?(replicated = true) m (leg : Request.t) =
    if replicated then
      trace_fe ~request:leg.Request.id (Tracing.Replicated { term = nodes.(m).term });
    views.(m) <- views.(m) + 1;
    routed.(m) <- routed.(m) + 1;
    Server.Instance.inject (inst m) leg

  (* ---- log and replication ------------------------------------------ *)

  (* Every message between members crosses one link, one way. *)
  let send msg = Sim.schedule_after sim ~delay:one_way_ns msg

  (* [msg j] to every live member [j] other than [i]. *)
  let broadcast i msg =
    for j = 0 to n - 1 do
      if j <> i && nodes.(j).alive then send (msg j)
    done

  let set_commit nd v =
    if v < nd.commit_index then
      violate "member %d: commit index regressed %d -> %d" nd.id nd.commit_index v
    else nd.commit_index <- v

  let wal_append nd ~index ~term ~req_id =
    let key = Printf.sprintf "e%08d" index in
    let value = Printf.sprintf "term:%d;req:%d;%s" term req_id (String.make 24 'v') in
    Wal.append nd.wal ~key ~entry:(Skiplist.Value value)

  let mk_mini ~service_ns =
    let profile =
      { Mix.class_id = raft_class; service_ns; lock_windows = [||]; probe_spacing_ns = 0.0 }
    in
    Request.create ~id:(fresh_id ()) ~arrival_ns:(Sim.now sim) ~profile

  (* AppendEntries from leader [nd] to member [j], carrying entry [index]
     of the leader's log. *)
  let append_entries nd j index =
    Ae_deliver
      { node = j; from = nd.id; term = nd.term; index; entry_term = nd.log_terms.(index - 1);
        req_id = nd.log_ids.(index - 1) }

  let broadcast_ae l index = broadcast l (fun j -> append_entries nodes.(l) j index)

  (* Fan AppendEntries out strictly in log order: broadcast every durable
     entry that directly extends what has already been sent. *)
  let advance_sends l =
    let nd = nodes.(l) in
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt entries (nd.sent_upto + 1) with
      | Some e when e.e_durable ->
        nd.sent_upto <- nd.sent_upto + 1;
        broadcast_ae l nd.sent_upto
      | _ -> continue := false
    done

  let acks e = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 e.e_acked

  let apply_entry l e =
    match (e.e_client, e.e_leg) with
    | Some ci, Some leg ->
      let c = get_client ci in
      (* superseded by a failover replay, or already answered *)
      if c.phase <> Done && c.leg == leg then begin
        c.phase <- Served;
        c.node <- l;
        inject_leg l leg
      end
    | _ -> ()

  let try_commit l =
    let nd = nodes.(l) in
    let continue = ref true in
    while !continue do
      let next = nd.commit_index + 1 in
      match Hashtbl.find_opt entries next with
      | Some e when e.e_durable && acks e >= quorum ->
        Hashtbl.remove entries next;
        set_commit nd next;
        committed_log := (next, e.e_term, e.e_req_id) :: !committed_log;
        incr committed;
        apply_entry l e
      | _ -> continue := false
    done

  (* Leader-side start of replication for one log entry. [client = None]
     is a leadership no-op. The local durable append runs as a mini-request
     through the leader's own instance; AppendEntries only fan out once it
     completes (log-then-network, the sequential breakdown the SNIPPETS
     table reports). *)
  let start_entry l client leg =
    let nd = nodes.(l) in
    let index = nd.log_len + 1 in
    let req_id = match (leg : Request.t option) with Some r -> r.Request.id | None -> -1 in
    push_log nd ~term:nd.term ~req_id;
    wal_append nd ~index ~term:nd.term ~req_id;
    Hashtbl.replace entries index
      { e_term = nd.term; e_req_id = req_id; e_client = client; e_leg = leg;
        e_acked = Array.make n false; e_durable = false };
    (match client with
    | Some ci ->
      let c = get_client ci in
      c.phase <- Consensus;
      c.node <- l
    | None -> ());
    let mreq = mk_mini ~service_ns:log_write_ns in
    Hashtbl.replace aux mreq.Request.id (Mini_append { node = l; index; term = nd.term });
    Server.Instance.inject (inst l) mreq

  (* Leader [l]'s durable append of entry [index] completed: the entry
     counts the leader's own ack and may fan out and commit. *)
  let leader_appended l ~index ~term =
    let nd = nodes.(l) in
    if nd.alive && nd.role = Leader && nd.term = term then begin
      match Hashtbl.find_opt entries index with
      | Some e when e.e_term = term ->
        e.e_durable <- true;
        e.e_acked.(l) <- true;
        advance_sends l;
        try_commit l
      | _ -> ()
    end

  (* Follower [f] finished processing the AppendEntries for [index] that
     [ldr] sent in [msg_term]: append it and every buffered successor,
     acking each. *)
  let follower_appended f ~index ~entry_term ~req_id ~msg_term ~ldr =
    let nd = nodes.(f) in
    if nd.alive && msg_term = nd.term then begin
      if index <= nd.log_len && nd.log_terms.(index - 1) = entry_term then
        (* duplicate delivery (backfill overlap): re-ack *)
        send (Ae_ack { node = ldr; from = f; term = msg_term; index })
      else begin
        if index <= nd.log_len then begin
          (* conflicting suffix from a deposed leader: truncate *)
          nd.log_len <- index - 1;
          if nd.commit_index > nd.log_len then
            violate "member %d: truncation below commit index %d" f nd.commit_index
        end;
        Hashtbl.replace nd.pending_ae index (entry_term, req_id, msg_term, ldr);
        let progressed = ref true in
        while !progressed do
          match Hashtbl.find_opt nd.pending_ae (nd.log_len + 1) with
          | Some (et, rid, mt, l2) ->
            Hashtbl.remove nd.pending_ae (nd.log_len + 1);
            push_log nd ~term:et ~req_id:rid;
            wal_append nd ~index:nd.log_len ~term:et ~req_id:rid;
            nd.last_nack_len <- -1;
            send (Ae_ack { node = l2; from = f; term = mt; index = nd.log_len })
          | None -> progressed := false
        done;
        (* Still a gap. In-order fan-out over FIFO links means the
           missing entries are usually already in flight (or queued as
           minis here); only ask the leader to backfill if the gap
           survives a full round trip. *)
        if Hashtbl.length nd.pending_ae > 0 then
          Sim.schedule_after sim
            ~delay:((2 * one_way_ns) + follower_ae_ns)
            (Backfill_check { node = f; leader = ldr; term = msg_term; len = nd.log_len })
      end
    end

  (* ---- terms, elections and leases ---------------------------------- *)

  let lease_valid i = nodes.(i).alive && Sim.now sim < nodes.(i).lease_expiry_ns

  (* Only followers and candidates hold an election timer: becoming leader
     cancels it, and only a leader is ever killed. *)
  let cancel_election nd =
    Sim.cancel sim nd.election_timer;
    nd.election_timer <- Sim.no_timer

  let reset_election i =
    let nd = nodes.(i) in
    if nd.alive && nd.role <> Leader then begin
      cancel_election nd;
      let delay = election_timeout_ns + Rng.int nd.elect_rng ~bound:election_timeout_ns in
      nd.election_timer <- Sim.arm_after sim ~delay (Election_timeout { node = i })
    end

  let adopt_term nd term =
    if term > nd.term then begin
      nd.term <- term;
      nd.voted_for <- -1;
      if nd.role = Leader then nd.hb_epoch <- nd.hb_epoch + 1;
      nd.role <- Follower
    end

  (* Member [nd] hears from the leader of [term], no older than its own:
     it follows that term, a candidate steps down, and its election timer
     restarts. *)
  let hear_leader nd term =
    adopt_term nd term;
    if nd.role = Candidate then nd.role <- Follower;
    reset_election nd.id

  (* ---- clients ------------------------------------------------------ *)

  (* Client [ci] waits in [q] for a leader or a leaseholder. *)
  let park q ci c =
    Queue.push ci q;
    c.phase <- Parked;
    incr parked

  let leased_candidates () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if lease_valid i then acc := i :: !acc
    done;
    !acc

  let choose_read_node () =
    match leased_candidates () with
    | [] -> None
    | cands ->
      let cands = Array.of_list cands in
      let sub_views = Array.map (fun i -> views.(i)) cands in
      (match Lb_policy.choose raft.read_lb lb_state ~views:sub_views with
      | None -> None
      | Some k -> Some cands.(k))

  let arm_hedge ci (leg : Request.t) =
    let c = get_client ci in
    if c.is_write then incr writes_hedged (* guard: never reached from the write path *)
    else
      match estimator with
      | None -> ()
      | Some estimator -> (
        match
          Hedge.delay_ns raft.hedge estimator ~estimate_ns:leg.Request.estimate_ns
            ~lead_ns:leg.Request.estimate_ns
        with
        | Some d -> Sim.schedule_after sim ~delay:d (Hedge_fire { origin = ci })
        | None -> ())

  let serve_read ci m =
    let c = get_client ci in
    (* lease-expiry safety check at the serving instant *)
    if not (lease_valid m) then park pending_reads ci c
    else begin
      c.phase <- Served;
      c.node <- m;
      incr read_dispatches;
      inject_leg m c.leg;
      arm_hedge ci c.leg
    end

  (* Client [ci]'s current leg goes through consensus at a live leader, or
     to a leaseholder when it is a lease read; with neither, it parks. *)
  let route ci =
    let c = get_client ci in
    if c.is_write || not raft.read_leases then begin
      match !leader with
      | Some l when nodes.(l).alive -> start_entry l (Some ci) (Some c.leg)
      | _ -> park pending_writes ci c
    end
    else begin
      match choose_read_node () with
      | Some m -> serve_read ci m
      | None -> park pending_reads ci c
    end

  (* Parked clients proceed in arrival order once a leader or leaseholder
     can take them; one replayed or answered since it parked is dropped
     from its queue. *)
  let drain_parked () =
    (match !leader with
    | Some l when nodes.(l).alive ->
      while not (Queue.is_empty pending_writes) do
        let ci = Queue.pop pending_writes in
        let c = get_client ci in
        if c.phase = Parked then start_entry l (Some ci) (Some c.leg)
      done
    | _ -> ());
    let continue = ref true in
    while !continue && not (Queue.is_empty pending_reads) do
      let ci = Queue.peek pending_reads in
      let c = get_client ci in
      if c.phase <> Parked then ignore (Queue.pop pending_reads)
      else begin
        match choose_read_node () with
        | Some m ->
          ignore (Queue.pop pending_reads);
          serve_read ci m
        | None -> continue := false
      end
    done

  (* The end of the run, at the drain cap or at the last completion: the
     members may still hold consensus minis then. *)
  let censor ~now_ns =
    for ci = 0 to n_requests - 1 do
      match clients.(ci) with
      | Some c when c.phase <> Done -> Metrics.record_censored client_metrics c.orig ~now_ns
      | _ -> ()
    done;
    Array.iter (fun i -> Server.Instance.censor_all i ~now_ns) !instances

  let cancel_leg node (leg : Request.t) =
    leg.Request.cancelled <- true;
    incr hedge_cancels;
    Sim.schedule_after sim ~delay:0 (Cancel { node; req = leg })

  let complete_client c (req : Request.t) =
    c.phase <- Done;
    Metrics.record_completion client_metrics req;
    if Request.origin_id req >= warmup_before then begin
      let soj = float_of_int (Request.sojourn_ns req) in
      if c.is_write then Stats.add write_soj soj else Stats.add read_soj soj
    end;
    (match estimator with
    | Some estimator when not c.is_write ->
      Hedge.observe estimator ~sojourn_ns:(Request.sojourn_ns req)
        ~service_ns:req.Request.service_ns
    | Some _ | None -> ());
    (match c.dup with
    | Some d ->
      let dup_win = d == req in
      if dup_win then begin
        incr hedge_wins;
        cancel_leg c.node c.leg
      end
      else cancel_leg c.dup_node d;
      c.dup <- None
    | None -> ());
    Driver.complete driver

  let on_complete i (req : Request.t) =
    match Hashtbl.find_opt aux req.Request.id with
    | Some m -> (
      Hashtbl.remove aux req.Request.id;
      (* consensus work finished at member [i] *)
      match m with
      | Mini_append { node = l; index; term } -> leader_appended l ~index ~term
      | Mini_ae { node = f; index; entry_term; req_id; msg_term; leader = ldr } ->
        follower_appended f ~index ~entry_term ~req_id ~msg_term ~ldr)
    | None ->
      (* a client leg *)
      views.(i) <- views.(i) - 1;
      let ci = Request.origin_id req in
      (match if ci >= 0 && ci < n_requests then clients.(ci) else None with
      | Some c
        when c.phase <> Done && nodes.(i).alive
             && (c.leg == req || match c.dup with Some d -> d == req | None -> false) ->
        complete_client c req
      | _ -> ());
      drain_parked ()

  let on_cancelled i (req : Request.t) =
    views.(i) <- views.(i) - 1;
    hedge_wasted_ns := !hedge_wasted_ns + req.Request.done_ns

  let () =
    instances :=
      Array.init n (fun i ->
          let s = raft.specs.(i) in
          Server.Instance.create ~sim
            ~lift:(fun e -> Inst { node = i; ev = e })
            ~config:s.Cluster.config ~warmup_before ~n_classes:(n_classes + 1)
            ~rng:mech_rngs.(i) ~speed_factor:s.Cluster.speed_factor
            ?cancel_cost_cycles:raft.cancel_cost_cycles ?tracer
            ~on_complete:(on_complete i)
            ~on_cancelled:(on_cancelled i) ())

  (* ---- leadership --------------------------------------------------- *)

  let become_leader i =
    let nd = nodes.(i) in
    nd.role <- Leader;
    (match Hashtbl.find_opt leaders_of_term nd.term with
    | Some j when j <> i -> violate "term %d has two leaders: %d and %d" nd.term j i
    | _ -> Hashtbl.replace leaders_of_term nd.term i);
    incr elections;
    (match !leader with Some p when p <> i -> incr leader_changes | None -> incr leader_changes | _ -> ());
    leader := Some i;
    cancel_election nd;
    nd.hb_epoch <- nd.hb_epoch + 1;
    Hashtbl.reset nd.hb_rounds;
    nd.next_round <- 0;
    Hashtbl.reset entries;
    (* Re-establish ack state for the uncommitted suffix it inherited, and
       nudge the followers (stragglers answer with nacks and get
       backfilled). *)
    for idx = nd.commit_index + 1 to nd.log_len do
      let acked = Array.make n false in
      acked.(i) <- true;
      Hashtbl.replace entries idx
        { e_term = nd.log_terms.(idx - 1); e_req_id = nd.log_ids.(idx - 1); e_client = None;
          e_leg = None; e_acked = acked; e_durable = true };
      broadcast_ae i idx
    done;
    nd.sent_upto <- nd.log_len;
    (* the canonical new-term no-op, committing the inherited suffix *)
    start_entry i None None;
    (* Replay client legs stranded on dead members or in consensus at
       another member (ascending id order: deterministic). No stranded leg
       is being served by a live member, so each is dropped, not revoked. *)
    for ci = 0 to Driver.arrived driver - 1 do
      match clients.(ci) with
      | Some c when c.phase <> Done ->
        let stranded =
          match c.phase with
          | Served -> not nodes.(c.node).alive
          | Consensus -> (not nodes.(c.node).alive) || c.node <> i
          | Parked | Done -> false
        in
        if stranded then begin
          c.leg.Request.cancelled <- true;
          (match c.dup with
          | Some d ->
            if nodes.(c.dup_node).alive then cancel_leg c.dup_node d
            else d.Request.cancelled <- true;
            c.dup <- None
          | None -> ());
          c.leg <- Request.hedge_dup c.orig ~id:(fresh_id ());
          incr resubmissions;
          route ci
        end
      | _ -> ()
    done;
    (* immediate heartbeat round establishes the new lease, then periodic *)
    Sim.schedule_after sim ~delay:0 (Hb_tick { node = i; epoch = nd.hb_epoch });
    drain_parked ()

  let start_election i =
    let nd = nodes.(i) in
    nd.term <- nd.term + 1;
    nd.role <- Candidate;
    nd.voted_for <- i;
    nd.votes <- 1;
    (match !leader with Some l when l = i -> leader := None | _ -> ());
    if nd.votes >= quorum then become_leader i
    else begin
      reset_election i (* re-arm against a split vote *);
      broadcast i (fun j ->
          Vote_request
            { node = j; from = i; term = nd.term; last_index = nd.log_len;
              last_term = node_last_term nd })
    end

  (* ---- event dispatch ----------------------------------------------- *)

  let handler _ = function
    | Arrive ->
      (* Service time and read/write class are drawn at the front-end,
         before routing: every group size / lease setting at one seed sees
         the identical request sequence. *)
      let req = Driver.take driver in
      let is_write = Rng.float classify_rng < raft.write_ratio in
      let ci = req.Request.id in
      if is_write then incr writes_n else incr reads_n;
      clients.(ci) <-
        Some { orig = req; is_write; leg = req; phase = Parked; node = -1; dup = None; dup_node = -1 };
      trace_fe ~request:ci (Tracing.Arrived { service_ns = req.Request.service_ns });
      route ci;
      Driver.schedule_next driver
    | Hb_tick { node = i; epoch } ->
      let nd = nodes.(i) in
      if nd.alive && nd.role = Leader && nd.hb_epoch = epoch then begin
        let now = Sim.now sim in
        if quorum = 1 then begin
          nd.lease_expiry_ns <- Int.max nd.lease_expiry_ns (now + lease_ns);
          drain_parked ()
        end
        else begin
          let round = nd.next_round in
          nd.next_round <- round + 1;
          Hashtbl.remove nd.hb_rounds (round - 16) (* drop rounds that never reached quorum *);
          Hashtbl.replace nd.hb_rounds round (now, 0);
          broadcast i (fun j ->
              Hb_deliver
                { node = j; from = i; term = nd.term; sent_ns = now; round;
                  leader_commit = nd.commit_index })
        end;
        Sim.schedule_after sim ~delay:heartbeat_ns (Hb_tick { node = i; epoch })
      end
    | Hb_deliver { node = j; from; term; sent_ns; round; leader_commit } ->
      let nd = nodes.(j) in
      if nd.alive && term >= nd.term then begin
        hear_leader nd term;
        (* the lease extends from the heartbeat's send time, not receipt *)
        nd.lease_expiry_ns <- Int.max nd.lease_expiry_ns (sent_ns + lease_ns);
        set_commit nd (Int.max nd.commit_index (Int.min leader_commit nd.log_len));
        drain_parked ();
        send (Hb_ack { node = from; term; round })
      end
    | Hb_ack { node = l; term; round } ->
      let nd = nodes.(l) in
      if nd.alive && nd.role = Leader && term = nd.term then begin
        match Hashtbl.find_opt nd.hb_rounds round with
        | None -> ()
        | Some (sent_ns, acks) ->
          let acks = acks + 1 in
          if acks + 1 >= quorum then begin
            Hashtbl.remove nd.hb_rounds round;
            nd.lease_expiry_ns <- Int.max nd.lease_expiry_ns (sent_ns + lease_ns);
            drain_parked ()
          end
          else Hashtbl.replace nd.hb_rounds round (sent_ns, acks)
      end
    | Election_timeout { node = i } ->
      nodes.(i).election_timer <- Sim.no_timer;
      start_election i
    | Vote_request { node = v; from; term; last_index; last_term } ->
      let nd = nodes.(v) in
      if nd.alive && term >= nd.term then begin
        adopt_term nd term;
        let up_to_date =
          last_term > node_last_term nd
          || (last_term = node_last_term nd && last_index >= nd.log_len)
        in
        if (nd.voted_for = -1 || nd.voted_for = from) && up_to_date then begin
          nd.voted_for <- from;
          reset_election v;
          send (Vote_grant { node = from; term })
        end
      end
    | Vote_grant { node = c; term } ->
      let nd = nodes.(c) in
      if nd.alive && nd.role = Candidate && term = nd.term then begin
        nd.votes <- nd.votes + 1;
        if nd.votes >= quorum then become_leader c
      end
    | Ae_deliver { node = f; from; term; index; entry_term; req_id } ->
      let nd = nodes.(f) in
      if nd.alive && term >= nd.term then begin
        hear_leader nd term;
        (* decoding + appending + fsync is real follower work: it queues in
           the follower's own dispatcher against its lease reads *)
        let mreq = mk_mini ~service_ns:follower_ae_ns in
        Hashtbl.replace aux mreq.Request.id
          (Mini_ae { node = f; index; entry_term; req_id; msg_term = term; leader = from });
        Server.Instance.inject (inst f) mreq
      end
    | Ae_ack { node = l; from; term; index } ->
      let nd = nodes.(l) in
      if nd.alive && nd.role = Leader && term = nd.term then begin
        match Hashtbl.find_opt entries index with
        | Some e ->
          e.e_acked.(from) <- true;
          try_commit l
        | None -> () (* already committed (late ack) *)
      end
    | Backfill_check { node = f; leader = ldr; term; len } ->
      let nd = nodes.(f) in
      if nd.alive && nd.term = term && nd.log_len = len
         && Hashtbl.length nd.pending_ae > 0 && nd.last_nack_len <> len
      then begin
        nd.last_nack_len <- len;
        send (Ae_nack { node = ldr; from = f; term; follower_len = len })
      end
    | Ae_nack { node = l; from = f; term; follower_len } ->
      let nd = nodes.(l) in
      if nd.alive && nd.role = Leader && term = nd.term then
        (* bounded resend window: repeated nacks page a straggler in *)
        for idx = follower_len + 1 to min nd.sent_upto (follower_len + 64) do
          if nodes.(f).alive then send (append_entries nd f idx)
        done
    | Hedge_fire { origin = ci } -> begin
      match clients.(ci) with
      | Some c -> begin
        (* writes are never armed; a failure here means the guard broke *)
        assert (not c.is_write);
        match c.phase with
        | Served when c.dup = None -> begin
          if Hedge.within_budget raft.hedge ~hedges:!hedges ~primaries:!read_dispatches then begin
            (* shortest-view leased member other than the primary *)
            let best = ref (-1) in
            for j = 0 to n - 1 do
              if j <> c.node && lease_valid j && (!best < 0 || views.(j) < views.(!best)) then
                best := j
            done;
            if !best >= 0 then begin
              let m = !best in
              let dup = Request.hedge_dup c.orig ~id:(fresh_id ()) in
              c.dup <- Some dup;
              c.dup_node <- m;
              incr hedges;
              inject_leg ~replicated:false m dup
            end
          end
        end
        | _ -> ()
      end
      | None -> ()
    end
    | Cancel { node; req } -> Server.Instance.cancel (inst node) req
    | Kill_leader -> begin
      match !leader with
      | Some l when nodes.(l).alive ->
        let nd = nodes.(l) in
        nd.alive <- false;
        nd.hb_epoch <- nd.hb_epoch + 1;
        leader := None
        (* survivors stop hearing heartbeats; their timers do the rest *)
      | _ -> ()
    end
    | End_of_run -> Driver.end_run driver
    | Inst { node; ev } -> Server.Instance.handle (inst node) ev

  (* ---- start and summary -------------------------------------------- *)

  (* Member 0 is the established leader of term 1 with a fresh lease, as
     if a quorum round completed at t = 0. *)
  let start () =
    nodes.(0).role <- Leader;
    Hashtbl.replace leaders_of_term 1 0;
    Array.iter (fun nd -> nd.lease_expiry_ns <- lease_ns) nodes;
    Sim.schedule_at sim ~time:0 (Hb_tick { node = 0; epoch = 0 });
    for i = 1 to n - 1 do
      reset_election i
    done;
    Option.iter (fun t -> Sim.schedule_at sim ~time:t Kill_leader) raft.kill_leader_at_ns

  let summarize () =
    (* invariant: no committed entry may be missing from the final
       leader's log *)
    (match !leader with
    | Some l ->
      let nd = nodes.(l) in
      List.iter
        (fun (index, term, req_id) ->
          if index > nd.log_len then
            violate "committed entry %d (term %d) missing from final leader %d" index term l
          else if nd.log_terms.(index - 1) <> term || nd.log_ids.(index - 1) <> req_id then
            violate "committed entry %d (term %d, req %d) overwritten at final leader %d" index
              term req_id l)
        !committed_log
    | None -> ());
    let span_ns = max 1 (Sim.now sim) in
    let class_names = Array.map (fun (c : Mix.class_def) -> c.Mix.name) mix.Mix.classes in
    let inst_class_names = Array.append class_names [| "RAFT" |] in
    let per_node =
      Array.init n (fun i ->
          Metrics.summarize
            (Server.Instance.metrics (inst i))
            ~offered_rps:(float_of_int routed.(i) /. (float_of_int span_ns /. 1e9))
            ~span_ns
            ~n_workers:(Server.Instance.n_workers (inst i))
            ~class_names:inst_class_names)
    in
    let client =
      Driver.summarize driver client_metrics ~n_workers:total_workers
    in
    let pct s p = if Stats.is_empty s then 0.0 else Stats.percentile s p in
    let mean s = if Stats.is_empty s then 0.0 else Stats.mean s in
    let leader_p99 =
      match !leader with
      | Some l ->
        let s = Metrics.slowdown_samples (Server.Instance.metrics (inst l)) in
        pct s 99.0
      | None -> 0.0
    in
    let follower_p99 =
      let followers = ref [] in
      for i = n - 1 downto 0 do
        if !leader <> Some i then
          followers := Metrics.slowdown_samples (Server.Instance.metrics (inst i)) :: !followers
      done;
      (* merge_all of [] is a pinned empty result: a single-member group has
         no followers and must not trap here *)
      let merged = Stats.merge_all !followers in
      pct merged 99.0
    in
    ( {
        nodes = n;
        read_leases = raft.read_leases;
        requests = n_requests;
        writes = !writes_n;
        reads = !reads_n;
        client;
        write_mean_ns = mean write_soj;
        write_p50_ns = pct write_soj 50.0;
        write_p99_ns = pct write_soj 99.0;
        read_mean_ns = mean read_soj;
        read_p50_ns = pct read_soj 50.0;
        read_p99_ns = pct read_soj 99.0;
        per_node;
        roles = Array.map (fun nd -> nd.role) nodes;
        alive = Array.map (fun nd -> nd.alive) nodes;
        final_leader = !leader;
        final_term = Array.fold_left (fun acc nd -> max acc nd.term) 0 nodes;
        elections = !elections;
        leader_changes = !leader_changes;
        committed = !committed;
        commit_indexes = Array.map (fun nd -> nd.commit_index) nodes;
        log_lengths = Array.map (fun nd -> nd.log_len) nodes;
        wal_records = Array.map (fun nd -> Wal.record_count nd.wal) nodes;
        resubmissions = !resubmissions;
        parked = !parked;
        routed;
        hedges = !hedges;
        hedge_wins = !hedge_wins;
        hedge_cancels = !hedge_cancels;
        hedge_wasted_ns = !hedge_wasted_ns;
        writes_hedged = !writes_hedged;
        leader_p99_slowdown = leader_p99;
        follower_p99_slowdown = follower_p99;
        invariant_failures = List.rev !violations;
      },
      Metrics.slowdown_samples client_metrics )
end

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run_detailed ~raft ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
    ?events_out () =
  let inputs =
    Driver.check ~who:"Raft.run" ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ()
  in
  let module G = Group (struct let run = { raft; inputs; tracer } end) in
  (* The first arrival is the first event at time 0, ahead of the first
     heartbeat. Drawing ahead does not pay: consensus work dwarfs a draw. *)
  Driver.run G.driver ~draw_ahead:false ~censor:G.censor (fun () ->
      G.start ();
      Sim.run G.sim ~handler:G.handler ());
  (match events_out with Some r -> r := Sim.events_processed G.sim | None -> ());
  G.summarize ()

let run ~raft ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer () =
  fst (run_detailed ~raft ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer ())

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let check_invariants s =
  let errors = ref (List.rev s.invariant_failures) in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let accounted = s.client.Metrics.completed + s.client.Metrics.censored in
  if accounted <> s.requests then
    err "conservation: %d completed + %d censored <> %d arrivals" s.client.Metrics.completed
      s.client.Metrics.censored s.requests;
  if s.writes + s.reads <> s.requests then
    err "classification: %d writes + %d reads <> %d arrivals" s.writes s.reads s.requests;
  if s.writes_hedged <> 0 then err "%d writes were hedged (must never happen)" s.writes_hedged;
  (match s.final_leader with
  | Some l ->
    if not s.alive.(l) then err "final leader %d is dead" l;
    if s.roles.(l) <> Leader then err "final leader %d is not in the Leader role" l
  | None -> ());
  Array.iteri
    (fun i ci ->
      if ci > s.log_lengths.(i) then
        err "member %d: commit index %d exceeds log length %d" i ci s.log_lengths.(i);
      if s.wal_records.(i) < s.log_lengths.(i) then
        err "member %d: %d WAL records < %d log entries" i s.wal_records.(i) s.log_lengths.(i))
    s.commit_indexes;
  match List.rev !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let summary_to_string s =
  let buf = Buffer.create 1024 in
  let us f = f /. 1e3 in
  Buffer.add_string buf
    (Printf.sprintf "raft group: %d member%s, leases %s, term %d, %d election%s (%d change%s)\n"
       s.nodes
       (if s.nodes = 1 then "" else "s")
       (if s.read_leases then "on" else "off")
       s.final_term s.elections
       (if s.elections = 1 then "" else "s")
       s.leader_changes
       (if s.leader_changes = 1 then "" else "s"));
  Buffer.add_string buf
    (Printf.sprintf
       "  client: %d arrivals (%d writes / %d reads), %d completed, %d censored, %d replayed\n"
       s.requests s.writes s.reads s.client.Metrics.completed s.client.Metrics.censored
       s.resubmissions);
  Buffer.add_string buf
    (Printf.sprintf "  writes: mean %8.1fus  p50 %8.1fus  p99 %8.1fus\n" (us s.write_mean_ns)
       (us s.write_p50_ns) (us s.write_p99_ns));
  Buffer.add_string buf
    (Printf.sprintf "  reads:  mean %8.1fus  p50 %8.1fus  p99 %8.1fus\n" (us s.read_mean_ns)
       (us s.read_p50_ns) (us s.read_p99_ns));
  if s.hedges > 0 || s.hedge_cancels > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  hedging: %d duplicates, %d wins, %d cancels, %.1fus wasted\n" s.hedges
         s.hedge_wins s.hedge_cancels
         (float_of_int s.hedge_wasted_ns /. 1e3));
  Buffer.add_string buf
    (Printf.sprintf "  committed %d entries; parked %d times\n" s.committed s.parked);
  Array.iteri
    (fun i (m : Metrics.summary) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  node %d [%-9s%s]%s commit=%-5d log=%-5d wal=%-5d legs=%-6d p99 slowdown=%6.2f\n" i
           (role_name s.roles.(i))
           (if s.alive.(i) then "" else ", dead")
           (if s.final_leader = Some i then "*" else " ")
           s.commit_indexes.(i) s.log_lengths.(i) s.wal_records.(i) s.routed.(i)
           m.Metrics.p99_slowdown))
    s.per_node;
  (match s.invariant_failures with
  | [] -> ()
  | fs ->
    Buffer.add_string buf "  INVARIANT FAILURES:\n";
    List.iter (fun f -> Buffer.add_string buf ("    " ^ f ^ "\n")) fs);
  Buffer.contents buf
