module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Stats = Repro_engine.Stats
module Par_sim = Repro_engine.Par_sim
module Mailbox = Repro_engine.Mailbox
module Costs = Repro_hw.Costs
module Mix = Repro_workload.Mix
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Request = Repro_runtime.Request
module Server = Repro_runtime.Server
module Driver = Repro_runtime.Driver

type instance_spec = { config : Config.t; speed_factor : float }

let spec ?(speed_factor = 1.0) config =
  if not (speed_factor > 0.0 && Float.is_finite speed_factor) then
    invalid_arg "Cluster.spec: speed_factor must be positive and finite";
  Config.validate config;
  { config; speed_factor }

type t = {
  policy : Lb_policy.t;
  rtt_cycles : int;
  hedge : Hedge.t;
  steal : bool;
  specs : instance_spec array;
}

let make ?(policy = Lb_policy.Po2c) ?(rtt_cycles = 0) ?(hedge = Hedge.Off) ?(steal = false)
    specs =
  if Array.length specs < 1 then invalid_arg "Cluster.make: need at least one instance";
  if rtt_cycles < 0 then invalid_arg "Cluster.make: rtt_cycles must be >= 0";
  Array.iter (fun s -> ignore (spec ~speed_factor:s.speed_factor s.config)) specs;
  let valid = function Ok () -> () | Error e -> invalid_arg ("Cluster.make: " ^ e) in
  valid (Lb_policy.validate policy);
  valid (Hedge.validate hedge);
  { policy; rtt_cycles; hedge; steal; specs }

let homogeneous_specs ~who ~stragglers n config =
  let specs = Array.make n { config; speed_factor = 1.0 } in
  List.iter
    (fun (i, f) ->
      if i < 0 || i >= n then invalid_arg (who ^ ": straggler index out of range");
      if not (f >= 1.0) then invalid_arg (who ^ ": straggler factor must be >= 1");
      if not (Float.is_finite f) then invalid_arg (who ^ ": straggler factor must be finite");
      specs.(i) <- { config; speed_factor = f })
    stragglers;
  specs

let homogeneous ?policy ?rtt_cycles ?hedge ?steal ?(stragglers = []) ~instances config =
  if instances < 1 then invalid_arg "Cluster.homogeneous: need at least one instance";
  (* [make] validates every spec's config. *)
  make ?policy ?rtt_cycles ?hedge ?steal
    (homogeneous_specs ~who:"Cluster.homogeneous" ~stragglers instances config)

type summary = {
  policy : Lb_policy.t;
  rtt_cycles : int;
  instances : int;
  requests : int;
  total_workers : int;
  cluster : Metrics.summary;
  per_instance : Metrics.summary array;
  routed : int array;
  lb_held : int;
  lb_unrouted : int;
  lb_censored : int;
  hedge : Hedge.t;
  steal : bool;
  hedges : int;
  hedge_wins : int;
  hedge_cancels : int;
  hedge_wasted_ns : int;
  steals : int;
  engine : Par_sim.t;
  domains_used : int;
}

(* ---- the balancer ------------------------------------------------------ *)

(* One run's inputs, resolved once and shared by the balancer and the
   engine running it. The RTT is split across the two legs: request
   delivery rides the forward half, the completion credit rides the return
   half, so the balancer's view of a server lags the truth by up to one
   full RTT. *)
type run = {
  cluster : t;
  inputs : Driver.inputs;
  on_decision : (views:int array -> lengths:int array -> chosen:int -> unit) option;
  one_way_ns : int;
  credit_ns : int;
}

(* The balancer's own steps, on the clock its engine gives it. *)
type lb_ev =
  | Arrive
  | Credit of { inst : int }
  | Hedge_fire of { req : Request.t; primary : int }
      (* the hedge delay elapsed with [req] still incomplete: consider
         duplicating it onto a second server *)
  | Cancel of { req : Request.t }
      (* revocation reaching the loser's server, wherever it holds the leg
         by then *)
  | Steal_nack of { victim : int; thief : int }
  | End_of_run

(* What an engine gives the balancer: its clock, a way to wrap the
   balancer's steps as engine events, and five operations on the servers.
   The engine reports back through [complete], [cancelled] and
   [surrendered]. *)
module type ENGINE = sig
  type ev

  val run : run
  val sim : ev Sim.t
  val lift : lb_ev -> ev

  (* Send [req] to instance [i]: it arrives one forward leg later. *)
  val deliver : int -> Request.t -> unit

  (* Send a steal probe to [victim]; its outcome reaches [surrendered] when
     it arrives, one forward leg later. *)
  val probe : victim:int -> thief:int -> unit

  (* Revoke a losing hedge leg at instance [i], now. *)
  val revoke : int -> Request.t -> unit

  (* Every request past the balancer that neither completed nor was
     revoked: [resident] at an instance (which censors it too) or
     [on_wire]. *)
  val census :
    now_ns:int -> resident:(Request.t -> unit) -> on_wire:(Request.t -> unit) -> unit

  (* Each instance's true queue length, for [on_decision]. *)
  val lengths : unit -> int array
end

let total_workers cluster =
  Array.fold_left (fun acc s -> acc + s.config.Config.n_workers) 0 cluster.specs

(* Same in-flight bound as a standalone server run, per instance, plus the
   balancer's arrival/delivery/credit events riding the wire. *)
let balancer_clock cluster =
  Sim.create ~capacity:((4 * total_workers cluster) + (8 * Array.length cluster.specs) + 16) ()

module Balancer (E : ENGINE) = struct
  let { cluster; inputs; on_decision; one_way_ns; credit_ns } = E.run
  let { Driver.mix; n_requests; warmup_before; _ } = inputs
  let sim = E.sim
  let driver = Driver.create inputs ~sim ~arrive:(E.lift Arrive) ~end_of_run:(E.lift End_of_run)
  let n_inst = Array.length cluster.specs
  let master = Driver.master driver
  let lb_rng = Rng.split master
  let mech_rngs = Array.init n_inst (fun _ -> Rng.split master)
  let n_classes = Array.length mix.Mix.classes
  let total_workers = total_workers cluster

  (* Rack-level accumulator: sees every completion and censoring, so counts,
     goodput (over the global measured span), sojourns and per-class tails
     come out exactly; the per-instance metrics stay the breakdowns. *)
  let agg = Metrics.create ~warmup_before ~n_classes
  let views = Array.make n_inst 0
  let routed = Array.make n_inst 0
  let pending : Request.t Queue.t = Queue.create ()
  let lb_state = Lb_policy.make_state ~rng:lb_rng
  let lb_held = ref 0

  (* --- tail-tolerance state ----------------------------------------- *)
  let hedge_on = cluster.hedge <> Hedge.Off && n_inst > 1

  (* The slowdown estimate behind pct:/adaptive delays. Only a run that can
     hedge reads or feeds it, so only such a run builds it. *)
  let estimator = if hedge_on then Some (Hedge.make_estimator ()) else None
  let hedges = ref 0
  let hedge_wins = ref 0
  let hedge_cancels = ref 0
  let hedge_wasted_ns = ref 0
  let steals = ref 0
  let lb_censored = ref 0

  (* Duplicate legs get ids past the arrival sequence so every leg is
     globally unique in traces, the wire tables and the instances' live
     tables. *)
  let next_leg_id = ref n_requests

  (* origin id -> (primary leg, duplicate leg), for pairs with no completed
     leg yet; the first completion wins and revokes the other. *)
  let hedged : (int, Request.t * Request.t) Hashtbl.t = Hashtbl.create 64

  (* Revoked legs whose discard has not yet been observed; whatever is left
     at the end of the run still counts as wasted work. *)
  let zombies : (int, Request.t) Hashtbl.t = Hashtbl.create 64

  (* leg id -> instance currently responsible for it (updated on dispatch
     and on steal-forwarding), so a revocation can chase a moved leg. A leg
     leaves the table when it completes or is discarded: revoking it then
     would be a no-op ([Server.Instance.cancel] ignores requests no longer
     live), so the table holds only legs in flight instead of every leg of
     the run. *)
  let leg_inst : (int, int) Hashtbl.t = Hashtbl.create 256

  (* primary id -> its pending Hedge_fire. A primary that completes first
     cancels the timer rather than leaving it to pop as a no-op. *)
  let hedge_timers : (int, Sim.timer) Hashtbl.t = Hashtbl.create (if hedge_on then 64 else 1)

  let steal_pending = Array.make n_inst false
  let after delay e = Sim.schedule_after sim ~delay (E.lift e)

  let rec do_credit i =
    views.(i) <- views.(i) - 1;
    (* A credit may free a slot the rack-level JBSQ bound was waiting on. *)
    drain_pending ();
    maybe_steal i

  and maybe_steal thief =
    (* An idle-looking server (empty view, nothing parked at the balancer)
       probes the fullest-looking peer for surplus work — RackSched-style
       rack-level stealing over the same stale views the LB uses. The view
       transfer is optimistic; a nack rolls it back one credit RTT later. *)
    if
      cluster.steal
      && (not steal_pending.(thief))
      && views.(thief) <= 0
      && Queue.is_empty pending
    then begin
      let victim = ref (-1) in
      for j = 0 to n_inst - 1 do
        if j <> thief && views.(j) >= 2 && (!victim < 0 || views.(j) > views.(!victim)) then
          victim := j
      done;
      if !victim >= 0 then begin
        let v = !victim in
        views.(v) <- views.(v) - 1;
        views.(thief) <- views.(thief) + 1;
        steal_pending.(thief) <- true;
        E.probe ~victim:v ~thief
      end
    end

  and drain_pending () =
    if not (Queue.is_empty pending) then begin
      match Lb_policy.choose cluster.policy lb_state ~views with
      | None -> ()
      | Some j ->
        dispatch j (Queue.pop pending);
        drain_pending ()
    end

  and send_to i (req : Request.t) =
    views.(i) <- views.(i) + 1;
    routed.(i) <- routed.(i) + 1;
    if hedge_on then Hashtbl.replace leg_inst req.Request.id i;
    E.deliver i req

  and dispatch i req =
    (match on_decision with
    | None -> ()
    | Some f -> f ~views:(Array.copy views) ~lengths:(E.lengths ()) ~chosen:i);
    send_to i req;
    match estimator with
    | None -> ()
    | Some estimator -> (
      let estimate_ns = req.Request.estimate_ns in
      match
        (* A duplicate's unqueued completion: forward wire leg, its own
           service, and the completion's return leg. *)
        Hedge.delay_ns cluster.hedge estimator ~estimate_ns
          ~lead_ns:((2 * one_way_ns) + estimate_ns)
      with
      | None -> ()
      | Some d ->
        Hashtbl.replace hedge_timers req.Request.id
          (Sim.arm_after sim ~delay:d (E.lift (Hedge_fire { req; primary = i }))))

  (* Instance [i] completed [req]. *)
  let complete i (req : Request.t) =
    (match estimator with
    | None -> ()
    | Some estimator -> (
      Hashtbl.remove leg_inst req.Request.id;
      (match Hashtbl.find hedge_timers req.Request.id with
      | tm ->
        Sim.cancel sim tm;
        Hashtbl.remove hedge_timers req.Request.id
      | exception Not_found -> ());
      Hedge.observe estimator ~sojourn_ns:(Request.sojourn_ns req)
        ~service_ns:req.Request.service_ns;
      match Hashtbl.find_opt hedged (Request.origin_id req) with
      | None -> ()
      | Some (primary, dup) ->
        (* First completion wins; revoke the loser. The cancel rides the
           forward wire leg to whichever server holds the loser now. *)
        Hashtbl.remove hedged (Request.origin_id req);
        let loser = if req == dup then primary else dup in
        if req == dup then incr hedge_wins;
        loser.Request.cancelled <- true;
        incr hedge_cancels;
        Hashtbl.replace zombies loser.Request.id loser;
        after one_way_ns (Cancel { req = loser })));
    Metrics.record_completion agg req;
    (* Both wire legs gate on the same ns-level condition: with a zero-ns
       credit leg the view updates synchronously, exactly like delivery
       does with a zero-ns forward leg. (Gating on [rtt_cycles = 0] here
       desynchronized views whenever a small rtt_cycles rounded to 0 ns.) *)
    if credit_ns = 0 then do_credit i else after credit_ns (Credit { inst = i });
    Driver.complete driver

  (* Instance [i] discarded the revoked leg [req]. *)
  let cancelled i (req : Request.t) =
    Hashtbl.remove zombies req.Request.id;
    Hashtbl.remove leg_inst req.Request.id;
    hedge_wasted_ns := !hedge_wasted_ns + req.Request.done_ns;
    (* A discarded leg never completes, so its send must be balanced by an
       explicit credit. Always scheduled (even at zero RTT): the discard
       can fire from deep inside the instance's dispatcher machinery, where
       re-entering it synchronously is not safe. *)
    after credit_ns (Credit { inst = i })

  (* A steal probe reached [victim], which gave up [req] if it had one. *)
  let surrendered ~victim ~thief = function
    | Some (req : Request.t) ->
      incr steals;
      steal_pending.(thief) <- false;
      if hedge_on then Hashtbl.replace leg_inst req.Request.id thief;
      (* Forward victim -> thief: one more hop on the wire. *)
      E.deliver thief req
    | None ->
      (* Nothing stealable (everything queued has already run): the nack
         returns after the credit leg and rolls the view transfer back. *)
      after credit_ns (Steal_nack { victim; thief })

  let handle = function
    | Arrive ->
      (* Service time is drawn at the balancer, before routing: every policy
         at the same seed schedules the identical request sequence. *)
      let req = Driver.take driver in
      Driver.schedule_next driver;
      if not (Queue.is_empty pending) then begin
        (* FIFO at the balancer: new arrivals queue behind parked ones. *)
        incr lb_held;
        Queue.push req pending
      end
      else begin
        match Lb_policy.choose cluster.policy lb_state ~views with
        | Some i -> dispatch i req
        | None ->
          incr lb_held;
          Queue.push req pending
      end
    | Credit { inst } -> do_credit inst
    | Hedge_fire { req; primary } ->
      Hashtbl.remove hedge_timers req.Request.id;
      if
        (not req.Request.cancelled)
        && Hedge.within_budget cluster.hedge ~hedges:!hedges ~primaries:(Driver.arrived driver)
      then begin
        (* Duplicate onto the shortest-view server other than the primary
           (deterministic: no extra RNG draws perturbing the LB stream). *)
        let target = ref (-1) in
        for j = 0 to n_inst - 1 do
          if j <> primary && (!target < 0 || views.(j) < views.(!target)) then target := j
        done;
        let bound_ok =
          match cluster.policy with
          | Lb_policy.Jbsq b -> views.(!target) < b
          | Lb_policy.Random | Lb_policy.Round_robin | Lb_policy.Jsq | Lb_policy.Po2c -> true
        in
        if bound_ok then begin
          let dup = Request.hedge_dup req ~id:!next_leg_id in
          incr next_leg_id;
          incr hedges;
          Hashtbl.replace hedged req.Request.id (req, dup);
          send_to !target dup
        end
      end
    | Cancel { req } -> (
      match Hashtbl.find_opt leg_inst req.Request.id with
      | Some j -> E.revoke j req
      | None -> ())
    | Steal_nack { victim; thief } ->
      views.(victim) <- views.(victim) + 1;
      views.(thief) <- views.(thief) - 1;
      steal_pending.(thief) <- false
    | End_of_run -> Driver.end_run driver

  (* The end of the run. Unresolved hedge pairs: neither leg completed.
     Exactly one leg per arrival may enter the censored population, so
     revoke the duplicate before the census (waste accounting happens after
     the run, where it also covers cleanly-stopped runs). *)
  let censor ~now_ns =
    if hedge_on then
      (Hashtbl.iter
         (fun _ ((_, dup) : Request.t * Request.t) -> dup.Request.cancelled <- true)
         hedged)
      [@lint.deterministic "flag-setting only; independent of iteration order"];
    let on_wire req =
      incr lb_censored;
      Metrics.record_censored agg req ~now_ns
    in
    E.census ~now_ns ~resident:(fun req -> Metrics.record_censored agg req ~now_ns) ~on_wire;
    Queue.iter on_wire pending

  let class_names = Array.map (fun (c : Mix.class_def) -> c.name) mix.Mix.classes

  (* Instance [i]'s summary from an accumulator the engine keeps for it. *)
  let summarize_instance i m =
    let span_ns = max 1 (Sim.now sim) in
    Metrics.summarize m
      ~offered_rps:(float_of_int routed.(i) /. (float_of_int span_ns /. 1e9))
      ~span_ns ~n_workers:cluster.specs.(i).config.Config.n_workers ~class_names

  let finish ~engine ~domains_used per_instance =
    (* Wasted-work closeout: duplicates of pairs the run ended around, plus
       revoked legs whose discard the servers never got to observe. Their
       partial progress is hedging overhead the duplicate-rate alone hides. *)
    if hedge_on then begin
      (Hashtbl.iter
         (fun _ ((_, dup) : Request.t * Request.t) ->
           dup.Request.cancelled <- true;
           incr hedge_cancels;
           hedge_wasted_ns := !hedge_wasted_ns + dup.Request.done_ns)
         hedged)
      [@lint.deterministic "counter accumulation; independent of iteration order"];
      (Hashtbl.iter
         (fun _ (zombie : Request.t) ->
           hedge_wasted_ns := !hedge_wasted_ns + zombie.Request.done_ns)
         zombies)
      [@lint.deterministic "counter accumulation; independent of iteration order"]
    end;
    (* [agg] holds exactly the multiset of the per-instance sample sets plus
       the requests censored balancer-side, so its percentiles are theirs;
       the headline mean sums a sorted copy, as a merge of those sets
       would, rather than in recording order. *)
    let merged = Stats.merge_all [ Metrics.slowdown_samples agg ] in
    let agg_summary = Driver.summarize driver agg ~n_workers:total_workers in
    let fsum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 per_instance in
    let isum f = Array.fold_left (fun acc s -> acc + f s) 0 per_instance in
    let cluster_summary =
      {
        agg_summary with
        Metrics.mean_slowdown = Stats.mean merged;
        preemptions = isum (fun s -> s.Metrics.preemptions);
        steal_slices = isum (fun s -> s.Metrics.steal_slices);
        negative_idle_gaps = isum (fun s -> s.Metrics.negative_idle_gaps);
        dispatcher_busy_frac =
          fsum (fun s -> s.Metrics.dispatcher_busy_frac) /. float_of_int n_inst;
        dispatcher_app_frac = fsum (fun s -> s.Metrics.dispatcher_app_frac) /. float_of_int n_inst;
        worker_busy_frac =
          (let weighted = ref 0.0 in
           Array.iteri
             (fun i s ->
               weighted :=
                 !weighted
                 +. (s.Metrics.worker_busy_frac
                    *. float_of_int cluster.specs.(i).config.Config.n_workers))
             per_instance;
           !weighted /. float_of_int (max total_workers 1));
        median_idle_gap_ns = 0.0;
      }
    in
    ( {
        policy = cluster.policy;
        rtt_cycles = cluster.rtt_cycles;
        instances = n_inst;
        requests = n_requests;
        total_workers;
        cluster = cluster_summary;
        per_instance;
        routed;
        lb_held = !lb_held;
        lb_unrouted = Queue.length pending;
        lb_censored = !lb_censored;
        hedge = cluster.hedge;
        steal = cluster.steal;
        hedges = !hedges;
        hedge_wins = !hedge_wins;
        hedge_cancels = !hedge_cancels;
        hedge_wasted_ns = !hedge_wasted_ns;
        steals = !steals;
        engine;
        domains_used;
      },
      merged )
end

(* ---- shared-clock engine ----------------------------------------------- *)

(* One heap for the balancer's steps, the wire legs it sends, and every
   instance's internal steps, tagged with the instance index. *)
type ev =
  | Lb of lb_ev
  | Deliver of { inst : int; req : Request.t }
  | Steal_probe of { victim : int; thief : int }
  | Inst of { inst : int; ev : Server.event }

let run_seq run ~tracer ~events_out =
  let sim : ev Sim.t = balancer_clock run.cluster in
  let instances = ref [||] in
  let in_net : (int, int * Request.t) Hashtbl.t = Hashtbl.create 64 in
  let module B = Balancer (struct
    type nonrec ev = ev

    let run = run
    let sim = sim
    let lift e = Lb e

    let deliver i (req : Request.t) =
      if run.one_way_ns = 0 then Server.Instance.inject !instances.(i) req
      else begin
        Hashtbl.replace in_net req.Request.id (i, req);
        Sim.schedule_after sim ~delay:run.one_way_ns (Deliver { inst = i; req })
      end

    let probe ~victim ~thief =
      Sim.schedule_after sim ~delay:run.one_way_ns (Steal_probe { victim; thief })

    let revoke i req = Server.Instance.cancel !instances.(i) req

    let census ~now_ns ~resident ~on_wire =
      Array.iter (fun inst -> Server.Instance.censor_all inst ~now_ns ~also:resident) !instances;
      (Hashtbl.iter
         (fun _ ((_, req) : int * Request.t) -> if not req.Request.cancelled then on_wire req)
         in_net)
      [@lint.deterministic
        "hash order is stable for a fixed insertion history (non-randomized Hashtbl); \
         censored-request accounting is pinned by the golden tests"]

    let lengths () = Array.map Server.Instance.inflight !instances
  end) in
  instances :=
    Array.init (Array.length run.cluster.specs) (fun i ->
        let s = run.cluster.specs.(i) in
        Server.Instance.create ~sim
          ~lift:(fun e -> Inst { inst = i; ev = e })
          ~config:s.config ~warmup_before:B.warmup_before ~n_classes:B.n_classes
          ~rng:B.mech_rngs.(i) ~speed_factor:s.speed_factor ?tracer ~on_complete:(B.complete i)
          ?on_cancelled:(if B.hedge_on then Some (B.cancelled i) else None)
          ());
  let handler _ = function
    | Lb e -> B.handle e
    | Deliver { inst; req } ->
      Hashtbl.remove in_net req.Request.id;
      Server.Instance.inject !instances.(inst) req
    | Steal_probe { victim; thief } ->
      B.surrendered ~victim ~thief (Server.Instance.surrender !instances.(victim))
    | Inst { inst; ev } -> Server.Instance.handle !instances.(inst) ev
  in
  Driver.run B.driver ~draw_ahead:true ~censor:B.censor (fun () -> Sim.run sim ~handler ());
  Option.iter (fun r -> r := Sim.events_processed sim) events_out;
  B.finish ~engine:Par_sim.Seq ~domains_used:1
    (Array.mapi (fun i inst -> B.summarize_instance i (Server.Instance.metrics inst)) !instances)

(* ---- windowed parallel engine ------------------------------------------ *)

(* Per-shard event type: the instance's own steps plus the actions the
   host pushes across the window boundary (each rides one wire leg, so it
   lands at least one full window after the decision that caused it). *)
type shard_ev =
  | S_inst of Server.event
  | S_deliver of Request.t
  | S_probe of { thief : int }

(* Host event type for the parallel path: the balancer's own steps plus
   the records shards push back (completions, surrender outcomes), merged
   into the host heap at their exact shard-side timestamps. *)
type par_ev =
  | P_lb of lb_ev
  | P_complete of { inst : int; req : Request.t }
  | P_surrendered of { victim : int; thief : int; req : Request.t option }

(* The parallel run: the same balancer as [run_seq] (identical RNG stream
   splits, identical view/credit accounting, identical times on every wire
   leg), but each instance advances on its own domain inside conservative
   windows of one wire leg ([rtt/2] ns). Hedging is degraded away before
   we get here — its winner-takes-all flag is a zero-delay cross-server
   coupling (see DESIGN.md) — so the host<->shard traffic is exactly:
   deliveries and steal probes outbound, completions and surrender results
   inbound.

   The host lags its shards by one barrier phase. Everything the host
   counts (completions, credits, censoring, stop) therefore derives from
   the merged records, never from peeking at live instance state; the
   per-instance population metrics are mirrored host-side the same way so
   the invariant checks stay exact even though a shard may execute a few
   machine-internal events past the instant the host stopped the run
   (those events can do no request-visible work: by then every request
   has completed). *)
let run_par run ~events_out ~domains =
  let n_inst = Array.length run.cluster.specs in
  let n_classes = Array.length run.inputs.Driver.mix.Mix.classes in
  let warmup_before = run.inputs.Driver.warmup_before in
  let host : par_ev Sim.t = balancer_clock run.cluster in
  assert (run.one_way_ns > 0) (* the dispatcher degraded zero-lookahead runs to seq *);
  (* Host-side mirror of each instance's population counts and samples,
     fed from the merged completion/censor records: exact at the host's
     stop time, where the shard-side accumulators are only exact at the
     enclosing window boundary. *)
  let host_inst =
    Array.init n_inst (fun _ -> Metrics.create ~warmup_before ~n_classes)
  in
  (* Every live leg, from dispatch to completion: id -> (current instance,
     request, delivery time). Replaces both the seq path's [in_net] wire
     table and its peek at instance-resident requests when censoring. *)
  let wire : (int, int * Request.t * int) Hashtbl.t = Hashtbl.create 64 in
  let shard_sims =
    Array.init n_inst (fun i ->
        Sim.create ~capacity:((4 * run.cluster.specs.(i).config.Config.n_workers) + 16) ())
  in
  let inbox : (int * shard_ev) Mailbox.t array =
    Array.init n_inst (fun _ -> Mailbox.create ~capacity:256 ())
  in
  let outbox : (int * par_ev) Mailbox.t array =
    Array.init n_inst (fun _ -> Mailbox.create ~capacity:256 ())
  in
  (* Earliest inbox action pushed during the current host window; the
     window loop folds it into the next window start so a skip-ahead can
     never jump past an undelivered action. *)
  let action_min = ref max_int in
  let push_shard i ~at act =
    Mailbox.push inbox.(i) (at, act);
    if at < !action_min then action_min := at
  in
  let module B = Balancer (struct
    type ev = par_ev

    let run = run
    let sim = host
    let lift e = P_lb e

    let deliver i (req : Request.t) =
      let at = Sim.now host + run.one_way_ns in
      Hashtbl.replace wire req.Request.id (i, req, at);
      push_shard i ~at (S_deliver req)

    (* The probe executes at the victim's shard one wire leg out (where the
       seq path schedules a host event and surrenders from its handler at
       the same instant). *)
    let probe ~victim ~thief =
      push_shard victim ~at:(Sim.now host + run.one_way_ns) (S_probe { thief })

    let revoke _ _ = invalid_arg "Cluster: hedged racks run on the shared clock"

    let census ~now_ns ~resident ~on_wire =
      (Hashtbl.iter
         (fun _ ((inst, req, delivered_at) : int * Request.t * int) ->
           if delivered_at <= now_ns then begin
             (* Resident at an instance: the seq path's censor_all. *)
             resident req;
             Metrics.record_censored host_inst.(inst) req ~now_ns
           end
           else on_wire req)
         wire)
      [@lint.deterministic
        "hash order is stable for a fixed insertion history (non-randomized Hashtbl); \
         censored-request accounting is order-insensitive (multiset counts and samples)"]

    let lengths () = invalid_arg "Cluster: on_decision runs on the shared clock"
  end) in
  let instances =
    Array.init n_inst (fun i ->
        let s = run.cluster.specs.(i) in
        Server.Instance.create ~sim:shard_sims.(i)
          ~lift:(fun e -> S_inst e)
          ~config:s.config ~warmup_before ~n_classes ~rng:B.mech_rngs.(i)
          ~speed_factor:s.speed_factor
          ~on_complete:(fun req ->
            Mailbox.push outbox.(i) (Sim.now shard_sims.(i), P_complete { inst = i; req }))
          ())
  in
  let shard_handler i (sim : shard_ev Sim.t) = function
    | S_inst e ->
      Server.Instance.handle
        (instances.(i)
        [@lint.deterministic "shard-partitioned: instance i is touched only by shard i"])
        e
    | S_deliver req ->
      Server.Instance.inject
        (instances.(i)
        [@lint.deterministic "shard-partitioned: instance i is touched only by shard i"])
        req
    | S_probe { thief } ->
      let req =
        Server.Instance.surrender
          (instances.(i)
          [@lint.deterministic "shard-partitioned: instance i is touched only by shard i"])
      in
      Mailbox.push outbox.(i) (Sim.now sim, P_surrendered { victim = i; thief; req })
  in
  let host_handler _ = function
    | P_lb e -> B.handle e
    | P_complete { inst; req } ->
      Hashtbl.remove wire req.Request.id;
      Metrics.record_completion host_inst.(inst) req;
      B.complete inst req
    | P_surrendered { victim; thief; req } -> B.surrendered ~victim ~thief req
  in
  let shard_step ~shard ~until =
    let sim =
      (shard_sims.(shard)
      [@lint.deterministic "shard-partitioned: heap [shard] is run only by its owning party"])
    in
    Mailbox.drain inbox.(shard) ~f:(fun (at, act) -> Sim.schedule_at sim ~time:at act);
    Sim.run sim ~until ~handler:(shard_handler shard) ()
  in
  let shard_next ~shard =
    Sim.next_time
      (shard_sims.(shard)
      [@lint.deterministic "shard-partitioned: heap [shard] is read only by its owning party"])
  in
  let host_step ~start:_ ~until =
    action_min := max_int;
    (* Merge in shard order: the heap's stable (key, seq) tie-break then
       realizes the (timestamp, shard id, push sequence) order. *)
    for i = 0 to n_inst - 1 do
      Mailbox.drain outbox.(i) ~f:(fun (at, ev) -> Sim.schedule_at host ~time:at ev)
    done;
    if not (Driver.ended B.driver) then Sim.run host ~until ~handler:host_handler ();
    !action_min
  in
  let domains_used = max 1 (min domains n_inst) in
  Driver.run B.driver ~draw_ahead:false ~censor:B.censor (fun () ->
      ignore
        (Par_sim.run_windows ~domains ~n_shards:n_inst ~window_ns:run.one_way_ns ~shard_step
           ~shard_next ~host_step
           ~host_next:(fun () -> if Driver.ended B.driver then max_int else Sim.next_time host)
           ~stopped:(fun () -> Driver.ended B.driver)
           ()));
  Option.iter
    (fun r ->
      r :=
        Array.fold_left
          (fun acc s -> acc + Sim.events_processed s)
          (Sim.events_processed host) shard_sims)
    events_out;
  B.finish ~engine:(Par_sim.Par { domains = domains_used }) ~domains_used
    (Array.init n_inst (fun i ->
         let counted = B.summarize_instance i host_inst.(i) in
         let mach = B.summarize_instance i (Server.Instance.metrics instances.(i)) in
         (* Population fields from the host mirror (exact at the stop
            instant); machinery counters from the shard (exact at the
            enclosing window boundary — identical on a cleanly drained
            run, where no work remains past the last completion). *)
         {
           counted with
           Metrics.preemptions = mach.Metrics.preemptions;
           steal_slices = mach.Metrics.steal_slices;
           negative_idle_gaps = mach.Metrics.negative_idle_gaps;
           dispatcher_busy_frac = mach.Metrics.dispatcher_busy_frac;
           dispatcher_app_frac = mach.Metrics.dispatcher_app_frac;
           worker_busy_frac = mach.Metrics.worker_busy_frac;
           median_idle_gap_ns = mach.Metrics.median_idle_gap_ns;
         }))

(* Engine resolution: a Par request falls back to Seq — with a stderr
   warning, never silently — whenever the model has no lookahead to
   exploit or asks for an observation only the shared-clock path can
   provide. Computing a wrong answer fast is not an option. *)
let resolve_engine run ~tracer engine =
  match engine with
  | Par_sim.Seq -> Par_sim.Seq
  | Par_sim.Par _ as p ->
    let degrade reason =
      Printf.eprintf "cluster: parallel engine degraded to seq: %s\n%!" reason;
      Par_sim.Seq
    in
    if run.one_way_ns <= 0 then
      degrade "zero lookahead (rtt_cycles rounds to a 0 ns wire leg; windows would be empty)"
    else if run.cluster.hedge <> Hedge.Off then
      degrade
        "hedging's winner-takes-all cancel flag couples servers with zero delay (no \
         lookahead; see DESIGN.md)"
    else if Option.is_some tracer then degrade "a shared tracer is not domain-safe"
    else if Option.is_some run.on_decision then
      degrade "on_decision observes instantaneous instance state across domains"
    else p

let run_detailed ~cluster ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
    ?on_decision ?events_out ?(engine = Par_sim.Seq) () =
  let inputs =
    Driver.check ~who:"Cluster.run" ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ()
  in
  let rtt_ns = Costs.ns_of cluster.specs.(0).config.Config.costs cluster.rtt_cycles in
  let run =
    {
      cluster;
      inputs;
      on_decision;
      one_way_ns = rtt_ns / 2;
      credit_ns = rtt_ns - (rtt_ns / 2);
    }
  in
  match resolve_engine run ~tracer engine with
  | Par_sim.Par { domains } -> run_par run ~events_out ~domains
  | Par_sim.Seq -> run_seq run ~tracer ~events_out

let run ~cluster ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
    ?on_decision ?engine () =
  fst
    (run_detailed ~cluster ~mix ~arrival ~n_requests ?warmup_frac ?drain_cap_ns ?seed ?tracer
       ?on_decision ?engine ())

let check_invariants s =
  let inst_completed =
    Array.fold_left (fun acc (m : Metrics.summary) -> acc + m.Metrics.completed) 0 s.per_instance
  in
  let routed_sum = Array.fold_left ( + ) 0 s.routed in
  if inst_completed <> s.cluster.Metrics.completed then
    Error
      (Printf.sprintf "per-instance completions (%d) != cluster completions (%d)" inst_completed
         s.cluster.Metrics.completed)
  else if s.cluster.Metrics.completed + s.cluster.Metrics.censored <> s.requests then
    Error
      (Printf.sprintf "completed (%d) + censored (%d) != requests (%d)"
         s.cluster.Metrics.completed s.cluster.Metrics.censored s.requests)
  else if routed_sum + s.lb_unrouted <> s.requests + s.hedges then
    Error
      (Printf.sprintf "routed (%d) + unrouted (%d) != requests (%d) + hedges (%d)" routed_sum
         s.lb_unrouted s.requests s.hedges)
  else if s.hedge_cancels > s.hedges || s.hedge_wins > s.hedges then
    Error
      (Printf.sprintf "hedge accounting: wins (%d) / cancels (%d) exceed hedges (%d)"
         s.hedge_wins s.hedge_cancels s.hedges)
  else if s.cluster.Metrics.goodput_rps > s.cluster.Metrics.offered_rps *. 1.05 then
    Error
      (Printf.sprintf "goodput %.1f exceeds offered %.1f" s.cluster.Metrics.goodput_rps
         s.cluster.Metrics.offered_rps)
  else Ok ()
