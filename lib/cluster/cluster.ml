module Sim = Repro_engine.Sim
module Rng = Repro_engine.Rng
module Stats = Repro_engine.Stats
module Par_sim = Repro_engine.Par_sim
module Mailbox = Repro_engine.Mailbox
module Costs = Repro_hw.Costs
module Mix = Repro_workload.Mix
module Arrival = Repro_workload.Arrival
module Config = Repro_runtime.Config
module Metrics = Repro_runtime.Metrics
module Request = Repro_runtime.Request
module Server = Repro_runtime.Server

type instance_spec = { config : Config.t; speed_factor : float }

let spec ?(speed_factor = 1.0) config =
  if speed_factor <= 0.0 then invalid_arg "Cluster.spec: speed_factor must be positive";
  Config.validate config;
  { config; speed_factor }

type t = {
  policy : Lb_policy.t;
  rtt_cycles : int;
  hedge : Hedge.t;
  cancel_cost_cycles : int option;
  steal : bool;
  specs : instance_spec array;
}

let make ?(policy = Lb_policy.Po2c) ?(rtt_cycles = 0) ?(hedge = Hedge.Off)
    ?cancel_cost_cycles ?(steal = false) specs =
  if Array.length specs < 1 then invalid_arg "Cluster.make: need at least one instance";
  if rtt_cycles < 0 then invalid_arg "Cluster.make: rtt_cycles must be >= 0";
  (match cancel_cost_cycles with
  | Some c when c < 0 -> invalid_arg "Cluster.make: cancel_cost_cycles must be >= 0"
  | _ -> ());
  Array.iter (fun s -> ignore (spec ~speed_factor:s.speed_factor s.config)) specs;
  (match policy with
  | Lb_policy.Jbsq n when n < 1 -> invalid_arg "Cluster.make: jbsq bound must be >= 1"
  | _ -> ());
  { policy; rtt_cycles; hedge; cancel_cost_cycles; steal; specs }

let homogeneous ?policy ?rtt_cycles ?hedge ?cancel_cost_cycles ?steal ?(stragglers = [])
    ~instances config =
  if instances < 1 then invalid_arg "Cluster.homogeneous: need at least one instance";
  let specs = Array.init instances (fun _ -> spec config) in
  List.iter
    (fun (i, f) ->
      if i < 0 || i >= instances then
        invalid_arg "Cluster.homogeneous: straggler index out of range";
      specs.(i) <- spec ~speed_factor:f config)
    stragglers;
  make ?policy ?rtt_cycles ?hedge ?cancel_cost_cycles ?steal specs

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

(* The shared-clock event type: the balancer's own steps plus every
   instance's internal steps, tagged with the instance index. *)
type ev =
  | Arrive
  | Deliver of { inst : int; req : Request.t }
  | Credit of { inst : int }
  | Hedge_fire of { req : Request.t; primary : int }
      (* the hedge delay elapsed with [req] still incomplete: consider
         duplicating it onto a second server *)
  | Cancel of { req : Request.t } (* revocation reaching the loser's server *)
  | Steal_probe of { victim : int; thief : int }
  | Steal_nack of { victim : int; thief : int }
  | End_of_run
  | Inst of { inst : int; ev : Server.event }

let run_seq ~cluster ~mix ~arrival ~n_requests ~warmup_frac ~drain_cap_ns ~seed ~tracer
    ~on_decision ~events_out () =
  let n_inst = Array.length cluster.specs in
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let lb_rng = Rng.split master in
  let mech_rngs = Array.init n_inst (fun _ -> Rng.split master) in
  let warmup_before = int_of_float (warmup_frac *. float_of_int n_requests) in
  let n_classes = Array.length mix.Mix.classes in
  (* Same in-flight bound as the standalone driver, per instance, plus the
     balancer's arrival/delivery/credit events riding the wire. *)
  let total_workers =
    Array.fold_left (fun acc s -> acc + s.config.Config.n_workers) 0 cluster.specs
  in
  let sim : ev Sim.t = Sim.create ~capacity:((4 * total_workers) + (8 * n_inst) + 16) () in
  (* The RTT is split across the two legs: request delivery rides the
     forward half, the completion credit rides the return half, so the
     balancer's view of a server lags the truth by up to one full RTT. *)
  let rtt_ns = Costs.ns_of cluster.specs.(0).config.Config.costs cluster.rtt_cycles in
  let one_way_ns = rtt_ns / 2 in
  let credit_ns = rtt_ns - one_way_ns in
  (* Rack-level accumulator: sees every completion and censoring, so counts,
     goodput (over the global measured span), sojourns and per-class tails
     come out exactly; the per-instance metrics stay the breakdowns. *)
  let agg = Metrics.create ~warmup_before ~n_classes in
  (* Requests censored while still at the balancer or on the wire belong to
     no instance; they get their own accumulator so the merge-all below
     covers the full population. *)
  let lb_metrics = Metrics.create ~warmup_before ~n_classes in
  let views = Array.make n_inst 0 in
  let routed = Array.make n_inst 0 in
  let pending : Request.t Queue.t = Queue.create () in
  let in_net : (int, int * Request.t) Hashtbl.t = Hashtbl.create 64 in
  let lb_state = Lb_policy.make_state ~rng:lb_rng in
  let lb_held = ref 0 in
  let arrived = ref 0 in
  let finished = ref 0 in
  let instances = ref [||] in
  (* --- tail-tolerance state --------------------------------------- *)
  let hedge_on = cluster.hedge <> Hedge.Off && n_inst > 1 in
  let estimator = Hedge.make_estimator () in
  let hedges = ref 0 in
  let hedge_wins = ref 0 in
  let hedge_cancels = ref 0 in
  let hedge_wasted_ns = ref 0 in
  let steals = ref 0 in
  let lb_censored = ref 0 in
  (* Duplicate legs get ids past the arrival sequence so every leg is
     globally unique in traces, [in_net] and the instances' live tables. *)
  let next_leg_id = ref n_requests in
  (* origin id -> (primary leg, duplicate leg), for pairs with no completed
     leg yet; the first completion wins and revokes the other. *)
  let hedged : (int, Request.t * Request.t) Hashtbl.t = Hashtbl.create 64 in
  (* Revoked legs whose discard has not yet been observed; whatever is left
     at the end of the run still counts as wasted work. *)
  let zombies : (int, Request.t) Hashtbl.t = Hashtbl.create 64 in
  (* leg id -> instance currently responsible for it (updated on dispatch
     and on steal-forwarding), so a revocation can chase a moved leg. A leg
     leaves the table when it completes or is discarded: revoking it then
     would be a no-op ([Server.Instance.cancel] ignores requests no longer
     live), so the table holds only legs in flight instead of every leg of
     the run. *)
  let leg_inst : (int, int) Hashtbl.t = Hashtbl.create 256 in
  (* primary id -> its pending Hedge_fire. A primary that completes first
     cancels the timer rather than leaving it to pop as a no-op. *)
  let hedge_timers : (int, Sim.timer) Hashtbl.t = Hashtbl.create (if hedge_on then 64 else 1) in
  let steal_pending = Array.make n_inst false in
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
        Sim.schedule_after sim ~delay:one_way_ns (Steal_probe { victim = v; thief })
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
    if one_way_ns = 0 then Server.Instance.inject !instances.(i) req
    else begin
      Hashtbl.replace in_net req.Request.id (i, req);
      Sim.schedule_after sim ~delay:one_way_ns (Deliver { inst = i; req })
    end
  and dispatch i req =
    (match on_decision with
    | None -> ()
    | Some f ->
      f ~views:(Array.copy views)
        ~lengths:(Array.map Server.Instance.inflight !instances)
        ~chosen:i);
    send_to i req;
    if hedge_on then begin
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
          (Sim.arm_after sim ~delay:d (Hedge_fire { req; primary = i }))
    end
  in
  let on_complete i (req : Request.t) =
    if hedge_on then begin
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
        Sim.schedule_after sim ~delay:one_way_ns (Cancel { req = loser })
    end;
    Metrics.record_completion agg req;
    incr finished;
    (* Both wire legs gate on the same ns-level condition: with a zero-ns
       credit leg the view updates synchronously, exactly like delivery
       does with a zero-ns forward leg. (Gating on [rtt_cycles = 0] here
       desynchronized views whenever a small rtt_cycles rounded to 0 ns.) *)
    if credit_ns = 0 then do_credit i
    else Sim.schedule_after sim ~delay:credit_ns (Credit { inst = i });
    if !finished >= n_requests then Sim.stop sim
  in
  let on_cancelled i (req : Request.t) =
    Hashtbl.remove zombies req.Request.id;
    Hashtbl.remove leg_inst req.Request.id;
    hedge_wasted_ns := !hedge_wasted_ns + req.Request.done_ns;
    (* A discarded leg never completes, so its send must be balanced by an
       explicit credit. Always scheduled (even at zero RTT): the discard
       can fire from deep inside the instance's dispatcher machinery, where
       re-entering it synchronously is not safe. *)
    Sim.schedule_after sim ~delay:credit_ns (Credit { inst = i })
  in
  instances :=
    Array.init n_inst (fun i ->
        let s = cluster.specs.(i) in
        Server.Instance.create ~sim
          ~lift:(fun e -> Inst { inst = i; ev = e })
          ~config:s.config ~warmup_before ~n_classes ~rng:mech_rngs.(i)
          ~speed_factor:s.speed_factor ?cancel_cost_cycles:cluster.cancel_cost_cycles ?tracer
          ~on_complete:(on_complete i)
          ?on_cancelled:(if hedge_on then Some (on_cancelled i) else None)
          ());
  let handler _ = function
    | Arrive ->
      let now = Sim.now sim in
      (* Service time is drawn at the balancer, before routing: every policy
         at the same seed schedules the identical request sequence. *)
      let profile = Mix.sample mix service_rng in
      let req = Request.create ~id:!arrived ~arrival_ns:now ~profile in
      incr arrived;
      if !arrived < n_requests then begin
        let gap = Arrival.next_gap_ns arrival arrival_rng ~index:(!arrived - 1) in
        Sim.schedule_after sim ~delay:gap Arrive
      end
      else Sim.schedule_after sim ~delay:drain_cap_ns End_of_run;
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
    | Deliver { inst; req } ->
      Hashtbl.remove in_net req.Request.id;
      Server.Instance.inject !instances.(inst) req
    | Credit { inst } -> do_credit inst
    | Hedge_fire { req; primary } ->
      Hashtbl.remove hedge_timers req.Request.id;
      if
        (not req.Request.cancelled)
        && Hedge.within_budget cluster.hedge ~hedges:!hedges ~primaries:!arrived
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
      | Some j -> Server.Instance.cancel !instances.(j) req
      | None -> ())
    | Steal_probe { victim; thief } -> (
      match Server.Instance.surrender !instances.(victim) with
      | Some req ->
        incr steals;
        steal_pending.(thief) <- false;
        if hedge_on then Hashtbl.replace leg_inst req.Request.id thief;
        (* Forward victim -> thief: one more hop on the wire. *)
        if one_way_ns = 0 then Server.Instance.inject !instances.(thief) req
        else begin
          Hashtbl.replace in_net req.Request.id (thief, req);
          Sim.schedule_after sim ~delay:one_way_ns (Deliver { inst = thief; req })
        end
      | None ->
        (* Nothing stealable (everything queued has already run): the nack
           returns after the credit leg and rolls the view transfer back. *)
        Sim.schedule_after sim ~delay:credit_ns (Steal_nack { victim; thief }))
    | Steal_nack { victim; thief } ->
      views.(victim) <- views.(victim) + 1;
      views.(thief) <- views.(thief) - 1;
      steal_pending.(thief) <- false
    | Inst { inst; ev } -> Server.Instance.handle !instances.(inst) ev
    | End_of_run ->
      let now_ns = Sim.now sim in
      (* Unresolved hedge pairs: neither leg completed. Exactly one leg per
         arrival may enter the censored population, so revoke the duplicate
         before the census (waste accounting happens after the run, where
         it also covers cleanly-stopped runs). *)
      if hedge_on then
        (Hashtbl.iter (fun _ ((_, dup) : Request.t * Request.t) -> dup.Request.cancelled <- true) hedged)
        [@lint.deterministic
          "flag-setting only; independent of iteration order"];
      Array.iter
        (fun inst ->
          Server.Instance.censor_all inst ~now_ns
            ~also:(fun req -> Metrics.record_censored agg req ~now_ns))
        !instances;
      (Hashtbl.iter
         (fun _ ((_, req) : int * Request.t) ->
           if not req.Request.cancelled then begin
             incr lb_censored;
             Metrics.record_censored agg req ~now_ns;
             Metrics.record_censored lb_metrics req ~now_ns
           end)
         in_net)
      [@lint.deterministic
        "hash order is stable for a fixed insertion history (non-randomized Hashtbl); \
         censored-request accounting is pinned by the golden tests"];
      Queue.iter
        (fun req ->
          incr lb_censored;
          Metrics.record_censored agg req ~now_ns;
          Metrics.record_censored lb_metrics req ~now_ns)
        pending;
      Sim.stop sim
  in
  Sim.schedule_at sim ~time:0 Arrive;
  Sim.run sim ~handler ();
  (match events_out with Some r -> r := Sim.events_processed sim | None -> ());
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
  let span_ns = max 1 (Sim.now sim) in
  let instances = !instances in
  let class_names = Array.map (fun (c : Mix.class_def) -> c.name) mix.Mix.classes in
  let per_instance =
    Array.mapi
      (fun i inst ->
        Metrics.summarize
          (Server.Instance.metrics inst)
          ~offered_rps:(float_of_int routed.(i) /. (float_of_int span_ns /. 1e9))
          ~span_ns
          ~n_workers:cluster.specs.(i).config.Config.n_workers
          ~class_names)
      instances
  in
  (* Headline slowdown percentiles come from one merge_all over the
     per-instance sample sets plus the balancer-censored stragglers; by
     construction this is the same multiset [agg] holds, so the merged view
     and the rack accumulator agree exactly — the override below just makes
     the cluster summary's provenance the per-instance breakdowns. *)
  let merged =
    Stats.merge_all
      (Metrics.slowdown_samples lb_metrics
      :: Array.to_list
           (Array.map (fun i -> Metrics.slowdown_samples (Server.Instance.metrics i)) instances))
  in
  let agg_summary =
    Metrics.summarize agg
      ~offered_rps:(Arrival.rate_rps arrival)
      ~span_ns ~n_workers:total_workers ~class_names
  in
  let pctl p = if Stats.is_empty merged then 0.0 else Stats.percentile merged p in
  let fsum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 per_instance in
  let isum f = Array.fold_left (fun acc s -> acc + f s) 0 per_instance in
  let cluster_summary =
    {
      agg_summary with
      Metrics.mean_slowdown = Stats.mean merged;
      p50_slowdown = pctl 50.0;
      p99_slowdown = pctl 99.0;
      p999_slowdown = pctl 99.9;
      preemptions = isum (fun s -> s.Metrics.preemptions);
      steal_slices = isum (fun s -> s.Metrics.steal_slices);
      negative_idle_gaps = isum (fun s -> s.Metrics.negative_idle_gaps);
      dispatcher_busy_frac = fsum (fun s -> s.Metrics.dispatcher_busy_frac) /. float_of_int n_inst;
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
      engine = Par_sim.Seq;
      domains_used = 1;
    },
    merged )

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
  | P_arrive
  | P_credit of { inst : int }
  | P_steal_nack of { victim : int; thief : int }
  | P_end_of_run
  | P_complete of { inst : int; req : Request.t }
  | P_surrendered of { victim : int; thief : int; req : Request.t option }

(* The parallel run: same balancer logic as [run_seq] (identical RNG
   stream splits, identical view/credit accounting, identical times on
   every wire leg), but each instance advances on its own domain inside
   conservative windows of one wire leg ([rtt/2] ns). Hedging is degraded
   away before we get here — its winner-takes-all flag is a zero-delay
   cross-server coupling (see DESIGN.md) — so the host<->shard traffic is
   exactly: deliveries and steal probes outbound, completions and
   surrender results inbound.

   The host lags its shards by one barrier phase. Everything the host
   counts (completions, credits, censoring, stop) therefore derives from
   the merged records, never from peeking at live instance state; the
   per-instance population metrics are mirrored host-side the same way so
   the invariant checks stay exact even though a shard may execute a few
   machine-internal events past the instant the host stopped the run
   (those events can do no request-visible work: by then every request
   has completed). *)
let run_par ~cluster ~mix ~arrival ~n_requests ~warmup_frac ~drain_cap_ns ~seed ~events_out
    ~domains () =
  let n_inst = Array.length cluster.specs in
  let master = Rng.create ~seed in
  let arrival_rng = Rng.split master in
  let service_rng = Rng.split master in
  let lb_rng = Rng.split master in
  let mech_rngs = Array.init n_inst (fun _ -> Rng.split master) in
  let warmup_before = int_of_float (warmup_frac *. float_of_int n_requests) in
  let n_classes = Array.length mix.Mix.classes in
  let total_workers =
    Array.fold_left (fun acc s -> acc + s.config.Config.n_workers) 0 cluster.specs
  in
  let host : par_ev Sim.t = Sim.create ~capacity:((4 * total_workers) + (8 * n_inst) + 16) () in
  let rtt_ns = Costs.ns_of cluster.specs.(0).config.Config.costs cluster.rtt_cycles in
  let one_way_ns = rtt_ns / 2 in
  let credit_ns = rtt_ns - one_way_ns in
  assert (one_way_ns > 0) (* the dispatcher degraded zero-lookahead runs to seq *);
  let agg = Metrics.create ~warmup_before ~n_classes in
  let lb_metrics = Metrics.create ~warmup_before ~n_classes in
  (* Host-side mirror of each instance's population counts and samples,
     fed from the merged completion/censor records: exact at the host's
     stop time, where the shard-side accumulators are only exact at the
     enclosing window boundary. *)
  let host_inst = Array.init n_inst (fun _ -> Metrics.create ~warmup_before ~n_classes) in
  let views = Array.make n_inst 0 in
  let routed = Array.make n_inst 0 in
  let pending : Request.t Queue.t = Queue.create () in
  (* Every live leg, from dispatch to completion: id -> (current instance,
     request, delivery time). Replaces both the seq path's [in_net] wire
     table and its peek at instance-resident requests when censoring. *)
  let wire : (int, int * Request.t * int) Hashtbl.t = Hashtbl.create 64 in
  let lb_state = Lb_policy.make_state ~rng:lb_rng in
  let lb_held = ref 0 in
  let arrived = ref 0 in
  let finished = ref 0 in
  let steals = ref 0 in
  let lb_censored = ref 0 in
  let steal_pending = Array.make n_inst false in
  let stop_flag = ref false in
  let shard_sims =
    Array.init n_inst (fun i ->
        Sim.create ~capacity:((4 * cluster.specs.(i).config.Config.n_workers) + 16) ())
  in
  let inbox : (int * shard_ev) Mailbox.t array =
    Array.init n_inst (fun _ -> Mailbox.create ~capacity:256 ())
  in
  let outbox : (int * par_ev) Mailbox.t array =
    Array.init n_inst (fun _ -> Mailbox.create ~capacity:256 ())
  in
  let instances =
    Array.init n_inst (fun i ->
        let s = cluster.specs.(i) in
        Server.Instance.create ~sim:shard_sims.(i)
          ~lift:(fun e -> S_inst e)
          ~config:s.config ~warmup_before ~n_classes ~rng:mech_rngs.(i)
          ~speed_factor:s.speed_factor ?cancel_cost_cycles:cluster.cancel_cost_cycles
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
  (* Earliest inbox action pushed during the current host window; the
     window loop folds it into the next window start so a skip-ahead can
     never jump past an undelivered action. *)
  let action_min = ref max_int in
  let push_shard i ~at act =
    Mailbox.push inbox.(i) (at, act);
    if at < !action_min then action_min := at
  in
  let rec do_credit i =
    views.(i) <- views.(i) - 1;
    drain_pending ();
    maybe_steal i
  and maybe_steal thief =
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
        (* The probe executes at the victim's shard one wire leg out
           (where the seq path schedules a host event and surrenders from
           its handler at the same instant). *)
        push_shard v ~at:(Sim.now host + one_way_ns) (S_probe { thief })
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
    let at = Sim.now host + one_way_ns in
    Hashtbl.replace wire req.Request.id (i, req, at);
    push_shard i ~at (S_deliver req)
  and dispatch i req = send_to i req in
  let host_handler _ = function
    | P_arrive ->
      let now = Sim.now host in
      let profile = Mix.sample mix service_rng in
      let req = Request.create ~id:!arrived ~arrival_ns:now ~profile in
      incr arrived;
      if !arrived < n_requests then begin
        let gap = Arrival.next_gap_ns arrival arrival_rng ~index:(!arrived - 1) in
        Sim.schedule_after host ~delay:gap P_arrive
      end
      else Sim.schedule_after host ~delay:drain_cap_ns P_end_of_run;
      if not (Queue.is_empty pending) then begin
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
    | P_credit { inst } -> do_credit inst
    | P_steal_nack { victim; thief } ->
      views.(victim) <- views.(victim) + 1;
      views.(thief) <- views.(thief) - 1;
      steal_pending.(thief) <- false
    | P_complete { inst; req } ->
      Hashtbl.remove wire req.Request.id;
      Metrics.record_completion agg req;
      Metrics.record_completion host_inst.(inst) req;
      incr finished;
      Sim.schedule_after host ~delay:credit_ns (P_credit { inst });
      if !finished >= n_requests then begin
        stop_flag := true;
        Sim.stop host
      end
    | P_surrendered { victim = _; thief; req = Some req } ->
      incr steals;
      steal_pending.(thief) <- false;
      let at = Sim.now host + one_way_ns in
      Hashtbl.replace wire req.Request.id (thief, req, at);
      push_shard thief ~at (S_deliver req)
    | P_surrendered { victim; thief; req = None } ->
      Sim.schedule_after host ~delay:credit_ns (P_steal_nack { victim; thief })
    | P_end_of_run ->
      let now_ns = Sim.now host in
      (Hashtbl.iter
         (fun _ ((inst, req, delivered_at) : int * Request.t * int) ->
           if delivered_at <= now_ns then begin
             (* Resident at an instance: the seq path's censor_all. *)
             Metrics.record_censored agg req ~now_ns;
             Metrics.record_censored host_inst.(inst) req ~now_ns
           end
           else begin
             (* Still on the wire: the balancer-side population. *)
             incr lb_censored;
             Metrics.record_censored agg req ~now_ns;
             Metrics.record_censored lb_metrics req ~now_ns
           end)
         wire)
      [@lint.deterministic
        "hash order is stable for a fixed insertion history (non-randomized Hashtbl); \
         censored-request accounting is order-insensitive (multiset counts and samples)"];
      Queue.iter
        (fun req ->
          incr lb_censored;
          Metrics.record_censored agg req ~now_ns;
          Metrics.record_censored lb_metrics req ~now_ns)
        pending;
      stop_flag := true;
      Sim.stop host
  in
  let window_ns = one_way_ns in
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
    if not !stop_flag then Sim.run host ~until ~handler:host_handler ();
    !action_min
  in
  Sim.schedule_at host ~time:0 P_arrive;
  let domains_used = max 1 (min domains n_inst) in
  ignore
    (Par_sim.run_windows ~domains ~n_shards:n_inst ~window_ns ~shard_step ~shard_next
       ~host_step
       ~host_next:(fun () -> if !stop_flag then max_int else Sim.next_time host)
       ~stopped:(fun () -> !stop_flag)
       ());
  (match events_out with
  | Some r ->
    r :=
      Array.fold_left
        (fun acc s -> acc + Sim.events_processed s)
        (Sim.events_processed host) shard_sims
  | None -> ());
  let span_ns = max 1 (Sim.now host) in
  let class_names = Array.map (fun (c : Mix.class_def) -> c.name) mix.Mix.classes in
  let per_instance =
    Array.init n_inst (fun i ->
        let offered_rps = float_of_int routed.(i) /. (float_of_int span_ns /. 1e9) in
        let n_workers = cluster.specs.(i).config.Config.n_workers in
        let counted =
          Metrics.summarize host_inst.(i) ~offered_rps ~span_ns ~n_workers ~class_names
        in
        let mach =
          Metrics.summarize
            (Server.Instance.metrics instances.(i))
            ~offered_rps ~span_ns ~n_workers ~class_names
        in
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
        })
  in
  let merged =
    Stats.merge_all
      (Metrics.slowdown_samples lb_metrics
      :: Array.to_list (Array.map Metrics.slowdown_samples host_inst))
  in
  let agg_summary =
    Metrics.summarize agg
      ~offered_rps:(Arrival.rate_rps arrival)
      ~span_ns ~n_workers:total_workers ~class_names
  in
  let pctl p = if Stats.is_empty merged then 0.0 else Stats.percentile merged p in
  let fsum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 per_instance in
  let isum f = Array.fold_left (fun acc s -> acc + f s) 0 per_instance in
  let cluster_summary =
    {
      agg_summary with
      Metrics.mean_slowdown = Stats.mean merged;
      p50_slowdown = pctl 50.0;
      p99_slowdown = pctl 99.0;
      p999_slowdown = pctl 99.9;
      preemptions = isum (fun s -> s.Metrics.preemptions);
      steal_slices = isum (fun s -> s.Metrics.steal_slices);
      negative_idle_gaps = isum (fun s -> s.Metrics.negative_idle_gaps);
      dispatcher_busy_frac = fsum (fun s -> s.Metrics.dispatcher_busy_frac) /. float_of_int n_inst;
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
      hedges = 0;
      hedge_wins = 0;
      hedge_cancels = 0;
      hedge_wasted_ns = 0;
      steals = !steals;
      engine = Par_sim.Par { domains = domains_used };
      domains_used;
    },
    merged )

(* Engine resolution: a Par request falls back to Seq — with a stderr
   warning, never silently — whenever the model has no lookahead to
   exploit or asks for an observation only the shared-clock path can
   provide. Computing a wrong answer fast is not an option. *)
let resolve_engine ~cluster ~tracer ~on_decision engine =
  match engine with
  | Par_sim.Seq -> Par_sim.Seq
  | Par_sim.Par _ as p ->
    let rtt_ns = Costs.ns_of cluster.specs.(0).config.Config.costs cluster.rtt_cycles in
    let degrade reason =
      Printf.eprintf "cluster: parallel engine degraded to seq: %s\n%!" reason;
      Par_sim.Seq
    in
    if rtt_ns / 2 <= 0 then
      degrade "zero lookahead (rtt_cycles rounds to a 0 ns wire leg; windows would be empty)"
    else if cluster.hedge <> Hedge.Off then
      degrade
        "hedging's winner-takes-all cancel flag couples servers with zero delay (no \
         lookahead; see DESIGN.md)"
    else if Option.is_some tracer then degrade "a shared tracer is not domain-safe"
    else if Option.is_some on_decision then
      degrade "on_decision observes instantaneous instance state across domains"
    else p

let run_detailed ~cluster ~mix ~arrival ~n_requests ?(warmup_frac = 0.1)
    ?(drain_cap_ns = 400_000_000) ?(seed = 42) ?tracer ?on_decision ?events_out
    ?(engine = Par_sim.Seq) () =
  if n_requests < 1 then invalid_arg "Cluster.run: need at least one request";
  Arrival.validate arrival;
  match resolve_engine ~cluster ~tracer ~on_decision engine with
  | Par_sim.Par { domains } ->
    run_par ~cluster ~mix ~arrival ~n_requests ~warmup_frac ~drain_cap_ns ~seed ~events_out
      ~domains ()
  | Par_sim.Seq ->
    run_seq ~cluster ~mix ~arrival ~n_requests ~warmup_frac ~drain_cap_ns ~seed ~tracer
      ~on_decision ~events_out ()

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
