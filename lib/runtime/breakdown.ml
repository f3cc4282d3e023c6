module Stats = Repro_engine.Stats
module Costs = Repro_hw.Costs

type components = {
  ingress_ns : int;
  central_ns : int;
  local_ns : int;
  handoff_ns : int;
  cswitch_ns : int;
  service_ns : int;
  instr_ns : int;
  preempt_ns : int;
  consensus_ns : int;
  other_ns : int;
}

let zero =
  {
    ingress_ns = 0;
    central_ns = 0;
    local_ns = 0;
    handoff_ns = 0;
    cswitch_ns = 0;
    service_ns = 0;
    instr_ns = 0;
    preempt_ns = 0;
    consensus_ns = 0;
    other_ns = 0;
  }

let total_ns c =
  c.ingress_ns + c.central_ns + c.local_ns + c.handoff_ns + c.cswitch_ns + c.service_ns
  + c.instr_ns + c.preempt_ns + c.consensus_ns + c.other_ns

let add a b =
  {
    ingress_ns = a.ingress_ns + b.ingress_ns;
    central_ns = a.central_ns + b.central_ns;
    local_ns = a.local_ns + b.local_ns;
    handoff_ns = a.handoff_ns + b.handoff_ns;
    cswitch_ns = a.cswitch_ns + b.cswitch_ns;
    service_ns = a.service_ns + b.service_ns;
    instr_ns = a.instr_ns + b.instr_ns;
    preempt_ns = a.preempt_ns + b.preempt_ns;
    consensus_ns = a.consensus_ns + b.consensus_ns;
    other_ns = a.other_ns + b.other_ns;
  }

let component_names =
  [
    "ingress"; "central-q"; "local-q"; "handoff"; "cswitch"; "service"; "instr"; "preempt";
    "consensus"; "other";
  ]

let to_list c =
  [
    ("ingress", c.ingress_ns);
    ("central-q", c.central_ns);
    ("local-q", c.local_ns);
    ("handoff", c.handoff_ns);
    ("cswitch", c.cswitch_ns);
    ("service", c.service_ns);
    ("instr", c.instr_ns);
    ("preempt", c.preempt_ns);
    ("consensus", c.consensus_ns);
    ("other", c.other_ns);
  ]

type request_breakdown = {
  request : int;
  arrival_ns : int;
  completion_ns : int;
  sojourn_ns : int;
  service_ns : int;
  preemptions : int;
  final_worker : int;
  components : components;
}

(* ------------------------------------------------------------------ *)
(* Lifecycle replay                                                    *)
(* ------------------------------------------------------------------ *)

(* Attribute the interval between each pair of consecutive events of one
   request's lifecycle. The rules below cover every edge the two servers
   can emit; anything else lands in [other_ns] so tests notice schema
   drift. Execution intervals (Started/Resumed -> Preempted/Completed)
   split into progress gained (service) and the instrumentation slowdown
   on top; handoff and worker-side preemption intervals carve out one
   context switch when they are long enough to contain it. *)
let lifecycle ~cswitch_cost_ns ~request evs =
  match (evs, List.rev evs) with
  | ( { Tracing.kind = Arrived { service_ns = demand }; time_ns = arrival_ns; _ } :: _,
      { Tracing.kind = Completed { worker = final_worker }; time_ns = completion_ns; _ } :: _ ) ->
    let ingress = ref 0
    and central = ref 0
    and local = ref 0
    and handoff = ref 0
    and cswitch = ref 0
    and service = ref 0
    and instr = ref 0
    and preempt = ref 0
    and consensus = ref 0
    and other = ref 0 in
    let seg_start_progress = ref 0 in
    let preemptions = ref 0 in
    let exec_interval ~dt ~stop_progress =
      let gained = max 0 (min dt (stop_progress - !seg_start_progress)) in
      service := !service + gained;
      instr := !instr + (dt - gained)
    in
    let carve target dt =
      if dt >= cswitch_cost_ns then begin
        cswitch := !cswitch + cswitch_cost_ns;
        target := !target + (dt - cswitch_cost_ns)
      end
      else target := !target + dt
    in
    let rec walk = function
      | a :: (b :: _ as rest) ->
        let dt = b.Tracing.time_ns - a.Tracing.time_ns in
        (match (a.Tracing.kind, b.Tracing.kind) with
        (* Raft front-end: client arrival -> consensus done -> re-arrival at
           the serving member instance. Both edges are consensus time (the
           second is the zero-width hand-off to the instance's own
           [Arrived]). *)
        | Arrived _, Replicated _ -> consensus := !consensus + dt
        | Replicated _, Arrived _ -> consensus := !consensus + dt
        | Arrived _, Admitted _ -> ingress := !ingress + dt
        | Arrived _, Delivered _ -> central := !central + dt
        | (Admitted _ | Requeued _), (Dispatched _ | Stolen | Delivered _) ->
          central := !central + dt
        | Stolen, (Started _ | Resumed _) -> central := !central + dt
        | Dispatched _, Delivered _ -> local := !local + dt
        | Delivered _, (Started _ | Resumed _) -> carve handoff dt
        | Preempted { worker; _ }, Resumed _ when worker < 0 ->
          (* waiting in the dispatcher's saved-context buffer *)
          central := !central + dt
        | Preempted { worker; _ }, Requeued _ ->
          if worker >= 0 then carve preempt dt else preempt := !preempt + dt
        | (Started _ | Resumed _), Preempted { progress_ns; _ } ->
          exec_interval ~dt ~stop_progress:progress_ns
        | (Started _ | Resumed _), Completed _ -> exec_interval ~dt ~stop_progress:demand
        | _, _ -> other := !other + dt);
        (match b.Tracing.kind with
        | Started _ -> seg_start_progress := 0
        | Resumed { progress_ns; _ } -> seg_start_progress := progress_ns
        | Preempted _ -> incr preemptions
        | _ -> ());
        walk rest
      | _ -> ()
    in
    walk evs;
    Some
      {
        request;
        arrival_ns;
        completion_ns;
        sojourn_ns = completion_ns - arrival_ns;
        service_ns = demand;
        preemptions = !preemptions;
        final_worker;
        components =
          {
            ingress_ns = !ingress;
            central_ns = !central;
            local_ns = !local;
            handoff_ns = !handoff;
            cswitch_ns = !cswitch;
            service_ns = !service;
            instr_ns = !instr;
            preempt_ns = !preempt;
            consensus_ns = !consensus;
            other_ns = !other;
          };
      }
  | _ -> None (* truncated by the ring, censored, or still in flight *)

(* Group entries per request in first-seen order, then replay each
   lifecycle. [iter] abstracts the event source so [of_trace] can stream
   straight off the tracer ring without first materializing every retained
   entry as a list. *)
let of_iter ~cswitch_cost_ns iter =
  let by_request : (int, Tracing.entry list ref) Hashtbl.t = Hashtbl.create 1024 in
  let order = ref [] in
  iter (fun (e : Tracing.entry) ->
      match Hashtbl.find_opt by_request e.request with
      | Some l -> l := e :: !l
      | None ->
        Hashtbl.add by_request e.request (ref [ e ]);
        order := e.request :: !order);
  List.filter_map
    (fun request ->
      let evs = List.rev !(Hashtbl.find by_request request) in
      lifecycle ~cswitch_cost_ns ~request evs)
    (List.rev !order)

let of_entries ?(cswitch_cost_ns = 0) entries = of_iter ~cswitch_cost_ns (fun f -> List.iter f entries)

let of_trace ?(cswitch_cost_ns = 0) tracer =
  of_iter ~cswitch_cost_ns (fun f -> Tracing.iter_entries tracer ~f)

(* ------------------------------------------------------------------ *)
(* Invariants and views                                                *)
(* ------------------------------------------------------------------ *)

let check b =
  let bad =
    List.filter (fun (_, v) -> v < 0) (to_list b.components)
  in
  if bad <> [] then
    Error
      (Printf.sprintf "request %d: negative component %s" b.request
         (String.concat ", " (List.map fst bad)))
  else begin
    let sum = total_ns b.components in
    if sum <> b.sojourn_ns then
      Error
        (Printf.sprintf "request %d: components sum to %dns but sojourn is %dns" b.request sum
           b.sojourn_ns)
    else Ok ()
  end

let per_component_stats breakdowns =
  List.map
    (fun name ->
      let s = Stats.create () in
      List.iter
        (fun b -> Stats.add s (float_of_int (List.assoc name (to_list b.components))))
        breakdowns;
      (name, s))
    component_names

let render breakdowns =
  if breakdowns = [] then "(no complete request lifecycles in the trace)"
  else begin
    let n = List.length breakdowns in
    let total_sojourn =
      List.fold_left (fun acc b -> acc +. float_of_int b.sojourn_ns) 0.0 breakdowns
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "latency breakdown over %d requests (us per request)\n" n);
    Buffer.add_string buf
      (Printf.sprintf "%-10s %8s %9s %9s %9s %9s\n" "component" "share" "mean" "p50" "p99"
         "p99.9");
    List.iter
      (fun (name, s) ->
        let pct p = if Stats.is_empty s then 0.0 else Stats.percentile s p /. 1e3 in
        let sum = Stats.mean s *. float_of_int (Stats.count s) in
        Buffer.add_string buf
          (Printf.sprintf "%-10s %7.2f%% %9.2f %9.2f %9.2f %9.2f\n" name
             (100.0 *. sum /. Float.max 1.0 total_sojourn)
             (Stats.mean s /. 1e3) (pct 50.0) (pct 99.0) (pct 99.9)))
      (per_component_stats breakdowns);
    let soj = Stats.create () in
    List.iter (fun b -> Stats.add soj (float_of_int b.sojourn_ns)) breakdowns;
    Buffer.add_string buf
      (Printf.sprintf "%-10s %8s %9.2f %9.2f %9.2f %9.2f\n" "sojourn" ""
         (Stats.mean soj /. 1e3)
         (Stats.percentile soj 50.0 /. 1e3)
         (Stats.percentile soj 99.0 /. 1e3)
         (Stats.percentile soj 99.9 /. 1e3));
    Buffer.contents buf
  end

let to_csv breakdowns =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "request,arrival_ns,sojourn_ns,preemptions,final_worker";
  List.iter (fun name -> Buffer.add_string buf ("," ^ name ^ "_ns")) component_names;
  Buffer.add_char buf '\n';
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d" b.request b.arrival_ns b.sojourn_ns b.preemptions
           b.final_worker);
      List.iter
        (fun (_, v) -> Buffer.add_string buf ("," ^ string_of_int v))
        (to_list b.components);
      Buffer.add_char buf '\n')
    breakdowns;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Per-system attribution                                              *)
(* ------------------------------------------------------------------ *)

type attribution_row = {
  system : string;
  n : int;
  mean_sojourn_ns : float;
  mean : components;
}

let attribution ~system breakdowns =
  let n = List.length breakdowns in
  let sum = List.fold_left (fun acc b -> add acc b.components) zero breakdowns in
  let mean_of v = if n = 0 then 0 else v / n in
  {
    system;
    n;
    mean_sojourn_ns =
      (if n = 0 then 0.0
       else
         List.fold_left (fun acc b -> acc +. float_of_int b.sojourn_ns) 0.0 breakdowns
         /. float_of_int n);
    mean =
      {
        ingress_ns = mean_of sum.ingress_ns;
        central_ns = mean_of sum.central_ns;
        local_ns = mean_of sum.local_ns;
        handoff_ns = mean_of sum.handoff_ns;
        cswitch_ns = mean_of sum.cswitch_ns;
        service_ns = mean_of sum.service_ns;
        instr_ns = mean_of sum.instr_ns;
        preempt_ns = mean_of sum.preempt_ns;
        consensus_ns = mean_of sum.consensus_ns;
        other_ns = mean_of sum.other_ns;
      };
  }

let render_attribution rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-16s %6s %9s" "system" "n" "sojourn");
  List.iter (fun name -> Buffer.add_string buf (Printf.sprintf " %9s" name)) component_names;
  Buffer.add_string buf "   (mean ns/request)\n";
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "%-16s %6d %9.0f" r.system r.n r.mean_sojourn_ns);
      List.iter
        (fun (_, v) -> Buffer.add_string buf (Printf.sprintf " %9d" v))
        (to_list r.mean);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let default_systems =
  [ "concord"; "concord-no-steal"; "shinjuku"; "persephone"; "coop-sq"; "coop-jbsq"; "concord-uipi" ]

let run_systems ?(systems = default_systems) ?workload ?n_workers ?(rate_rps = 150_000.0)
    ?(n_requests = 4_000) ?(seed = 42) () =
  let mix = match workload with Some m -> m | None -> Repro_workload.Presets.ycsb_a in
  (* Name every system before running any, so a typo fails at once. *)
  let makes =
    List.map
      (fun name ->
        match Systems.lookup name with Ok make -> (name, make) | Error e -> invalid_arg e)
      systems
  in
  List.map
    (fun (name, (make : Systems.args)) ->
      let config = make ?n_workers () in
      let tracer = Tracing.create ~capacity:(max 65_536 (n_requests * 64)) () in
      let (_ : Metrics.summary) =
        Server.run ~config ~mix
          ~arrival:(Repro_workload.Arrival.Poisson { rate_rps })
          ~n_requests ~seed ~tracer ()
      in
      let cswitch_cost_ns =
        Costs.ns_of config.Config.costs config.Config.costs.Costs.context_switch_cycles
      in
      attribution ~system:name (of_trace ~cswitch_cost_ns tracer))
    makes
