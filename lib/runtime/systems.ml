module Costs = Repro_hw.Costs
module Mechanism = Repro_hw.Mechanism

type args = ?n_workers:int -> ?quantum_ns:int -> ?costs:Repro_hw.Costs.t -> unit -> Config.t

let base ~name ~mechanism ~queue_model ~dispatcher_steals ?(policy = Policy.Fcfs)
    ?(lock_model = Config.Fine_grained) ?(ingress_batch = 1) ?(n_workers = 14)
    ?(quantum_ns = 5_000) ?(costs = Costs.default) () =
  {
    Config.name;
    n_workers;
    quantum_ns;
    mechanism;
    queue_model;
    dispatcher_steals;
    policy;
    lock_model;
    ingress_batch;
    costs;
  }

let shinjuku ?n_workers ?quantum_ns ?costs () =
  base ~name:"Shinjuku" ~mechanism:Mechanism.Ipi ~queue_model:Config.Single_queue
    ~dispatcher_steals:false ?n_workers ?quantum_ns ?costs ()

let shinjuku_whole_call ?n_workers ?quantum_ns ?costs () =
  base ~name:"Shinjuku (whole-call locks)" ~mechanism:Mechanism.Ipi
    ~queue_model:Config.Single_queue ~dispatcher_steals:false
    ~lock_model:Config.Whole_request ?n_workers ?quantum_ns ?costs ()

(* Persephone runs the networker on the dispatcher's own hardware thread
   (§5.1), so ingress costs more dispatcher cycles than Shinjuku's separate
   networker hyperthread. *)
let persephone_costs costs =
  { costs with Costs.disp_ingress_cycles = costs.Costs.disp_ingress_cycles * 6 / 5 }

let persephone_fcfs ?n_workers ?quantum_ns ?(costs = Costs.default) () =
  base ~name:"Persephone-FCFS" ~mechanism:Mechanism.No_preempt
    ~queue_model:Config.Single_queue ~dispatcher_steals:false ?n_workers ?quantum_ns
    ~costs:(persephone_costs costs) ()

let concord ?n_workers ?quantum_ns ?costs () =
  base ~name:"Concord" ~mechanism:Mechanism.Cache_line ~queue_model:(Config.Jbsq 2)
    ~dispatcher_steals:true ?n_workers ?quantum_ns ?costs ()

let concord_no_steal ?n_workers ?quantum_ns ?costs () =
  base ~name:"Concord w/o dispatcher work" ~mechanism:Mechanism.Cache_line
    ~queue_model:(Config.Jbsq 2) ~dispatcher_steals:false ?n_workers ?quantum_ns ?costs ()

let coop_sq ?n_workers ?quantum_ns ?costs () =
  base ~name:"Co-op+SQ" ~mechanism:Mechanism.Cache_line ~queue_model:Config.Single_queue
    ~dispatcher_steals:false ?n_workers ?quantum_ns ?costs ()

let coop_jbsq ?(k = 2) ?n_workers ?quantum_ns ?costs () =
  base
    ~name:(Printf.sprintf "Co-op+JBSQ(%d)" k)
    ~mechanism:Mechanism.Cache_line ~queue_model:(Config.Jbsq k) ~dispatcher_steals:false
    ?n_workers ?quantum_ns ?costs ()

let concord_uipi ?n_workers ?quantum_ns ?costs () =
  base ~name:"Concord-UIPI" ~mechanism:Mechanism.Uipi ~queue_model:(Config.Jbsq 2)
    ~dispatcher_steals:false ?n_workers ?quantum_ns ?costs ()

let ideal_single_queue ~sigma_ns ?n_workers ?quantum_ns ?(costs = Costs.zero_overhead) () =
  base
    ~name:(Printf.sprintf "Ideal SQ (sigma=%.1fus)" (sigma_ns /. 1e3))
    ~mechanism:(Mechanism.Model_lateness { sigma_ns })
    ~queue_model:Config.Single_queue ~dispatcher_steals:false ?n_workers ?quantum_ns ~costs ()

let ideal_no_preemption ?n_workers ?quantum_ns ?(costs = Costs.zero_overhead) () =
  base ~name:"Ideal SQ (no preemption)" ~mechanism:Mechanism.No_preempt
    ~queue_model:Config.Single_queue ~dispatcher_steals:false ?n_workers ?quantum_ns ~costs ()

let concord_batched ?(batch = 8) ?n_workers ?quantum_ns ?costs () =
  base
    ~name:(Printf.sprintf "Concord (ingress batch %d)" batch)
    ~mechanism:Mechanism.Cache_line ~queue_model:(Config.Jbsq 2) ~dispatcher_steals:true
    ~ingress_batch:batch ?n_workers ?quantum_ns ?costs ()

let srpt ?n_workers ?quantum_ns ?costs () =
  base ~name:"Concord-SRPT" ~mechanism:Mechanism.Cache_line ~queue_model:(Config.Jbsq 2)
    ~dispatcher_steals:true ~policy:Policy.Srpt ?n_workers ?quantum_ns ?costs ()

let locality ?n_workers ?quantum_ns ?costs () =
  base ~name:"Concord-Locality" ~mechanism:Mechanism.Cache_line ~queue_model:(Config.Jbsq 2)
    ~dispatcher_steals:true ~policy:Policy.Locality_fcfs ?n_workers ?quantum_ns ?costs ()

let srpt_noisy ?(sigma = 1.0) ?n_workers ?quantum_ns ?costs () =
  base
    ~name:(Printf.sprintf "Concord-SRPT-noisy(s=%g)" sigma)
    ~mechanism:Mechanism.Cache_line ~queue_model:(Config.Jbsq 2) ~dispatcher_steals:true
    ~policy:(Policy.Srpt_noisy { sigma }) ?n_workers ?quantum_ns ?costs ()

let table : (string * args) list =
  [
    ("shinjuku", shinjuku);
    ("shinjuku-whole-call", shinjuku_whole_call);
    ("persephone", persephone_fcfs);
    ("concord", concord);
    ("concord-no-steal", concord_no_steal);
    ("coop-sq", coop_sq);
    ("coop-jbsq", fun ?n_workers ?quantum_ns ?costs () -> coop_jbsq ?n_workers ?quantum_ns ?costs ());
    ("concord-uipi", concord_uipi);
    ( "concord-batched",
      fun ?n_workers ?quantum_ns ?costs () -> concord_batched ?n_workers ?quantum_ns ?costs () );
    ("srpt", srpt);
    ( "srpt-noisy",
      fun ?n_workers ?quantum_ns ?costs () -> srpt_noisy ?n_workers ?quantum_ns ?costs () );
    ("locality", locality);
  ]

let by_name name = List.assoc_opt name table
let all_names = List.map fst table

let lookup name =
  match by_name name with
  | Some make -> Ok make
  | None ->
    Error
      (Printf.sprintf "unknown system %S (expected one of: %s)" name
         (String.concat ", " all_names))
