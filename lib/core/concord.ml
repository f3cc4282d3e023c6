module Config = Repro_runtime.Config
module Systems = Repro_runtime.Systems
module Policy = Repro_runtime.Policy
module Metrics = Repro_runtime.Metrics
module Mix = Repro_workload.Mix
module Service_dist = Repro_workload.Service_dist
module Arrival = Repro_workload.Arrival
module Presets = Repro_workload.Presets
module Costs = Repro_hw.Costs
module Mechanism = Repro_hw.Mechanism
module Sweep = Sweep
module Slo = Slo
module Figure = Figure
module Work = Work
module Figures = Figures
module Table1 = Table1

let configure ?(system = "concord") ?n_workers ?(quantum_us = 5.0) () =
  Result.bind (Systems.lookup system) (fun make ->
      let quantum_ns = int_of_float (quantum_us *. 1e3) in
      if quantum_ns < 1 then Error "quantum must be positive"
      else Ok (make ?n_workers ~quantum_ns ()))

(* Kvstore workloads accept a ":zipf=ALPHA" suffix that skews key
   popularity (hot shards): "leveldb:zipf=0.99" is YCSB's default skew. *)
let split_zipf name =
  match String.index_opt name ':' with
  | None -> Ok (name, None)
  | Some i -> (
    let base = String.sub name 0 i in
    let opt = String.sub name (i + 1) (String.length name - i - 1) in
    match String.length opt > 5 && String.sub opt 0 5 = "zipf=" with
    | false -> Error (Printf.sprintf "unknown workload option %S (expected zipf=ALPHA)" opt)
    | true -> (
      let v = String.sub opt 5 (String.length opt - 5) in
      match float_of_string_opt v with
      | Some alpha when alpha > 0.0 -> Ok (base, Some alpha)
      | _ -> Error (Printf.sprintf "zipf alpha must be a positive float, got %S" v)))

let workload name =
  match split_zipf name with
  | Error _ as e -> e
  | Ok (base, zipf_alpha) -> (
    match base with
    | "leveldb" ->
      let store = Repro_kvstore.Kv_workload.populate ~seed:7 () in
      Ok (Repro_kvstore.Kv_workload.get_scan_mix ?zipf_alpha store ~seed:7)
    | "leveldb-zippydb" ->
      let store = Repro_kvstore.Kv_workload.populate ~seed:7 () in
      Ok (Repro_kvstore.Kv_workload.zippydb_mix ?zipf_alpha store ~seed:7)
    | base when zipf_alpha <> None ->
      Error
        (Printf.sprintf "workload %S is not key-addressed; :zipf= applies only to %s" base
           "leveldb / leveldb-zippydb")
    | name -> (
      match Presets.by_name name with
      | Some mix -> Ok mix
      | None ->
        Error
          (Printf.sprintf "unknown workload %S (expected one of: %s)" name
             (String.concat ", "
                (List.map fst Presets.all
                @ [ "leveldb[:zipf=A]"; "leveldb-zippydb[:zipf=A]" ])))))

let with_policy config ~spec ~mix =
  match Policy.of_spec spec ~mix with
  | Error _ as e -> e
  | Ok kind ->
    Ok
      {
        config with
        Config.policy = kind;
        name = Printf.sprintf "%s [%s]" config.Config.name (Policy.kind_name kind);
      }

let run ~config ~mix ~rate_rps ?(n_requests = 60_000) ?(seed = 42) ?tracer () =
  Repro_runtime.Server.run ~config ~mix
    ~arrival:(Arrival.Poisson { rate_rps })
    ~n_requests ~seed ?tracer ()

let sweep ~config ~mix ?(points = 10) ?n_requests ?seed () =
  let rates = Sweep.default_rates ~mix ~n_workers:config.Config.n_workers ~points () in
  Sweep.run ~config ~mix ~rates ?n_requests ?seed ()

let max_load_under_slo = Slo.max_load_under_slo
