(* Tests for the discrete-event simulation driver. *)

module Sim = Repro_engine.Sim

let run_collect sim =
  let log = ref [] in
  Sim.run sim ~handler:(fun s e -> log := (Sim.now s, e) :: !log) ();
  List.rev !log

let test_time_order () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:30 "c";
  Sim.schedule_at sim ~time:10 "a";
  Sim.schedule_at sim ~time:20 "b";
  Alcotest.(check (list (pair int string)))
    "events fire in time order"
    [ (10, "a"); (20, "b"); (30, "c") ]
    (run_collect sim)

let test_fifo_same_instant () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:5 "first";
  Sim.schedule_at sim ~time:5 "second";
  Sim.schedule_at sim ~time:5 "third";
  Alcotest.(check (list string))
    "same-instant events fire in scheduling order"
    [ "first"; "second"; "third" ]
    (List.map snd (run_collect sim))

let test_schedule_during_run () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:0 `Tick;
  let count = ref 0 in
  Sim.run sim
    ~handler:(fun s `Tick ->
      incr count;
      if !count < 5 then Sim.schedule_after s ~delay:10 `Tick)
    ();
  Alcotest.(check int) "chained events" 5 !count;
  Alcotest.(check int) "clock advanced" 40 (Sim.now sim)

let test_until_horizon () =
  let sim = Sim.create () in
  List.iter (fun t -> Sim.schedule_at sim ~time:t t) [ 1; 2; 3; 100 ];
  let seen = ref [] in
  Sim.run sim ~until:50 ~handler:(fun _ t -> seen := t :: !seen) ();
  Alcotest.(check (list int)) "horizon respected" [ 3; 2; 1 ] !seen;
  Alcotest.(check int) "late event still pending" 1 (Sim.pending sim)

let test_stop () =
  let sim = Sim.create () in
  List.iter (fun t -> Sim.schedule_at sim ~time:t t) [ 1; 2; 3 ];
  let seen = ref 0 in
  Sim.run sim
    ~handler:(fun s _ ->
      incr seen;
      if !seen = 2 then Sim.stop s)
    ();
  Alcotest.(check int) "stopped after two" 2 !seen

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:10 ();
  Sim.run sim
    ~handler:(fun s () ->
      Alcotest.check_raises "past time rejected"
        (Invalid_argument "Sim.schedule_at: time is in the past") (fun () ->
          Sim.schedule_at s ~time:5 ());
      Alcotest.check_raises "negative delay rejected"
        (Invalid_argument "Sim.schedule_after: negative delay") (fun () ->
          Sim.schedule_after s ~delay:(-1) ()))
    ()

(* A wrapped [now + delay] would fire first and run time backwards, and an
   event at [max_int] would be dropped under [Par_sim], whose "no next
   event" sentinel it equals. Both must fail loudly, and a rejected call
   must leave the queue untouched. *)
let test_out_of_range_time_rejected () =
  let sim = Sim.create () in
  Sim.schedule_at sim ~time:10 ();
  Sim.run sim
    ~handler:(fun s () ->
      Alcotest.check_raises "max_int time rejected"
        (Invalid_argument "Sim.schedule_at: time max_int is out of range") (fun () ->
          Sim.schedule_at s ~time:max_int ());
      Alcotest.check_raises "delay reaching max_int rejected"
        (Invalid_argument "Sim.schedule_after: time overflows max_int") (fun () ->
          Sim.schedule_after s ~delay:(max_int - 10) ());
      Alcotest.check_raises "wrapping delay rejected"
        (Invalid_argument "Sim.schedule_after: time overflows max_int") (fun () ->
          Sim.schedule_after s ~delay:max_int ());
      Sim.schedule_at s ~time:(max_int - 1) ();
      Sim.schedule_after s ~delay:(max_int - 12) ();
      Alcotest.(check int) "nothing enqueued by the rejected calls" 2 (Sim.pending s);
      Alcotest.(check int) "legal times just below max_int still order" (max_int - 2)
        (Sim.next_time s);
      Sim.stop s)
    ()

let test_capacity_and_events_processed () =
  (* A tiny pre-sized queue must still absorb a much larger event burst, and
     the processed counter must accumulate across separate [run]s. *)
  let sim = Sim.create ~capacity:1 () in
  Alcotest.(check int) "starts at zero" 0 (Sim.events_processed sim);
  for t = 1 to 100 do
    Sim.schedule_at sim ~time:t t
  done;
  Sim.run sim ~until:50 ~handler:(fun _ _ -> ()) ();
  Alcotest.(check int) "counts first run" 50 (Sim.events_processed sim);
  Sim.run sim ~handler:(fun _ _ -> ()) ();
  Alcotest.(check int) "accumulates across runs" 100 (Sim.events_processed sim);
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

(* A cancelled event never fires and is not counted; the events around it
   keep their order, and a timer cancels at most once. *)
let test_cancel () =
  let sim = Sim.create ~capacity:1 () in
  let a = Sim.arm_at sim ~time:10 "a" in
  Sim.schedule_at sim ~time:10 "b";
  let c = Sim.arm_after sim ~delay:5 "c" in
  let d = Sim.arm_at sim ~time:10 "d" in
  Sim.schedule_at sim ~time:20 "e";
  Sim.cancel sim a;
  Sim.cancel sim d;
  Sim.cancel sim Sim.no_timer;
  Alcotest.(check int) "cancelled events leave the queue" 3 (Sim.pending sim);
  let stale = Invalid_argument "Sim.cancel: timer already fired or cancelled" in
  Alcotest.check_raises "cancelling twice raises" stale (fun () -> Sim.cancel sim a);
  Alcotest.(check (list (pair int string)))
    "cancelled events never fire"
    [ (5, "c"); (10, "b"); (20, "e") ]
    (run_collect sim);
  Alcotest.(check int) "only fired events are counted" 3 (Sim.events_processed sim);
  Alcotest.check_raises "cancelling a fired timer raises" stale (fun () -> Sim.cancel sim c);
  Alcotest.check_raises "arm_at checks its time" (Invalid_argument "Sim.arm_at: time is in the past")
    (fun () -> ignore (Sim.arm_at sim ~time:0 "late"))

(* While a handler runs, its own event has already left the queue (the
   heap keeps its root position empty until the handler schedules
   something), and every query must agree. Each check runs in its own
   event, so each sees that state. *)
let test_firing_event_has_left_the_queue () =
  let sim = Sim.create ~capacity:1 () in
  let a = Sim.arm_at sim ~time:10 "a" in
  List.iter
    (fun (time, e) -> Sim.schedule_at sim ~time e)
    [ (20, "b"); (30, "c"); (40, "raise"); (50, "d") ];
  let stale = Invalid_argument "Sim.cancel: timer already fired or cancelled" in
  let seen = ref [] in
  let handler s e =
    seen := e :: !seen;
    match e with
    | "a" ->
      Alcotest.check_raises "cancelling the firing event's own timer raises" stale (fun () ->
          Sim.cancel s a)
    | "b" -> Alcotest.(check int) "pending leaves out the firing event" 3 (Sim.pending s)
    | "c" -> Alcotest.(check int) "next_time is the next pending event" 40 (Sim.next_time s)
    | "raise" -> failwith "handler failed"
    | _ -> ()
  in
  Alcotest.check_raises "the handler's exception propagates" (Failure "handler failed")
    (fun () -> Sim.run sim ~handler ());
  Alcotest.(check int) "the raising event is gone" 1 (Sim.pending sim);
  Sim.schedule_at sim ~time:45 "e";
  Sim.run sim ~handler ();
  Alcotest.(check (list string))
    "the queue works after a handler raised"
    [ "a"; "b"; "c"; "raise"; "e"; "d" ]
    (List.rev !seen);
  Alcotest.(check int) "every event counted once" 6 (Sim.events_processed sim)

let prop_trace_is_time_sorted =
  QCheck.Test.make ~count:200 ~name:"any schedule produces a nondecreasing clock trace"
    QCheck.(list_of_size (Gen.int_range 0 50) (int_range 0 1000))
    (fun times ->
      let sim = Sim.create () in
      List.iter (fun t -> Sim.schedule_at sim ~time:t t) times;
      let trace = List.map fst (run_collect sim) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      sorted trace && List.length trace = List.length times)

(* [Sim.run] against a sorted-list model of the queue. A script seeds
   events (some armed), gives the n-th event to fire a list of actions, and
   cuts the run into [~until] segments; a [Stop] ends a segment early. The
   model keeps the pending events as a list sorted by (time, id), and ids
   are handed out in schedule order, so its head is the event due next. *)
type action = Sched of int | Arm of int | Cancel of int | Stop

type script = {
  seeds : (int * bool) list; (* time, armed *)
  reactions : action list list;
  untils : int option list; (* then one final segment with no horizon *)
}

let show_script sc =
  let action = function
    | Sched d -> Printf.sprintf "Sched %d" d
    | Arm d -> Printf.sprintf "Arm %d" d
    | Cancel k -> Printf.sprintf "Cancel %d" k
    | Stop -> "Stop"
  in
  let list f l = "[" ^ String.concat "; " (List.map f l) ^ "]" in
  Printf.sprintf "seeds %s\nreactions %s\nuntils %s"
    (list (fun (t, a) -> Printf.sprintf "(%d, %b)" t a) sc.seeds)
    (list (list action) sc.reactions)
    (list (function None -> "None" | Some u -> string_of_int u) sc.untils)

let gen_script =
  let open QCheck.Gen in
  let action =
    frequency
      [
        (4, map (fun d -> Sched d) (int_range 0 20));
        (3, map (fun d -> Arm d) (int_range 0 20));
        (2, map (fun k -> Cancel k) (int_range 0 10));
        (1, return Stop);
      ]
  in
  let* seeds = list_size (int_range 1 20) (pair (int_range 0 50) bool) in
  let* reactions = list_size (int_range 0 40) (list_size (int_range 0 3) action) in
  let* untils =
    list_size (int_range 0 4)
      (frequency
         [ (4, map Option.some (int_range 0 200)); (1, return (Some max_int)); (1, return None) ])
  in
  return { seeds; reactions; untils }

(* Seeds [sc]'s events and returns the step each firing takes, keeping
   the ids of pending armed events (newest first). [schedule ~arm time id]
   enqueues, [cancel id] removes, [stop] ends the segment. Both sides run
   it, so only the queue differs. *)
let replay sc ~schedule ~cancel ~stop =
  let next_id = ref 0 and armed = ref [] and fired = ref 0 in
  let add ~arm time =
    let id = !next_id in
    incr next_id;
    if arm then armed := id :: !armed;
    schedule ~arm time id
  in
  List.iter (fun (time, arm) -> add ~arm time) sc.seeds;
  let on_fire ~now id =
    armed := List.filter (( <> ) id) !armed;
    let acts = Option.value (List.nth_opt sc.reactions !fired) ~default:[] in
    incr fired;
    List.iter
      (function
        | Sched d -> add ~arm:false (now + d)
        | Arm d -> add ~arm:true (now + d)
        | Cancel k -> (
          match !armed with
          | [] -> ()
          | l ->
            let id = List.nth l (k mod List.length l) in
            armed := List.filter (( <> ) id) l;
            cancel id)
        | Stop -> stop ())
      acts
  in
  on_fire

let run_sim sc =
  let sim = Sim.create ~capacity:1 () in
  let timers = Hashtbl.create 16 in
  let on_fire =
    replay sc
      ~schedule:(fun ~arm time id ->
        if not arm then Sim.schedule_after sim ~delay:(time - Sim.now sim) id
        else Hashtbl.replace timers id (Sim.arm_at sim ~time id))
      ~cancel:(fun id -> Sim.cancel sim (Hashtbl.find timers id))
      ~stop:(fun () -> Sim.stop sim)
  in
  let log = ref [] in
  let handler s id =
    log := `Fire (Sim.now s, id) :: !log;
    on_fire ~now:(Sim.now s) id
  in
  List.iter
    (fun until ->
      Sim.run sim ?until ~handler ();
      log := `Segment (Sim.next_time sim, Sim.pending sim) :: !log)
    (sc.untils @ [ None ]);
  (List.rev !log, Sim.events_processed sim)

let run_model sc =
  let pending = ref [] and stopped = ref false in
  let on_fire =
    replay sc
      ~schedule:(fun ~arm:_ time id -> pending := List.merge compare !pending [ (time, id) ])
      ~cancel:(fun id -> pending := List.filter (fun (_, j) -> j <> id) !pending)
      ~stop:(fun () -> stopped := true)
  in
  let log = ref [] and fired = ref 0 in
  List.iter
    (fun until ->
      let horizon = Option.value until ~default:max_int in
      stopped := false;
      let rec loop () =
        match !pending with
        | (time, id) :: rest when (not !stopped) && time <= horizon ->
          pending := rest;
          incr fired;
          log := `Fire (time, id) :: !log;
          on_fire ~now:time id;
          loop ()
        | _ -> ()
      in
      loop ();
      let next = match !pending with [] -> max_int | (time, _) :: _ -> time in
      log := `Segment (next, List.length !pending) :: !log)
    (sc.untils @ [ None ]);
  (List.rev !log, !fired)

let prop_fires_in_model_order =
  QCheck.Test.make ~count:500
    ~name:"run fires events in the (time, schedule order) of a sorted list"
    (QCheck.make ~print:show_script gen_script)
    (fun sc -> run_sim sc = run_model sc)

let suite =
  [
    Alcotest.test_case "events fire in time order" `Quick test_time_order;
    Alcotest.test_case "FIFO at the same instant" `Quick test_fifo_same_instant;
    Alcotest.test_case "handlers can schedule more events" `Quick test_schedule_during_run;
    Alcotest.test_case "until horizon" `Quick test_until_horizon;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "scheduling in the past is rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "out-of-range event times are rejected" `Quick
      test_out_of_range_time_rejected;
    Alcotest.test_case "capacity hint and events_processed" `Quick
      test_capacity_and_events_processed;
    Alcotest.test_case "cancelled events never fire" `Quick test_cancel;
    Alcotest.test_case "a handler's own event has left the queue" `Quick
      test_firing_event_has_left_the_queue;
    QCheck_alcotest.to_alcotest prop_trace_is_time_sorted;
    QCheck_alcotest.to_alcotest prop_fires_in_model_order;
  ]
