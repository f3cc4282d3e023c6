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
    QCheck_alcotest.to_alcotest prop_trace_is_time_sorted;
  ]
