(* Tests for the growable FIFO ring buffer backing the dispatcher op queue. *)

module Ring = Repro_engine.Ring

let check = Alcotest.(check int)

let test_empty () =
  let r = Ring.create ~dummy:0 () in
  Alcotest.(check bool) "is_empty" true (Ring.is_empty r);
  check "length" 0 (Ring.length r)

let test_fifo () =
  let r = Ring.create ~dummy:0 () in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  check "length" 3 (Ring.length r);
  check "peek sees the head" 1 (Ring.peek_unsafe r);
  check "pop 1" 1 (Ring.pop_unsafe r);
  check "pop 2" 2 (Ring.pop_unsafe r);
  Ring.push r 4;
  check "pop 3" 3 (Ring.pop_unsafe r);
  check "pop 4" 4 (Ring.pop_unsafe r);
  Alcotest.(check bool) "drained" true (Ring.is_empty r)

let test_growth_preserves_order () =
  (* Push past capacity with the cursors mid-buffer so growth has to unroll
     a wrapped run into the doubled array. *)
  let r = Ring.create ~capacity:4 ~dummy:(-1) () in
  List.iter (Ring.push r) [ 0; 1; 2 ];
  check "pre-wrap pop" 0 (Ring.pop_unsafe r);
  check "pre-wrap pop" 1 (Ring.pop_unsafe r);
  for i = 3 to 20 do
    Ring.push r i
  done;
  check "grew" 19 (Ring.length r);
  for i = 2 to 20 do
    check (Printf.sprintf "pop %d" i) i (Ring.pop_unsafe r)
  done;
  Alcotest.(check bool) "drained" true (Ring.is_empty r)

let prop_matches_queue =
  (* Drive a ring and a Stdlib.Queue with the same operation sequence:
     positive ints push the value, non-positive ints pop (when non-empty).
     Both must observe identical values throughout. *)
  QCheck.Test.make ~count:300 ~name:"ring behaves as Queue under random push/pop"
    QCheck.(list (int_range (-3) 50))
    (fun ops ->
      let r = Ring.create ~capacity:2 ~dummy:(-1) () in
      let q = Queue.create () in
      List.for_all
        (fun op ->
          if op > 0 then begin
            Ring.push r op;
            Queue.push op q;
            true
          end
          else if Queue.is_empty q then Ring.is_empty r
          else (not (Ring.is_empty r)) && Ring.pop_unsafe r = Queue.pop q)
        ops
      && Ring.length r = Queue.length q)

let suite =
  [
    Alcotest.test_case "empty ring" `Quick test_empty;
    Alcotest.test_case "FIFO order" `Quick test_fifo;
    Alcotest.test_case "growth preserves order across wrap" `Quick test_growth_preserves_order;
    QCheck_alcotest.to_alcotest prop_matches_queue;
  ]
