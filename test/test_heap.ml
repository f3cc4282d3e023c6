(* Unit and property tests for the engine's binary heap. *)

module Heap = Repro_engine.Heap

let check = Alcotest.(check int)

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  check "length" 0 (Heap.length h);
  Alcotest.(check (option int)) "min_key" None (Heap.min_key h);
  Alcotest.(check bool) "pop" true (Heap.pop h = None)

let test_single () =
  let h = Heap.create () in
  Heap.add h ~key:5 "x";
  check "length" 1 (Heap.length h);
  Alcotest.(check (option int)) "min_key" (Some 5) (Heap.min_key h);
  (match Heap.pop h with
  | Some (5, "x") -> ()
  | Some _ | None -> Alcotest.fail "wrong pop");
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let test_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:k k) [ 9; 3; 7; 1; 8; 2; 6; 4; 5; 0 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (drain [])

let test_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.add h ~key:1 v) [ "a"; "b"; "c" ];
  Heap.add h ~key:0 "first";
  let order =
    List.init 4 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "fifo among equal keys" [ "first"; "a"; "b"; "c" ] order

let test_clear () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.add h ~key:i i
  done;
  Heap.clear h;
  check "cleared" 0 (Heap.length h);
  Heap.add h ~key:1 42;
  check "usable after clear" 1 (Heap.length h)

let test_iter () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:k k) [ 3; 1; 2 ];
  let sum = ref 0 in
  Heap.iter h ~f:(fun ~key _ -> sum := !sum + key);
  check "iter visits all" 6 !sum

let test_growth () =
  let h = Heap.create ~capacity:2 () in
  for i = 1000 downto 0 do
    Heap.add h ~key:i i
  done;
  check "grew" 1001 (Heap.length h);
  Alcotest.(check (option int)) "min" (Some 0) (Heap.min_key h)

let test_unsafe_accessors () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.add h ~key:k (k * 10)) [ 5; 2; 8 ];
  check "next_key sees the root" 2 (Heap.next_key h);
  check "pop_unsafe returns the value alone" 20 (Heap.pop_unsafe h);
  check "root advances" 5 (Heap.next_key h);
  check "second pop" 50 (Heap.pop_unsafe h);
  check "last pop" 80 (Heap.pop_unsafe h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let prop_unsafe_matches_pop =
  QCheck.Test.make ~count:300 ~name:"pop_unsafe drains in exactly pop's order"
    QCheck.(list small_int)
    (fun keys ->
      let a = Heap.create () and b = Heap.create () in
      List.iteri
        (fun i k ->
          Heap.add a ~key:k i;
          Heap.add b ~key:k i)
        keys;
      let rec go () =
        match Heap.pop a with
        | None -> Heap.is_empty b
        | Some (k, v) -> Heap.next_key b = k && Heap.pop_unsafe b = v && go ()
      in
      go ())

let prop_pop_sorted =
  QCheck.Test.make ~count:300 ~name:"heap pops keys in nondecreasing order"
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.add h ~key:k k) keys;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (k, _) -> k >= prev && drain k
      in
      drain min_int)

let prop_conserves_elements =
  QCheck.Test.make ~count:300 ~name:"heap pops exactly the multiset pushed"
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.add h ~key:k i) keys;
      let rec drain acc =
        match Heap.pop h with None -> acc | Some (_, v) -> drain (v :: acc)
      in
      List.sort compare (drain []) = List.init (List.length keys) (fun i -> i))

(* A handle stays dead once its entry pops or is removed, even after a
   later entry takes over the freed slot (the very next add does). *)
let test_remove_dead_handle () =
  let h = Heap.create ~capacity:1 () in
  let dead hd =
    Alcotest.check_raises "dead handle" (Invalid_argument "Heap.remove: handle is not pending")
      (fun () -> Heap.remove h hd)
  in
  let a = Heap.add_removable h ~key:1 "a" in
  ignore (Heap.pop h);
  dead a;
  let b = Heap.add_removable h ~key:2 "b" in
  dead a;
  check "the slot's new entry survives" 1 (Heap.length h);
  Heap.remove h b;
  dead b;
  let c = Heap.add_removable h ~key:3 "c" in
  Heap.clear h;
  ignore (Heap.add_removable h ~key:4 "d");
  dead c;
  dead (-1);
  check "only d is left" 1 (Heap.length h);
  (* [pop_unsafe] leaves g's slot empty at the root: g's handle is dead
     while the hole is open, and stays dead once an add fills the hole. *)
  let e = Heap.add_removable h ~key:5 "e" in
  let g = Heap.add_removable h ~key:0 "g" in
  Alcotest.(check string) "pop_unsafe takes the minimum" "g" (Heap.pop_unsafe h);
  dead g;
  ignore (Heap.add_removable h ~key:6 "f");
  dead g;
  Heap.remove h e;
  check "d and f are left" 2 (Heap.length h)

(* Model test: random scripts run against a reference list kept sorted by
   (key, insertion order). Keys come from a small range so ties are common,
   and the heap starts at capacity 1, so it grows after pops and removals
   have already permuted its slot array. Every popped (key, value) must
   match the model, and after every step [iter] must visit exactly the
   model's multiset. [Remove i] removes the model's i-th entry (mod its
   length) through its handle; [Remove_dead i] retries a handle whose entry
   already popped, was removed or was cleared, which must raise.
   [Pop_unsafe ops] pops the minimum, which leaves the root empty, then
   runs [ops] (adds, removes and further pops) with the hole still open;
   the checks after the step settle it. [Next_key ops] pops as [Sim.run]
   does, reading the key with [next_key] first. Either pop meets an open
   hole when it comes among another pop's [ops]. *)
type op =
  | Add of int
  | Pop
  | Pop_unsafe of op list
  | Next_key of op list
  | Remove of int
  | Remove_dead of int
  | Clear
  | Iter

let rec show_op = function
  | Add k -> Printf.sprintf "add %d" k
  | Pop -> "pop"
  | Pop_unsafe ops ->
    Printf.sprintf "pop_unsafe [%s]" (String.concat "; " (List.map show_op ops))
  | Next_key ops ->
    Printf.sprintf "next_key [%s]" (String.concat "; " (List.map show_op ops))
  | Remove i -> Printf.sprintf "remove #%d" i
  | Remove_dead i -> Printf.sprintf "remove dead #%d" i
  | Clear -> "clear"
  | Iter -> "iter"

let arb_script =
  let add = QCheck.Gen.map (fun k -> Add k) (QCheck.Gen.int_bound 7)
  and remove = QCheck.Gen.map (fun i -> Remove i) QCheck.Gen.small_nat
  and remove_dead = QCheck.Gen.map (fun i -> Remove_dead i) QCheck.Gen.small_nat in
  let in_hole =
    QCheck.Gen.(
      list_size (int_range 0 3)
        (frequency
           [
             (3, add);
             (2, remove);
             (1, remove_dead);
             (1, return (Pop_unsafe []));
             (1, return (Next_key []));
           ]))
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, add);
          (3, return Pop);
          (5, map (fun ops -> Pop_unsafe ops) in_hole);
          (5, map (fun ops -> Next_key ops) in_hole);
          (3, remove);
          (1, remove_dead);
          (1, return Iter);
          (1, return Clear);
        ])
  in
  QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_range 0 300) op)

let prop_matches_sorted_model =
  QCheck.Test.make ~count:500 ~name:"heap matches a sorted-list model over random scripts"
    arb_script (fun script ->
      let h = Heap.create ~capacity:1 () in
      let model = ref [] and next = ref 0 in
      let handles = Hashtbl.create 16 and dead = ref [] in
      (* the entry holding [v] left the heap, so its handle is dead *)
      let retire v =
        dead := Hashtbl.find handles v :: !dead;
        Hashtbl.remove handles v
      in
      let nth l i = List.nth l (i mod List.length l) in
      (* after every entry with a smaller or equal key: FIFO among ties *)
      let rec insert k v = function
        | ((k', _) as e) :: rest when k' <= k -> e :: insert k v rest
        | rest -> (k, v) :: rest
      in
      let pop_model () =
        match !model with
        | [] -> None
        | ((_, v) as e) :: rest ->
          model := rest;
          retire v;
          Some e
      in
      let visited () =
        let acc = ref [] in
        Heap.iter h ~f:(fun ~key v -> acc := (key, v) :: !acc);
        List.sort compare !acc
      in
      let rec step = function
        | Add k ->
          let v = !next in
          incr next;
          Hashtbl.replace handles v (Heap.add_removable h ~key:k v);
          model := insert k v !model;
          true
        | Pop ->
          let expected = pop_model () in
          Heap.pop h = expected
        | Pop_unsafe ops -> (
          match pop_model () with
          | None -> (
            match Heap.pop_unsafe h with _ -> false | exception Invalid_argument _ -> true)
          | Some (_, v) -> Heap.pop_unsafe h = v && List.for_all step ops)
        | Next_key ops -> (
          match pop_model () with
          | None -> (
            Heap.next_key h = max_int
            && match Heap.pop_unsafe h with _ -> false | exception Invalid_argument _ -> true)
          | Some (k, v) -> Heap.next_key h = k && Heap.pop_unsafe h = v && List.for_all step ops)
        | Remove i -> (
          match !model with
          | [] -> true
          | l ->
            let _, v = nth l i in
            Heap.remove h (Hashtbl.find handles v);
            model := List.filter (fun (_, v') -> v' <> v) l;
            retire v;
            true)
        | Remove_dead i -> (
          match !dead with
          | [] -> true
          | l -> (
            match Heap.remove h (nth l i) with
            | () -> false
            | exception Invalid_argument _ -> true))
        | Clear ->
          Heap.clear h;
          List.iter (fun (_, v) -> retire v) !model;
          model := [];
          true
        | Iter -> List.length (visited ()) = Heap.length h
      in
      List.for_all
        (fun op ->
          step op
          && Heap.length h = List.length !model
          && Heap.min_key h = (match !model with [] -> None | (k, _) :: _ -> Some k)
          && visited () = List.sort compare !model)
        script)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "single element" `Quick test_single;
    Alcotest.test_case "pops in key order" `Quick test_ordering;
    Alcotest.test_case "FIFO among equal keys" `Quick test_fifo_ties;
    Alcotest.test_case "clear resets" `Quick test_clear;
    Alcotest.test_case "iter visits every entry" `Quick test_iter;
    Alcotest.test_case "grows past initial capacity" `Quick test_growth;
    Alcotest.test_case "unsafe accessors" `Quick test_unsafe_accessors;
    Alcotest.test_case "removing a dead handle raises" `Quick test_remove_dead_handle;
    QCheck_alcotest.to_alcotest prop_unsafe_matches_pop;
    QCheck_alcotest.to_alcotest prop_pop_sorted;
    QCheck_alcotest.to_alcotest prop_conserves_elements;
    QCheck_alcotest.to_alcotest prop_matches_sorted_model;
  ]
