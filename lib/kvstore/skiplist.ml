module Rng = Repro_engine.Rng

type entry = Value of string | Tombstone

let max_level = 16

type node = {
  key : string;
  mutable entry : entry;
  forward : node option array; (* length = node's level *)
}

type t = {
  rng : Rng.t;
  head : node; (* sentinel with max_level forwards; key unused *)
  mutable level : int; (* highest level currently in use *)
  mutable size : int;
}

let create ~rng () =
  {
    rng;
    head = { key = ""; entry = Tombstone; forward = Array.make max_level None };
    level = 1;
    size = 0;
  }

let length t = t.size

let random_level t =
  (* p = 1/2 geometric, capped: the classic skip-list level draw. *)
  let rec go lvl = if lvl < max_level && Rng.bool t.rng then go (lvl + 1) else lvl in
  go 1

let draw_level t = ignore (random_level t : int)

let charge_step meter = match meter with None -> () | Some m -> Cost_meter.node_step m
let charge_compare meter = match meter with None -> () | Some m -> Cost_meter.key_compare m

(* Walk down from the top level, recording the last node before [key] at
   each level. Returns the update vector. *)
let find_predecessors ?meter t ~key =
  let update = Array.make max_level t.head in
  let node = ref t.head in
  for lvl = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      match !node.forward.(lvl) with
      | Some next ->
        charge_step meter;
        charge_compare meter;
        if String.compare next.key key < 0 then node := next else continue := false
      | None -> continue := false
    done;
    update.(lvl) <- !node
  done;
  update

let insert ?meter t ~key entry =
  let update = find_predecessors ?meter t ~key in
  (match update.(0).forward.(0) with
  | Some next when String.equal next.key key ->
    charge_compare meter;
    next.entry <- entry
  | Some _ | None ->
    let lvl = random_level t in
    if lvl > t.level then begin
      for l = t.level to lvl - 1 do
        update.(l) <- t.head
      done;
      t.level <- lvl
    end;
    let node = { key; entry; forward = Array.make lvl None } in
    for l = 0 to lvl - 1 do
      charge_step meter;
      node.forward.(l) <- update.(l).forward.(l);
      update.(l).forward.(l) <- Some node
    done;
    t.size <- t.size + 1);
  (match meter with
  | None -> ()
  | Some m -> Cost_meter.copy_bytes m (String.length key + (match entry with Value v -> String.length v | Tombstone -> 0)))

let find ?meter t ~key =
  let update = find_predecessors ?meter t ~key in
  match update.(0).forward.(0) with
  | Some next when String.equal next.key key ->
    charge_compare meter;
    Some next.entry
  | Some _ | None -> None

let min_key t = Option.map (fun n -> n.key) t.head.forward.(0)

let fold t ~init ~f =
  let rec go acc = function
    | None -> acc
    | Some node -> go (f acc node.key node.entry) node.forward.(0)
  in
  go init t.head.forward.(0)

module Cursor = struct
  type cursor = { mutable pos : node option }

  let start t = { pos = t.head.forward.(0) }
  let at_end c = match c.pos with None -> true | Some _ -> false

  let node c =
    match c.pos with Some n -> n | None -> invalid_arg "Skiplist.Cursor: at the end"

  let key c = (node c).key
  let entry c = (node c).entry

  let advance ?meter c =
    match c.pos with
    | None -> ()
    | Some node ->
      charge_step meter;
      c.pos <- node.forward.(0)
end
