(* Determinism + concurrency lint for the simulation library.

   The whole repo's credibility rests on bit-reproducible runs: every
   experiment, golden test and bench row assumes that a (seed, config)
   pair names one exact execution. This lint walks the parsetree of every
   .ml under the given paths (stdlib + compiler-libs only, no ppx) and
   fails on ambient nondeterminism:

   - Random.*                     use Repro_engine.Rng, threaded explicitly
   - Sys.time / Unix.gettimeofday wall clocks (bench code outside lib/ may
     / Unix.time                  time itself; simulation code never)
   - Hashtbl.hash                 hash values differ across OCaml versions
   - Hashtbl.iter / Hashtbl.fold  iteration order follows the hash; results
                                  that depend on it differ across runs
   - Domain.* / Atomic.*          outside an engine/ directory: shared-memory
                                  parallelism is only deterministic behind the
                                  engine's window protocol (Par_sim, Mailbox,
                                  Pool); model code must go through those

   Domain-escape pass: at every [Par_sim.run_windows] call site, the
   [~shard_step] / [~shard_next] arguments are the {e party bodies} —
   code that runs on a shard's domain concurrently with the other shards
   — and so is the producer (the positional argument) of every
   [Prefetch.start], which runs on its own domain beside the consumer.
   The pass walks those bodies (resolving same-file [let]-bound names and
   following calls to same-file functions, transitively) and flags
   non-[Atomic] shared mutable state reached without mediation:

   - Array.get / Array.set (including the a.(i) sugar) on arrays not
     bound inside the body — except an [Array.get] appearing directly as
     an argument of a [Mailbox.*] / [Atomic.*] call (indexing a fixed
     array of per-shard channels to reach the mediated channel is the
     engine's own idiom);
   - Hashtbl.* on tables not bound inside the body;
   - ref operations (:=, !, incr, decr) on refs not bound inside the body;
   - any mutable-field write (record.f <- v).

   The pass is a syntactic over-approximation: "bound inside the body"
   means the name is let/param/pattern-bound anywhere within it, and
   reachability follows applied function names only (a function reached
   through a data structure — e.g. a closure stored at setup time — is
   not walked). Sites that are safe by a protocol argument the lint
   cannot see (shard-partitioned arrays indexed by the party's own shard
   id) carry a waiver stating that argument.

   Unordered iteration is sometimes fine — when the consumer sorts, or the
   operation commutes (censoring every in-flight request). Such sites
   carry an explicit waiver:

     (Hashtbl.iter f t) [@lint.deterministic "order-insensitive: ..."]

   which suppresses only the Hashtbl, Domain/Atomic and domain-escape
   checks within the annotated expression. Random and wall clocks have no
   waiver. Every waiver must earn its keep: one that suppresses nothing
   in any pass is itself reported as stale (so waivers cannot outlive the
   code they excused) — remove it or move it to the site it belongs to.

   Usage:  lint PATH...              scan, exit 1 on any finding
           lint --expect-fail FILE   exit 0 iff the file DOES trip the
                                     lint (proves the lint still bites) *)

let waiver_attr = "lint.deterministic"

type finding = { file : string; line : int; col : int; msg : string }

let findings : finding list ref = ref []

let report ~loc msg =
  let pos = loc.Location.loc_start in
  findings :=
    {
      file = pos.Lexing.pos_fname;
      line = pos.Lexing.pos_lnum;
      col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      msg;
    }
    :: !findings

(* Root module and member of a (possibly Stdlib.-prefixed) path. *)
let rec root_member (li : Longident.t) =
  match li with
  | Longident.Lident _ -> None
  | Longident.Ldot (Longident.Lident "Stdlib", _) -> None
  | Longident.Ldot (Longident.Lident m, x) -> Some (m, x)
  | Longident.Ldot (Longident.Ldot (Longident.Lident "Stdlib", m), x) -> Some (m, x)
  | Longident.Ldot (p, _) -> root_member p
  | Longident.Lapply (_, p) -> root_member p

(* Set per file: true when the file is not inside an engine/ directory, so
   the Domain/Atomic rule applies. *)
let outside_engine = ref true

(* ---- waivers: scoped suppression with staleness accounting ------------ *)

(* One record per [@lint.deterministic] attribute in the scanned code,
   keyed by source location so the determinism walk and the domain-escape
   walk (which traverse the same trees independently) share the hit
   counter. A waiver whose count stays zero suppressed nothing anywhere:
   stale, reported as a finding of its own. *)
type waiver = { w_loc : Location.t; mutable hits : int }

let waiver_tbl : (string * int * int, waiver) Hashtbl.t = Hashtbl.create 16
let all_waivers : waiver list ref = ref []
let waiver_stack : waiver list ref = ref []

let register_waiver (a : Parsetree.attribute) =
  let pos = a.attr_loc.Location.loc_start in
  let key = (pos.Lexing.pos_fname, pos.Lexing.pos_lnum, pos.Lexing.pos_cnum) in
  match Hashtbl.find_opt waiver_tbl key with
  | Some w -> w
  | None ->
    let w = { w_loc = a.attr_loc; hits = 0 } in
    Hashtbl.replace waiver_tbl key w;
    all_waivers := w :: !all_waivers;
    w

let with_waiver attrs f =
  match
    List.find_opt
      (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt waiver_attr)
      attrs
  with
  | Some a ->
    let w = register_waiver a in
    waiver_stack := w :: !waiver_stack;
    f ();
    waiver_stack := List.tl !waiver_stack
  | None -> f ()

let waived () = !waiver_stack <> []

(* Credit the innermost enclosing waiver for one suppressed finding. *)
let suppress () =
  match !waiver_stack with
  | w :: _ -> w.hits <- w.hits + 1
  | [] -> assert false

let check_ident ~loc (li : Longident.t) =
  match root_member li with
  | Some ("Random", fn) ->
    report ~loc
      (Printf.sprintf
         "Random.%s is ambient nondeterminism; thread a Repro_engine.Rng explicitly" fn)
  | Some ("Sys", "time") ->
    report ~loc "Sys.time reads a wall clock; simulated time must come from Sim.now"
  | Some ("Unix", ("gettimeofday" | "time")) ->
    report ~loc "Unix wall clocks are nondeterministic; simulated time must come from Sim.now"
  | Some ("Hashtbl", "hash") ->
    report ~loc "Hashtbl.hash varies across OCaml versions; derive an explicit key instead"
  | Some ("Hashtbl", (("iter" | "fold") as fn)) ->
    if waived () then suppress ()
    else
      report ~loc
        (Printf.sprintf
           "Hashtbl.%s iterates in hash order; sort the result or waive with [@%s \"reason\"]"
           fn waiver_attr)
  | Some ((("Domain" | "Atomic") as m), fn) when !outside_engine ->
    if waived () then suppress ()
    else
      report ~loc
        (Printf.sprintf
           "%s.%s outside engine/: shared-memory parallelism is only deterministic behind \
            the engine's window protocol (Par_sim / Mailbox / Pool); route through those or \
            waive with [@%s \"reason\"]"
           m fn waiver_attr)
  | _ -> ()

let iterator =
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    with_waiver e.pexp_attributes (fun () ->
        (match e.pexp_desc with
        | Parsetree.Pexp_ident { txt; loc } -> check_ident ~loc txt
        | _ -> ());
        default_iterator.expr it e)
  in
  let value_binding it (vb : Parsetree.value_binding) =
    with_waiver vb.pvb_attributes (fun () -> default_iterator.value_binding it vb)
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Parsetree.Pstr_attribute a when String.equal a.attr_name.txt waiver_attr ->
      (* floating [@@@lint.deterministic] waives the rest of the file —
         deliberately unsupported: waivers must be site-local *)
      report ~loc:si.pstr_loc "file-wide lint waivers are not allowed; annotate each site"
    | _ -> default_iterator.structure_item it si
  in
  { default_iterator with expr; value_binding; structure_item }

(* ---- domain-escape pass ------------------------------------------------ *)

let escape ~loc msg =
  if waived () then suppress ()
  else
    report ~loc
      (Printf.sprintf
         "domain-escape: %s reachable from a party body (Par_sim shard or Prefetch \
          producer); mediate through Mailbox/Atomic or waive with [@%s \"why this site is \
          domain-private\"]"
         msg waiver_attr)

(* Same-file [let]-bound names (any nesting depth) -> their expressions;
   [Hashtbl.add] keeps shadowed bindings too, and the walk visits every
   binding of a name — over-approximate, never blind. *)
let bindings : (string, Parsetree.expression) Hashtbl.t = Hashtbl.create 64

let collect_bindings ast =
  let open Ast_iterator in
  let value_binding it (vb : Parsetree.value_binding) =
    (match vb.pvb_pat.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } -> Hashtbl.add bindings txt vb.pvb_expr
    | _ -> ());
    default_iterator.value_binding it vb
  in
  let it = { default_iterator with value_binding } in
  it.structure it ast

(* Names let/param/pattern-bound anywhere inside [e]: private to the
   party body, so mutating them is not an escape. *)
let local_names (e : Parsetree.expression) =
  let acc : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let open Ast_iterator in
  let pat it (p : Parsetree.pattern) =
    (match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } | Parsetree.Ppat_alias (_, { txt; _ }) ->
      Hashtbl.replace acc txt ()
    | _ -> ());
    default_iterator.pat it p
  in
  let it = { default_iterator with pat } in
  it.expr it e;
  acc

let is_local_ident locals (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident n; _ } -> Hashtbl.mem locals n
  | _ -> false

let describe_target (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident n; _ } -> Printf.sprintf " '%s'" n
  | _ -> ""

(* Walk one party-body expression. [mediated] is true when [e] is a
   direct argument of a Mailbox/Atomic call, which licenses an Array.get
   at its head. Calls to same-file functions extend the worklist. *)
let rec walk_escape ~locals ~visited ~queue ~mediated (e : Parsetree.expression) =
  let walk = walk_escape ~locals ~visited ~queue in
  with_waiver e.Parsetree.pexp_attributes (fun () ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_apply
          (({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ } as head), args) ->
        let first_pos =
          List.find_map
            (function Asttypes.Nolabel, a -> Some a | _ -> None)
            args
        in
        (match (root_member txt, txt) with
        | Some ("Array", (("get" | "set") as fn)), _ ->
          (match first_pos with
          | Some arr when (mediated && String.equal fn "get") || is_local_ident locals arr
            ->
            ()
          | Some arr ->
            escape ~loc:e.Parsetree.pexp_loc
              (Printf.sprintf "Array.%s on shared array%s" fn (describe_target arr))
          | None -> ())
        | Some ("Hashtbl", fn), _ ->
          (match first_pos with
          | Some t when is_local_ident locals t -> ()
          | _ ->
            escape ~loc:e.Parsetree.pexp_loc
              (Printf.sprintf "Hashtbl.%s on shared table" fn))
        | _, Longident.Lident (("!" | ":=" | "incr" | "decr") as op) ->
          (match first_pos with
          | Some r when is_local_ident locals r -> ()
          | Some r ->
            escape ~loc:e.Parsetree.pexp_loc
              (Printf.sprintf "ref operation ( %s ) on shared ref%s" op
                 (describe_target r))
          | None -> ())
        | _, Longident.Lident n
          when Hashtbl.mem bindings n && not (Hashtbl.mem visited n) ->
          Hashtbl.replace visited n ();
          Queue.push n queue
        | _ -> ());
        let is_mediator =
          match root_member txt with
          | Some (("Mailbox" | "Atomic"), _) -> true
          | _ -> false
        in
        List.iter (fun (_, a) -> walk ~mediated:is_mediator a) args;
        ignore head
      | Parsetree.Pexp_setfield (tgt, _, v) ->
        if not (is_local_ident locals tgt) then
          escape ~loc:e.Parsetree.pexp_loc
            (Printf.sprintf "mutable-field write on shared record%s"
               (describe_target tgt));
        walk ~mediated:false tgt;
        walk ~mediated:false v
      | _ ->
        (* Generic recursion: immediate children re-enter the walk. *)
        let open Ast_iterator in
        let it = { default_iterator with expr = (fun _ c -> walk ~mediated:false c) } in
        default_iterator.expr it e)

let is_prefetch_start (txt : Longident.t) =
  match txt with
  | Longident.Ldot (prefix, "start") -> String.equal (Longident.last prefix) "Prefetch"
  | _ -> false

(* Party roots: the ~shard_step / ~shard_next arguments of every
   run_windows application in the file, and the producer of every
   Prefetch.start. *)
let escape_scan ast =
  let roots : Parsetree.expression list ref = ref [] in
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args)
      when String.equal (Longident.last txt) "run_windows" ->
      List.iter
        (fun (lbl, a) ->
          match lbl with
          | Asttypes.Labelled ("shard_step" | "shard_next") -> roots := a :: !roots
          | _ -> ())
        args
    | Parsetree.Pexp_apply ({ pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args)
      when is_prefetch_start txt ->
      List.iter (fun (lbl, a) -> if lbl = Asttypes.Nolabel then roots := a :: !roots) args
    | _ -> ());
    default_iterator.expr it e
  in
  let it = { default_iterator with expr } in
  it.structure it ast;
  if !roots <> [] then begin
    let visited : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let queue : string Queue.t = Queue.create () in
    List.iter
      (fun (r : Parsetree.expression) ->
        match r.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident { txt = Longident.Lident n; _ } ->
          if not (Hashtbl.mem visited n) then begin
            Hashtbl.replace visited n ();
            Queue.push n queue
          end
        | _ -> walk_escape ~locals:(local_names r) ~visited ~queue ~mediated:false r)
      (List.rev !roots);
    while not (Queue.is_empty queue) do
      let n = Queue.pop queue in
      List.iter
        (fun b -> walk_escape ~locals:(local_names b) ~visited ~queue ~mediated:false b)
        (Hashtbl.find_all bindings n)
    done
  end

(* ---- driver ------------------------------------------------------------ *)

let lint_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lb = Lexing.from_channel ic in
      Location.init lb path;
      match Parse.implementation lb with
      | ast ->
        waiver_stack := [];
        Hashtbl.reset bindings;
        outside_engine :=
          not (List.mem "engine" (String.split_on_char '/' path));
        iterator.Ast_iterator.structure iterator ast;
        waiver_stack := [];
        collect_bindings ast;
        escape_scan ast
      | exception e ->
        findings :=
          { file = path; line = 1; col = 0; msg = "parse error: " ^ Printexc.to_string e }
          :: !findings)

let rec collect path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if String.equal entry "_build" || String.length entry > 0 && entry.[0] = '.' then acc
        else collect (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let () =
  let expect_fail = ref false in
  let paths = ref [] in
  Arg.parse
    [
      ( "--expect-fail",
        Arg.Set expect_fail,
        " succeed only if the given files DO trip the lint (self-test)" );
    ]
    (fun p -> paths := p :: !paths)
    "lint [--expect-fail] PATH...";
  if !paths = [] then begin
    prerr_endline "lint: no paths given";
    exit 2
  end;
  let files = List.concat_map (fun p -> List.rev (collect p [])) (List.rev !paths) in
  List.iter lint_file files;
  List.iter
    (fun w ->
      if w.hits = 0 then
        report ~loc:w.w_loc
          (Printf.sprintf
             "stale [@%s] waiver: it suppresses nothing in any lint pass; remove it"
             waiver_attr))
    (List.rev !all_waivers);
  let found = List.rev !findings in
  if !expect_fail then
    if found = [] then begin
      Printf.eprintf "lint: expected findings in %s but found none — the lint is blind\n"
        (String.concat " " (List.rev !paths));
      exit 1
    end
    else
      Printf.printf "lint: fixture tripped %d finding(s), as expected\n" (List.length found)
  else begin
    List.iter
      (fun f -> Printf.printf "%s:%d:%d: %s\n" f.file f.line f.col f.msg)
      found;
    if found <> [] then begin
      Printf.printf "lint: %d finding(s) in %d file(s)\n" (List.length found)
        (List.length files);
      exit 1
    end
    else Printf.printf "lint: %d files clean\n" (List.length files)
  end
