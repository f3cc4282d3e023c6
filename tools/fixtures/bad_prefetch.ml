(* Lint self-test fixture: every marked site must trip the domain-escape
   pass of tools/lint.ml. The producer given to Prefetch.start runs on its
   own domain beside the consumer, so it is a party body like a Par_sim
   shard's: shared mutable state it reaches without Mailbox/Atomic
   mediation is a finding. Never built (tools/dune marks fixtures/
   data-only); `make lint` runs the linter over this file with
   --expect-fail to prove the pass bites. *)

type progress = { mutable last : int }

let () =
  let drawn = ref 0 in
  let history = Array.make 16 0 in
  let by_index : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let progress = { last = 0 } in
  (* Reached from the producer below: walked transitively, still checked. *)
  let record i =
    incr drawn (* finding: ref write *);
    history.(i land 15) <- i (* finding: Array.set *);
    Hashtbl.replace by_index i !drawn (* findings: Hashtbl on shared table, ref read *)
  in
  let produce i =
    record i;
    progress.last <- i (* finding: mutable-field write *);
    (* NOT a finding: locally-bound mutable state is private to the body. *)
    let mine = ref i in
    incr mine;
    !mine
  in
  let stream = Repro_engine.Prefetch.start ~n:100 produce in
  (* NOT a finding: the consumer side is not a party body. *)
  drawn := Repro_engine.Prefetch.next stream;
  Repro_engine.Prefetch.stop stream
