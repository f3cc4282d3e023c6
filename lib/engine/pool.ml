(* Work-sharing domain pool: spawned domains and the caller pull task
   indices from a shared Mutex/Condition-protected queue, so whichever
   domain goes idle first picks up the next pending task. Results land in
   their input slot, preserving order.

   Functorized over Primitives.S: production is Make (Primitives.Real)
   (identical behaviour to the pre-functor pool), and Repro_check
   instantiates Make with traced shims to model-check the task-queue
   protocol — no lost task, no lost wakeup, termination — and the
   in_pool nesting refusal. *)

module Make (P : Primitives.S) = struct
  let default_jobs_ref = ref (max 1 (P.Dom.recommended_domain_count () - 1))
  let default_jobs () = !default_jobs_ref
  let set_default_jobs n = default_jobs_ref := max 1 n

  (* True while the current domain is executing pool tasks; nested
     parallel_map calls then run inline instead of spawning more domains. *)
  let inside_pool : bool P.Dom.DLS.key = P.Dom.DLS.new_key (fun () -> false)
  let in_pool () = P.Dom.DLS.get inside_pool

  let parallel_map (type a b) ?domains (f : a -> b) (xs : a list) : b list =
    let n = List.length xs in
    let jobs =
      let requested = match domains with Some d -> max 1 d | None -> default_jobs () in
      min requested n
    in
    if jobs <= 1 || P.Dom.DLS.get inside_pool then List.map f xs
    else begin
      let input = Array.of_list xs in
      let results : b option array = Array.make n None in
      let mutex = P.Mutex.create () in
      let nonempty = P.Condition.create () in
      let all_done = P.Condition.create () in
      let tasks = Queue.create () in
      for i = 0 to n - 1 do
        Queue.push i tasks
      done;
      let completed = ref 0 in
      let stop = ref false in
      (* (task index, exception, backtrace) of the earliest failing task *)
      let error = ref None in
      let run_task i =
        (try results.(i) <- Some (f input.(i))
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           P.Mutex.lock mutex;
           (match !error with
           | Some (j, _, _) when j < i -> ()
           | _ -> error := Some (i, e, bt));
           P.Mutex.unlock mutex);
        P.Mutex.lock mutex;
        incr completed;
        if !completed = n then P.Condition.broadcast all_done;
        P.Mutex.unlock mutex
      in
      let worker () =
        P.Dom.DLS.set inside_pool true;
        let rec loop () =
          P.Mutex.lock mutex;
          let rec next () =
            if !stop then None
            else begin
              match Queue.take_opt tasks with
              | Some _ as t -> t
              | None ->
                P.Condition.wait nonempty mutex;
                next ()
            end
          in
          match next () with
          | None -> P.Mutex.unlock mutex
          | Some i ->
            P.Mutex.unlock mutex;
            run_task i;
            loop ()
        in
        loop ()
      in
      let spawned = Array.init (jobs - 1) (fun _ -> P.Dom.spawn worker) in
      (* The caller drains tasks too, then waits for in-flight ones and
         releases the workers. *)
      P.Dom.DLS.set inside_pool true;
      let rec help () =
        P.Mutex.lock mutex;
        match Queue.take_opt tasks with
        | Some i ->
          P.Mutex.unlock mutex;
          run_task i;
          help ()
        | None ->
          while !completed < n do
            P.Condition.wait all_done mutex
          done;
          stop := true;
          P.Condition.broadcast nonempty;
          P.Mutex.unlock mutex
      in
      help ();
      P.Dom.DLS.set inside_pool false;
      Array.iter P.Dom.join spawned;
      match !error with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
        Array.to_list
          (Array.map
             (function Some r -> r | None -> assert false (* every task completed *))
             results)
    end
end

include Make (Primitives.Real)
