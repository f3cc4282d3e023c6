(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let escape_json s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let us_of_ns ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e3)

(* Timeline thread ids: the dispatcher (worker -1) is tid 0. *)
let tid_of_worker w = w + 1

let event_json ~ph ~name ~ts_ns ~tid ~extra_fields ~args =
  let args_s =
    match args with
    | [] -> ""
    | kvs ->
      Printf.sprintf ",\"args\":{%s}"
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) kvs))
  in
  Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%s,\"pid\":1,\"tid\":%d%s%s}"
    (escape_json name) ph (us_of_ns ts_ns) tid extra_fields args_s

let instant ~name ~ts_ns ~tid ~args =
  event_json ~ph:"i" ~name ~ts_ns ~tid ~extra_fields:",\"s\":\"t\"" ~args

let slice ~name ~ts_ns ~dur_ns ~tid ~args =
  event_json ~ph:"X" ~name ~ts_ns ~tid
    ~extra_fields:(Printf.sprintf ",\"dur\":%s" (us_of_ns dur_ns))
    ~args

let metadata ~name ~tid ~value =
  Printf.sprintf
    "{\"name\":\"%s\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
    name tid (escape_json value)

let tracer_to_chrome_json ?(process_name = "concord-sim") tracer =
  let events = ref [] in
  let emit e = events := e :: !events in
  (* Pair each Started/Resumed with the next Preempted/Completed of the
     same request to form a duration slice on the executing thread. *)
  let open_exec : (int, int * int) Hashtbl.t = Hashtbl.create 256 (* req -> start_ns, tid *) in
  let seen_tids = Hashtbl.create 16 in
  Tracing.iter_entries tracer ~f:(fun (e : Tracing.entry) ->
      let req_arg = ("request", string_of_int e.request) in
      (match Tracing.worker_of e.kind with
      | Some w -> Hashtbl.replace seen_tids (tid_of_worker w) ()
      | None -> ());
      match e.kind with
      | Tracing.Started { worker } ->
        Hashtbl.replace open_exec e.request (e.time_ns, tid_of_worker worker)
      | Tracing.Resumed { worker; _ } ->
        Hashtbl.replace open_exec e.request (e.time_ns, tid_of_worker worker)
      | Tracing.Preempted _ | Tracing.Completed _ -> (
        let done_ = match e.kind with Tracing.Completed _ -> true | _ -> false in
        let progress =
          match e.kind with Tracing.Preempted { progress_ns; _ } -> progress_ns | _ -> -1
        in
        match Hashtbl.find_opt open_exec e.request with
        | Some (start_ns, tid) ->
          Hashtbl.remove open_exec e.request;
          let args =
            req_arg
            :: (if progress >= 0 then [ ("progress_ns", string_of_int progress) ] else [])
          in
          emit
            (slice
               ~name:(Printf.sprintf "req %d%s" e.request (if done_ then "" else " (slice)"))
               ~ts_ns:start_ns ~dur_ns:(e.time_ns - start_ns) ~tid ~args)
        | None -> emit (instant ~name:(Tracing.kind_name e.kind) ~ts_ns:e.time_ns ~tid:0 ~args:[ req_arg ]))
      | Tracing.Arrived { service_ns } ->
        emit
          (instant ~name:"arrived" ~ts_ns:e.time_ns ~tid:0
             ~args:[ req_arg; ("service_ns", string_of_int service_ns) ])
      | Tracing.Admitted { central_depth; op_ns } ->
        emit
          (instant ~name:"admitted" ~ts_ns:e.time_ns ~tid:0
             ~args:
               [
                 req_arg;
                 ("central_depth", string_of_int central_depth);
                 ("op_ns", string_of_int op_ns);
               ])
      | Tracing.Dispatched { worker; central_depth; local_depth; op_ns } ->
        emit
          (instant ~name:"dispatched" ~ts_ns:e.time_ns ~tid:(tid_of_worker worker)
             ~args:
               [
                 req_arg;
                 ("central_depth", string_of_int central_depth);
                 ("local_depth", string_of_int local_depth);
                 ("op_ns", string_of_int op_ns);
               ])
      | Tracing.Delivered { worker } ->
        emit (instant ~name:"delivered" ~ts_ns:e.time_ns ~tid:(tid_of_worker worker) ~args:[ req_arg ])
      | Tracing.Requeued { queue_depth } ->
        emit
          (instant ~name:"requeued" ~ts_ns:e.time_ns ~tid:0
             ~args:[ req_arg; ("queue_depth", string_of_int queue_depth) ])
      | Tracing.Stolen -> emit (instant ~name:"stolen" ~ts_ns:e.time_ns ~tid:0 ~args:[ req_arg ])
      | Tracing.Replicated { term } ->
        emit
          (instant ~name:"replicated" ~ts_ns:e.time_ns ~tid:0
             ~args:[ req_arg; ("term", string_of_int term) ]));
  let meta =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"args\":{\"name\":\"%s\"}}"
      (escape_json process_name)
    :: metadata ~name:"thread_name" ~tid:0 ~value:"dispatcher"
    :: ((Hashtbl.fold
           (fun tid () acc ->
             if tid = 0 then acc
             else metadata ~name:"thread_name" ~tid ~value:(Printf.sprintf "worker %d" (tid - 1)) :: acc)
           seen_tids []
        [@lint.deterministic "order-insensitive: the result is sorted on the next line"])
       |> List.sort compare)
  in
  Printf.sprintf "{\"traceEvents\":[%s],\"displayTimeUnit\":\"ns\"}\n"
    (String.concat ",\n" (meta @ List.rev !events))

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let tracer_events_to_csv tracer =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time_ns,request,kind,worker,progress_ns,queue_depth,local_depth,op_ns\n";
  Tracing.iter_entries tracer ~f:(fun (e : Tracing.entry) ->
      let worker = match Tracing.worker_of e.kind with Some w -> string_of_int w | None -> "" in
      let progress, queue_depth, local_depth, op_ns =
        match e.kind with
        | Tracing.Arrived _ | Tracing.Delivered _ | Tracing.Started _ | Tracing.Stolen
        | Tracing.Completed _ | Tracing.Replicated _ ->
          ("", "", "", "")
        | Tracing.Admitted { central_depth; op_ns } ->
          ("", string_of_int central_depth, "", string_of_int op_ns)
        | Tracing.Dispatched { central_depth; local_depth; op_ns; _ } ->
          ("", string_of_int central_depth, string_of_int local_depth, string_of_int op_ns)
        | Tracing.Resumed { progress_ns; _ } | Tracing.Preempted { progress_ns; _ } ->
          (string_of_int progress_ns, "", "", "")
        | Tracing.Requeued { queue_depth } -> ("", string_of_int queue_depth, "", "")
      in
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%s,%s,%s,%s,%s,%s\n" e.time_ns e.request
           (Tracing.kind_name e.kind) worker progress queue_depth local_depth op_ns));
  Buffer.contents buf


(* ------------------------------------------------------------------ *)
(* Minimal JSON reader (validation only; no external dependency)       *)
(* ------------------------------------------------------------------ *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit value =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
      pos := !pos + String.length lit;
      value
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape"
           else begin
             let e = s.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 > n then fail "truncated \\u escape";
               pos := !pos + 4;
               Buffer.add_char buf '?'
             | _ -> fail "bad escape"
           end);
          loop ()
        | c -> Buffer.add_char buf c; loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected number"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Jobj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); Jobj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Jarr [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); Jarr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let validate_json text =
  match parse_json text with
  | exception Parse_error msg -> Error ("invalid JSON: " ^ msg)
  | (_ : json) -> Ok ()

let validate_chrome_json text =
  match parse_json text with
  | exception Parse_error msg -> Error ("invalid JSON: " ^ msg)
  | Jobj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | None -> Error "missing \"traceEvents\" key"
    | Some (Jarr []) -> Error "\"traceEvents\" is empty"
    | Some (Jarr events) ->
      let bad = ref None in
      List.iteri
        (fun i ev ->
          if !bad = None then
            match ev with
            | Jobj f ->
              let has k pred = match List.assoc_opt k f with Some v -> pred v | None -> false in
              if not (has "ph" (function Jstr _ -> true | _ -> false)) then
                bad := Some (Printf.sprintf "event %d: missing \"ph\"" i)
              else if not (has "ts" (function Jnum _ -> true | _ -> false)) then
                bad := Some (Printf.sprintf "event %d: missing \"ts\"" i)
              else if not (has "pid" (function Jnum _ -> true | _ -> false)) then
                bad := Some (Printf.sprintf "event %d: missing \"pid\"" i)
            | _ -> bad := Some (Printf.sprintf "event %d: not an object" i))
        events;
      (match !bad with None -> Ok (List.length events) | Some msg -> Error msg)
    | Some _ -> Error "\"traceEvents\" is not an array")
  | _ -> Error "top-level JSON value is not an object"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let validate_chrome_file path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text -> validate_chrome_json text

let write_file ~path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)
