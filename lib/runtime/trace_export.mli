(** Trace exporters: Chrome trace-event JSON (Perfetto-loadable) and CSV.

    The Chrome format renders each execution segment (Started/Resumed
    through Preempted/Completed) as a duration slice on the thread that ran
    it — tid 0 is the dispatcher, tid [w+1] is worker [w] — and every other
    lifecycle event as an instant, so a request's hops between cores are
    visible on a timeline. Load the JSON at [ui.perfetto.dev] or
    [chrome://tracing].

    A minimal JSON reader (no external dependency) validates exported
    files, which is what [make trace-smoke] checks in CI. *)

val tracer_to_chrome_json : ?process_name:string -> Tracing.t -> string
(** Serialize the tracer's events, in one pass off its ring, to a Chrome
    trace-event JSON document
    ([{"traceEvents": [...], "displayTimeUnit": "ns"}]). Timestamps are
    microseconds with nanosecond precision, as the format requires. *)

val tracer_events_to_csv : Tracing.t -> string
(** The tracer's events, in one pass off its ring, as flat CSV, one row per
    event: [time_ns,request,kind,worker,progress_ns,queue_depth,local_depth,op_ns]
    (inapplicable columns empty). *)

val validate_json : string -> (unit, string) result
(** Syntax-check any JSON document with the built-in reader — the
    benchmark suite self-validates its [--json] output through this. *)

val validate_chrome_json : string -> (int, string) result
(** Parse a JSON document and check the Chrome trace-event shape: a
    top-level object whose ["traceEvents"] is a non-empty array of objects
    each carrying ["ph"], ["ts"] and ["pid"]. Returns the event count. *)

val validate_chrome_file : string -> (int, string) result
(** {!validate_chrome_json} on a file's contents. *)

val write_file : path:string -> string -> unit
(** Write (truncating) a text file. *)
