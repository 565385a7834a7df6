(** Exporters for {!Obs} data: Chrome [trace_event] JSON, JSONL, and a
    plain-text summary.

    Both JSON forms, and the events of a {!Recorder} dump, use the same
    per-event object shape (the Chrome trace format's):

    {v {"name":N,"ph":P,"ts":T,"pid":1,"tid":I[,"args":{"value":V}]} v}

    with [ph] one of ["B"]/["E"] (span begin/end), ["i"] (instant) or
    ["C"] (counter sample) and [ts] in microseconds relative to the
    first recorded event (to the recorder's creation in a dump).  The
    Chrome form wraps the objects in [{"traceEvents":[...]}] — load it
    directly in [chrome://tracing] or Perfetto; the JSONL form emits one
    object per line for streaming consumers.  Non-finite sample values
    are emitted as JSON strings (["inf"], ["nan"]) so the output always
    parses. *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control chars) —
    shared by every hand-rolled writer in the library. *)

val chrome_string : unit -> string
(** The current event buffers as one Chrome [trace_event] document. *)

val jsonl_string : unit -> string
(** The current event buffers as newline-delimited JSON, one event per
    line (same object shape as {!chrome_string}). *)

val add_jsonl : Buffer.t -> t0:float -> Obs.event list -> unit
(** Append [events] as JSONL, timestamps relative to [t0] — the writer
    behind {!jsonl_string} and flight-recorder dumps. *)

val write_trace : path:string -> (unit, string) result
(** Write the current event buffers to [path]: JSONL when the file name
    ends in [.jsonl], the Chrome document otherwise.  The write is
    atomic (temp file + rename, via {!Netdiv_fault.Io.write_atomic});
    on [Error] any previous trace at [path] is untouched. *)

val span_rollup : Obs.event list -> (string * int * float * float) list
(** Aggregate well-nested [Begin]/[End] pairs per name:
    [(name, count, total_s, max_s)], sorted by descending total.
    Pairing is per [tid]; unbalanced opens are dropped. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable digest of the current state: span totals (from
    {!span_rollup}) followed by every registered metric. *)
