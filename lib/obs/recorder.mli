(** Convergence flight recorder: a fixed-size ring that keeps the last
    [capacity] events of the {!Obs} event stream, cheap enough to leave
    on at 100k-host scale where the full event-buffer [--trace] is too
    heavy.

    A recorder is a bounded sink of the same stream [--trace] writes:
    solvers, the pool and the runner emit each fact once through
    {!Obs.span}, {!Obs.instant} and {!Obs.sample}, and every event the
    installing domain records lands in its ring while it is installed,
    whether tracing is on or not.  A write is a mutex-guarded bounded
    store into preallocated struct-of-arrays storage (no growth), so
    memory is O(capacity) whatever the instance size.

    {2 Installation}

    The active recorder is ambient per-domain state.  {!with_recorder}
    installs one for the duration of a callback; {!suspended} blanks
    the installation.  The pool runs every parallel region suspended,
    inline or dispatched: pool workers — and the caller domain, which
    also claims chunks — would otherwise record in a schedule-dependent
    order, so what orchestrator code records is the ring's whole,
    deterministic content.  Round and iteration numbers travel in the
    stream as samples, so a wrapped ring keeps them.

    {2 Dumps}

    {!dump} writes one header line (format version 2),

    {v {"netdiv_recorder":2,"name":N,"reason":R,"capacity":C,"recorded":T,"dropped":D} v}

    followed by the retained events in the [--trace] JSONL object shape
    ({!Export.add_jsonl}, timestamps relative to the recorder's
    creation).  The write is atomic ({!Netdiv_fault.Io.write_atomic}),
    so a dump torn by a crash or an injected fault never replaces a
    previous good black box.  The runner dumps on completion, watchdog
    abandonment and degradation; [netdiv report] renders the result. *)

type t

val create : ?dump_path:string -> ?capacity:int -> string -> t
(** [create name] makes a recorder named [name] retaining the last
    [capacity] events (default 4096, clamped to at least 1).
    [dump_path], when given, is the default destination for {!dump}. *)

val name : t -> string
val capacity : t -> int

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring wraparound: [max 0 (recorded - capacity)]. *)

val events : t -> Obs.event list
(** The retained events, oldest first, with absolute timestamps.  Call
    between parallel regions. *)

(** {1 Ambient installation} *)

val with_recorder : t -> (unit -> 'a) -> 'a
(** Install [t] as the current domain's recorder for the callback
    (exception-safe; restores the previous installation). *)

val suspended : (unit -> 'a) -> 'a
(** Run the callback with no recorder installed on the current domain.
    Free when no recorder is installed anywhere. *)

val current : unit -> t option
(** The current domain's installed recorder, if any. *)

(** {1 Dumping} *)

val dump_string : reason:string -> t -> string
(** The header line and the retained events.  [reason] records why the
    dump happened (["completed"], ["degraded"], ["watchdog"], an
    exception name, ...). *)

val dump : ?path:string -> reason:string -> t -> (unit, string) result
(** Write {!dump_string} atomically to [path] (default: the recorder's
    [dump_path]).  [Ok ()] without writing when neither is set. *)

val last_dump : t -> string option
(** The [reason] of the most recent dump that actually wrote a file —
    [None] if none has.  Lets an outer harness avoid overwriting a more
    specific dump (a runner outcome) with a generic completion one. *)
