(** Structured tracing and metrics for the solver/simulation hot paths.

    This module is the single observability substrate of the repository:
    one event stream (timestamped span begin/end, instant and numeric
    sample events) plus a registry of named counters and log-bucketed
    histograms.  Every fact is emitted once, and each event goes to two
    sinks:
    - the domain's trace buffer, while tracing is on ({!set_enabled});
      {!events} and the {!Export} writers read these;
    - the domain's installed flight-recorder ring, while one is
      installed ({!Recorder.with_recorder}), whether tracing is on or
      not.

    With tracing off and no recorder installed on any domain, every
    record operation reduces to two atomic loads and a branch, with no
    domain-local read and no allocation, so instrumented hot loops cost
    nothing measurable (the bench [observability_overhead] section pins
    this).  Counters and histograms record only while tracing is on.

    {2 Concurrency model}

    Trace events are buffered {e per domain}: the first event a domain
    records allocates it a private growable buffer (registered in a
    global list under a mutex, so the data outlives pool workers, which
    are joined after every parallel region).  No trace path writes
    shared mutable state, so instrumented code remains race-free under
    the pool sanitizer ([NETDIV_SANITIZE=1]).  A recorder ring takes its
    own mutex per write; counters are atomics; histograms take a
    per-instance mutex on the record path only.  {!events}, {!metrics}
    and {!reset} walk the global registries and must only be called
    between parallel regions (from the orchestrating domain), never
    concurrently with recording.

    {2 Timestamps}

    All timestamps come from {!Clock.now}, the one sanctioned wall-clock
    read for telemetry (the [direct-clock-in-instrumented-code] lint
    rule points here).  The shim clamps the raw clock to be
    non-decreasing per domain, so span durations are never negative even
    if the system clock steps backwards. *)

module Clock : sig
  val now : unit -> float
  (** Seconds since the Unix epoch, monotone non-decreasing within each
      domain.  This is the only clock telemetry may read; solver code
      that needs wall time (budgets, stage timings, reported runtimes)
      must go through it so every trace shares one time base. *)
end

val set_enabled : bool -> unit
(** Turn tracing on or off globally.  Call it before spawning any
    parallel region; the flag is an atomic, so domains spawned after the
    write observe it.  The first enable installs a GC alarm that ticks
    the [gc.major_cycles] counter at the end of every major collection
    cycle, attributing full-GC pressure to the run.  Disabling does not
    clear recorded data — see {!reset}. *)

val enabled : unit -> bool
(** Whether tracing is currently on (one atomic load — callers may poll
    this per iteration to skip trace-only bookkeeping such as counter
    arguments). *)

(** {1 Spans and events} *)

type kind =
  | Begin  (** span opened *)
  | End  (** span closed *)
  | Instant  (** point event *)
  | Sample  (** named numeric sample (a counter-track point) *)

type event = {
  kind : kind;
  name : string;
  ts : float;  (** {!Clock.now} at record time *)
  value : float;  (** payload of [Sample] events; [0.] otherwise *)
  tid : int;  (** id of the recording domain's buffer; [0] in a ring *)
}

val span : name:string -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f ()] bracketed by [Begin]/[End] events.
    Nestable; exception-safe (the [End] event is recorded, then the
    exception is re-raised with its backtrace).  When nothing records
    ({!recording}) this is exactly [f ()]. *)

val begin_span : string -> unit
(** Open a span without a closure — for hot loops where even the
    closure allocation of {!span} is unwelcome.  Every [begin_span]
    must be paired with an {!end_span} on the same domain along every
    non-raising path; exporters tolerate (and drop) unbalanced spans. *)

val end_span : string -> unit
(** Close the innermost span previously opened with the same name. *)

val instant : string -> unit
(** Record a point event. *)

val sample : name:string -> float -> unit
(** [sample ~name v] records a timestamped numeric sample; exported as
    a Chrome counter-track event, so per-sweep energies and bounds plot
    as curves in Perfetto. *)

val recording : unit -> bool
(** Whether an event recorded now would reach a sink: tracing is on, or
    a recorder is installed on some domain.  Two atomic loads; poll it
    to skip computing sample names or values nobody would record. *)

val events : unit -> event list
(** Merge every domain buffer into one list ordered by timestamp
    (ties: buffer id, then recording order).  Within one [tid] the
    original per-domain order is always preserved.  Call between
    parallel regions only. *)

(** {1 Recorder rings}

    The bounded sink behind {!Recorder}, which is the API to use.  The
    types live here because recording writes each event straight into
    the ring installed on the recording domain. *)

type ring
(** The last [capacity] events, in preallocated struct-of-arrays
    storage: a write is a mutex-guarded bounded store. *)

type recorder = {
  rname : string;
  dump_path : string option;  (** default destination of a dump *)
  t0 : float;  (** {!Clock.now} at creation; dumps count time from it *)
  ring : ring;
  mutable last_reason : string option;  (** reason of the last written dump *)
}

val new_ring : int -> ring
(** A ring of the given capacity, clamped to at least 1. *)

val ring_capacity : ring -> int

val ring_recorded : ring -> int
(** Events ever written, including overwritten ones. *)

val ring_events : ring -> event list
(** The retained events, oldest first, with [tid] 0. *)

val with_installed : recorder option -> (unit -> 'a) -> 'a
(** Install a recorder ([None]: none) on the current domain for the
    callback; exception-safe, restores the previous installation. *)

val installed : unit -> recorder option
(** The current domain's installed recorder. *)

(** {1 Metrics registry}

    Metrics are named, created on first use ([make] is get-or-create,
    so module-toplevel [make] calls in instrumented libraries share one
    instance per name) and preallocated: the record paths below touch
    only existing atomics and arrays, never the allocator. *)

module Counter : sig
  type t

  val make : string -> t
  (** Get or create the counter registered under this name. *)

  val add : t -> int -> unit
  (** Atomic add; a no-op while tracing is off. *)

  val incr : t -> unit
  val value : t -> int
end

module Histogram : sig
  type t

  val n_buckets : int
  (** Number of log-scale buckets (fixed, preallocated). *)

  val base : float
  (** Lower edge of bucket 1.  Bucket 0 catches everything below
      [base] (including zero, negatives and [nan]); bucket [i >= 1]
      covers [[base * 2^(i-1), base * 2^i)]; the last bucket absorbs
      the overflow tail. *)

  val bucket_of : float -> int
  (** Bucket index a value lands in; exposed so tests can pin the
      edges. *)

  val bucket_lower : int -> float
  (** Inclusive lower edge of a bucket ([0.] for bucket 0). *)

  val make : string -> t

  val record : t -> float -> unit
  (** Mutex-guarded bucket/stat update, allocation-free; a no-op while
      tracing is off. *)

  val count : t -> int
  val sum : t -> float

  val buckets : t -> int array
  (** Copy of the bucket counts. *)
end

type metric =
  | Counter_v of { name : string; count : int }
  | Histogram_v of {
      name : string;
      count : int;
      sum : float;
      min : float;  (** [infinity] when empty *)
      max : float;  (** [neg_infinity] when empty *)
      buckets : int array;
    }

val metrics : unit -> metric list
(** Snapshot of every registered metric, sorted by name.  Metrics that
    never recorded anything are included (count 0). *)

val reset : unit -> unit
(** Clear all trace buffers and zero every metric (registrations are
    kept; recorder rings are untouched).  Call between parallel regions
    only. *)
