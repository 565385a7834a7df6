(** Deterministic, seed-driven fault injection.

    The repository's robustness story needs failures it can summon on
    demand: a crashed pool chunk, a stage that dies mid-solve, a
    truncated checkpoint write, a stalled clock.  This module is the
    single switchboard for those failures, gated by the [NETDIV_FAULT]
    environment variable exactly the way [NETDIV_SANITIZE=1] gates the
    pool race sanitizer: with the variable unset every check below is
    one atomic load and a branch, so injection points can live on
    production paths.

    {2 Spec grammar}

    [NETDIV_FAULT] (or {!set_spec} in tests) holds a comma/semicolon
    separated list of items:

    - [seed=N] — master seed for probabilistic decisions (default 0);
    - [rate=F] — each (point, key) pair fails independently with
      probability [F], decided by a splitmix64 hash of (seed, point
      name, key) — never by a stateful RNG, so the decision for a given
      pair is a pure function of the spec;
    - [only=PREFIX] — restrict rate-based failures to points whose name
      starts with [PREFIX] (e.g. [only=pool.]);
    - [stall=S] — seconds the clock jumps forward when [clock.stall]
      fires (default 60);
    - [NAME@KEY] — explicit schedule entry: point [NAME] fails at key
      [KEY] (repeatable).  This is the replay form: {!fired_spec}
      renders any observed failure set back into these entries.

    {2 Determinism and replay}

    Every firing is recorded.  A (point, key) pair fires {e at most
    once} per process (until {!reset}): recovery layers re-execute the
    failed work, and the re-execution must not trip over the same
    injected fault — one spec entry models one transient failure.
    Points whose keys are stable program quantities (chunk index within
    a region, write sequence number, harness attempt count) replay
    bitwise: feeding {!fired_spec} of one run back through
    [NETDIV_FAULT] reproduces exactly the same failures.  The
    [clock.stall] point keys on the clock-read count, which is
    scheduling-dependent across domains; its replays are best-effort,
    like every wall-clock-coupled behavior (budgets).

    {2 Registered points}

    [pool.chunk] (key: region-sequence shifted left 12 bits, or'd with
    the chunk index), [pool.alloc] (key: region sequence),
    [runner.stage] (key: the process-wide count of harness attempts
    made while injection is armed, from 0 and never reset — [attempt_seq]
    in [runner.ml] — so [runner.stage@K] is the K-th attempt of the
    process, not of one run: a command that solves several times, like
    [casestudy], carries the count on from one solve to the next),
    [io.read.truncate] / [io.read.corrupt] (key: read sequence),
    [io.write.truncate] / [io.fsync] (key: write sequence),
    [clock.stall] (key: enabled clock-read count).  Consumers may
    register more with {!point}. *)

exception Injected of string * int
(** [Injected (point, key)] — the failure an armed injection point
    raises.  Recovery layers treat it as a transient fault: the pool
    re-executes the chunk, the runner retries the stage. *)

type point
(** A named injection site, get-or-create by name. *)

val point : string -> point
(** Get or create the point registered under this name. *)

val point_name : point -> string

val set_spec : string option -> unit
(** [set_spec (Some s)] overrides the environment with spec [s] for
    subsequent checks (the test hook; [""] forces injection off);
    [set_spec None] restores the [NETDIV_FAULT] default.  Raises
    [Invalid_argument] on a malformed spec — tests should fail loudly
    on a typo, while a malformed environment variable merely warns on
    stderr once and disables injection. *)

val enabled : unit -> bool
(** Whether the active spec can fire at all (a rate or at least one
    explicit entry). *)

val should_fail : ?key:int -> point -> bool
(** Decide whether this point fails now, and record the firing if so.
    With [key] the decision is a pure function of (spec, point name,
    key); without it the point's own hit counter supplies the key
    (atomically incremented per call).  Returns [false] immediately
    when injection is disabled, and for any (point, key) pair that
    already fired. *)

val check : ?key:int -> point -> unit
(** [check ?key p] raises {!Injected} when {!should_fail} says so;
    otherwise a no-op. *)

val is_injected : exn -> bool
(** Whether an exception is an injected fault (the class recovery
    layers may retry). *)

val fired : unit -> (string * int) list
(** Chronological record of every firing since the last {!reset}. *)

val fired_count : unit -> int

val fired_spec : unit -> string
(** The record rendered as explicit schedule entries
    (["pool.chunk@4097,io.fsync@0"]) — paste into [NETDIV_FAULT] to
    replay exactly the failures this process saw. *)

val clock_offset : unit -> float
(** Accumulated clock skew injected by the [clock.stall] point; the
    observability clock shim adds it to every read.  Checking costs one
    atomic load while injection is disabled.  Cleared by {!reset}. *)

val reset : unit -> unit
(** Clear the firing record, per-point hit counters and clock skew
    (the spec itself is kept).  Call between runs, never concurrently
    with checks from live domains. *)

val parse_spec_errors : string -> string option
(** [parse_spec_errors s] is [Some msg] when [s] is malformed, [None]
    when it parses — exposed so tests can pin the grammar. *)
