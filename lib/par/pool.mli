(** Shared domain pool: chunked data-parallel iteration over integer ranges.

    This is the only module in the code base that is allowed to call
    [Domain.spawn].  Every parallel consumer (simulated annealing restarts,
    Monte-Carlo MTTC sweeps, zoned TRW-S rounds, the bench harness) goes
    through the combinators below, which guarantee:

    - deterministic results: chunk outputs are combined in chunk-index
      order, so the result is independent of the number of domains;
    - exception propagation: a worker failure is re-raised in the caller
      (lowest failing chunk index wins) after all domains are joined;
    - a bit-for-bit serial fallback when the resolved job count is 1 —
      no domain is spawned and the body runs inline in the caller;
    - no event from inside a region reaches a flight recorder: every
      region ([parallel_for], [map_range], [map_reduce], [Team.run]),
      inline or dispatched, runs with {!Netdiv_obs.Recorder.suspended},
      because the caller domain claims chunks too, in a
      schedule-dependent order.  Tracing still sees the region: a
      [pool.region] span, a [pool.chunk] span per chunk in the executing
      domain, and at its end one sample each of the caller's GC deltas
      ([pool.gc_minor], [pool.gc_major], [pool.gc_minor_words],
      [pool.gc_major_words]).

    {2 Race sanitizer}

    Setting [NETDIV_SANITIZE=1] (or calling {!set_sanitize}) switches
    {!parallel_for} and {!map_range} into a debug mode that shadow-tracks
    which chunk executed each loop index and — for stores routed through
    {!write} — which chunk wrote each output slot.  A loop index
    dispatched twice, a dispatch outside the claiming chunk's sub-range,
    an output slot written by two distinct chunks, or a write across the
    owning chunk's boundary raises {!Race} instead of silently producing
    job-count-dependent results.  The static netdiv-lint rules and this
    runtime check cover each other's blind spots: the linter sees code
    that never runs, the sanitizer sees aliasing no lexical rule can.
    Sanitized runs always dispatch through chunks (the serial fast path
    is disabled) and pay a mutex per tracked event, so the mode is meant
    for tests and debugging, never production runs.

    {2 Fault recovery}

    Under [NETDIV_FAULT] (see {!Netdiv_fault.Fault}) the pool hosts two
    injection points: [pool.chunk] crashes a chunk body and
    [pool.alloc] fails a mapping combinator before any work is
    dispatched.  An injected chunk crash is {e recovered}: the pool
    notes the chunk, lets the remaining chunks finish, and re-executes
    the crashed chunks sequentially in ascending chunk order after the
    parallel phase.  Chunk boundaries alone determine results, so a
    recovered region returns exactly what a fault-free region would;
    the recovery is visible only through the [pool.chunk_fault] /
    [pool.chunk_recovered] instants of the {!Netdiv_obs} trace (recorded
    inside the region, so never in a flight-recorder ring).  Exceptions that
    are not injected faults — {!Race}, programmer errors, real OS
    failures — keep their historical behavior: the region aborts and
    the lowest failing chunk's exception is re-raised in the caller. *)

exception Race of string
(** Raised (and re-raised in the calling domain, lowest failing chunk
    first) when the sanitizer observes an overlapping write, a
    chunk-boundary escape or a double dispatch. *)

val set_sanitize : bool option -> unit
(** [set_sanitize (Some b)] forces the sanitizer on or off for subsequent
    parallel regions, overriding the environment; [set_sanitize None]
    restores the [NETDIV_SANITIZE] default.  Call it only between
    parallel regions (tests), never from inside one. *)

val sanitize_enabled : unit -> bool
(** Whether the next parallel region will be sanitized. *)

val write : 'a array -> int -> 'a -> unit
(** [write out i v] is [out.(i) <- v] for an output array indexed by the
    loop index.  Outside a sanitized region it is exactly that store (one
    domain-local read of overhead).  Inside one, the sanitizer first
    checks that slot [i] is not owned by another chunk and that [i] lies
    within the calling chunk's sub-range, raising {!Race} otherwise.
    Use it for [parallel_for] bodies that fill a caller-allocated array;
    [map_range]'s own stores are tracked automatically. *)

val write_slab : floatarray -> int -> float -> unit
(** {!write} for unboxed float slabs.  Slab slots live in their own
    offset space (directed-edge offsets, per-node scratch offsets), which
    in general is not the loop-index space, so only the overlapping-write
    check applies: a slot written by two distinct chunks of the same
    region raises {!Race}; the chunk-boundary check of {!write} is
    skipped.  Outside a sanitized region this is [Float.Array.set]. *)

val set_hardware_jobs : int option -> unit
(** Test-only override of the hardware parallelism clamp.
    [set_hardware_jobs (Some n)] makes the pool and {!Team} behave as if
    [Domain.recommended_domain_count () = n] — on a single-core CI box
    this is the only way to actually exercise the cross-domain machinery
    (worker parking, chunk claiming, failure propagation).
    [set_hardware_jobs None] restores the runtime's own count.  Call it
    only between parallel regions, never from inside one; results are
    unaffected either way because chunk boundaries never depend on the
    domain count. *)

val resolve_jobs : ?jobs:int -> unit -> int
(** Number of worker domains to use.  Picks the first available of:
    [jobs] argument (when >= 1), the [NETDIV_JOBS] environment variable
    (when it parses to an int >= 1), [Domain.recommended_domain_count ()].
    The result is always >= 1.

    The resolved value is a {e cap}, not a demand: at execution time the
    pool additionally clamps the spawned domain count to
    [Domain.recommended_domain_count ()] (the CPUs actually visible to
    the process, cgroup quota included).  On OCaml 5 domains share one
    stop-the-world minor collector, so running more domains than cores
    strictly slows regions down.  Chunk boundaries — and therefore
    results, reduction order and sanitizer ownership — depend only on
    the chunk count, never on how many domains execute the chunks. *)

val split_seed : int -> int -> int
(** [split_seed seed index] derives an independent, deterministic child
    seed from a master seed and a chunk/run index using a splitmix64-style
    finalizer.  The result is non-negative and depends only on the two
    arguments, never on the job count. *)

(** {2 Granularity}

    Every combinator takes an optional [?cost] hint: the estimated work
    of one loop item in abstract units (≈ nanoseconds of straight-line
    compute; a zoned TRW-S solve counts [k_u·k_v] per directed message
    update).  When the hint puts the region's total estimated work
    below a sequential cutoff (≈ 20M units, a few domain-spawn
    round-trips), the region runs inline in the caller — spawning
    domains for sub-millisecond work makes 2–4 jobs {e slower} than
    sequential.  Above the cutoff the chunk count adapts to the
    estimate (clamped to [jobs .. 8*jobs]) so chunks stay coarse enough
    to amortize claiming.  Results never depend on the decision: all
    combinators are job- and chunk-count-invariant by construction (for
    {!map_reduce}, given an associative [reduce]).  Without [?cost] the
    historical behavior is unchanged.  An explicit [?chunks] overrides
    the adaptive count; sanitized regions always dispatch through
    chunks so the claim checks still run. *)

val sequential_cutoff : int
(** Total estimated work (units) below which a hinted region runs
    inline. *)

val parallel_for :
  ?jobs:int ->
  ?chunks:int ->
  ?cost:int ->
  lo:int ->
  hi:int ->
  (int -> unit) ->
  unit
(** [parallel_for ~lo ~hi f] runs [f i] for every [lo <= i < hi], with
    the range split into [chunks] contiguous chunks (default: the job
    count) claimed dynamically by [jobs] workers.  [f] must be safe to
    call concurrently for distinct [i].  With [jobs = 1] this is exactly
    [for i = lo to hi - 1 do f i done]. *)

val map_range :
  ?jobs:int ->
  ?chunks:int ->
  ?cost:int ->
  lo:int ->
  hi:int ->
  (int -> 'a) ->
  'a array
(** [map_range ~lo ~hi f] returns [[| f lo; f (lo+1); ...; f (hi-1) |]].
    Element order is always index order regardless of [jobs]. *)

val map_reduce :
  ?jobs:int ->
  ?chunks:int ->
  ?cost:int ->
  lo:int ->
  hi:int ->
  map:(int -> 'a) ->
  reduce:('a -> 'a -> 'a) ->
  init:'a ->
  'a
(** Fold [reduce] over [map i] for [lo <= i < hi].  Per-chunk partial
    results are combined left-to-right in chunk order starting from
    [init], so the result is job-count-invariant provided [reduce] is
    associative with [init] as identity. *)

(** {2 Persistent worker team}

    The combinators above spawn domains per region — fine for regions
    carrying tens of milliseconds of work (a round of zone solves in
    {!Netdiv_mrf.Trws.solve}, one chunk per zone), hopeless for
    intra-component solver schedules where one region (a TRW-S
    partition phase, one chromatic-BP color class) is 10µs–1ms of work
    repeated thousands of times per solve.  A {!Team.t} amortizes the
    spawn: its worker domains are created once (per solve) and parked
    on a condition variable; each {!Team.run} costs one broadcast plus
    a chunk-claim loop plus a counter join.

    The determinism contract matches the combinators: chunk boundaries
    are a function of [chunks], [lo], [hi] alone; chunks are claimed
    dynamically; the lowest failing chunk's exception is re-raised in
    the caller.  Under the sanitizer every loop index is claim-checked
    exactly as in {!parallel_for}, and bodies may route stores through
    {!write} / {!write_slab}.  There is {e no} fault-injection point
    inside a team: team bodies update shared slabs in place, so
    re-executing a crashed chunk would not be idempotent — teams are
    reserved for regions whose writes are disjoint by construction. *)

module Team : sig
  type t

  val create : ?jobs:int -> unit -> t
  (** Spawns [min (resolve_jobs ?jobs ()) hardware] minus one worker
      domains (the caller is the remaining participant) and parks them.
      With a resolved size of 1 no domain is spawned and every {!run}
      executes inline in the caller. *)

  val size : t -> int
  (** Participating domains, caller included; always >= 1. *)

  val run :
    t -> chunks:int -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
  (** [run t ~chunks ~lo ~hi body] executes [body c clo chi] for every
      chunk [c] covering [lo, hi), exactly like the chunk dispatch of
      {!parallel_for} but on the parked workers.  [body] must confine
      its writes so that distinct chunks never write the same slot.
      Not reentrant: do not call [run] from inside a team body. *)

  val stop : t -> unit
  (** Wakes and joins the worker domains.  Idempotent.  A team must be
      stopped before the program exits; {!run} after [stop] executes
      inline in the caller. *)
end
