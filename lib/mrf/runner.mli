(** Fault-tolerant anytime harness over the MAP solvers.

    The paper's headline claim is scalability — diversification of
    10,000-host networks in bounded time — and online re-diversification
    needs solvers that can be stopped at a deadline and still return the
    best feasible assignment found so far.  The runner wraps each solver
    as a [stage] — an interrupt goes in, a {!Solver.result} comes out —
    runs one stage per solve under a wall-clock budget, and retries and
    degrades it when attempts fail.  Solvers do not time themselves: the
    runner's stage clock is the one source of solve time, and only the
    budget can make a result depend on the clock.

    Interrupt granularity: once per sweep for TRW-S, ICM and SA (every
    restart, including spawned domains), once per variable planned or
    eliminated for exact elimination.  Every stage preserves the anytime
    property: it returns a feasible labeling and its energy no matter
    when it is stopped. *)

type outcome =
  | Converged  (** the stage met its own stopping criterion *)
  | Budget_exhausted  (** deadline hit *)
  | Stalled
      (** the stage stopped at its own iteration cap without converging,
          or the watchdog abandoned it (see {!run}) *)
  | Degraded of string * outcome
      (** stage failures forced the harness onto its degradation rung;
          the string names it (["icm-fallback"]: plain ICM warm-started
          from the best labeling).  Always the outermost wrapper. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** ["converged"], ["budget exhausted"], ["stalled"], or
    ["degraded to <rung>; <outcome>"]. *)

val outcome_converged : outcome -> bool
(** [true] iff the outcome terminates in [Converged] (looking through
    [Degraded]). *)

type stage
(** One solver: a name plus a solve function taking the harness
    interrupt and an optional warm-start labeling. *)

val stage_name : stage -> string

val trws : ?jobs:int -> unit -> stage
(** {!Trws.solve} with [jobs]: without it the sequential sweep; with it
    the component split, whose components are solved in parallel.  The
    result is job-count-invariant. *)

val trws_icm : ?jobs:int -> unit -> stage
(** TRW-S followed by an ICM polish warm-started from its labeling; keeps
    the TRW-S dual bound.  [converged] requires both to converge.
    [jobs] parallelizes the TRW-S part as in {!trws}. *)

val icm : unit -> stage

val icm_restarts : ?jobs:int -> unit -> stage
(** Multi-restart ICM over the domain pool: 4 restarts.  Restart 0 runs
    from the cascade's warm start unchanged; each later restart perturbs
    it — relabeling a quarter of the nodes — or, with no warm start,
    draws a fresh uniform labeling, using an rng derived from a fixed
    seed and the restart index only.  The best energy wins (lowest
    restart index on ties), [iterations] sums all restarts, [converged]
    requires all restarts to converge; the outcome is identical for
    every job count. *)

val sa : ?jobs:int -> unit -> stage
(** {!Sa.solve} with its default config; [jobs] sets [domains],
    parallelizing the restarts over the domain pool (results are
    job-count-invariant). *)

val exact : ?jobs:int -> unit -> stage
(** {!Exact.solve}'s certified optimum when the plan fits; otherwise
    what the {!trws_icm} stage's solve returns under the same interrupt,
    with [converged = false].  So the stage converges exactly when its
    result is certified: an uncertified result ends [Stalled], or
    [Budget_exhausted] when the budget ran out. *)

type run_report = {
  result : Solver.result;
      (** the stage's labeling, or the [init] labeling when that is no
          worse; [lower_bound] is the stage's bound *)
  outcome : outcome;
  stage_timings : (string * float) list;
      (** wall-clock seconds of the stage, one entry: the one source of
          solve time *)
  retries : int;
      (** stage attempts that died on a recoverable failure and were
          retried (or escalated down the ladder); 0 on a clean run *)
}

val run :
  ?budget:float ->
  ?init:int array ->
  ?on_best:(Solver.result -> unit) ->
  stage:stage ->
  Mrf.t ->
  run_report
(** Runs one stage, starting from [init] when given, within [budget]
    wall-clock seconds from the start of the run (default: none).  The
    run ends [Converged] when the stage converges, [Budget_exhausted]
    when the deadline hit, and [Stalled] otherwise.  Without [budget]
    the interrupt never fires and never reads the clock, so no clock
    reading can change the result.

    {b Recovery.}  A stage attempt that dies on a {e recoverable}
    failure — an injected fault ({!Netdiv_fault.Fault.Injected}),
    [Out_of_memory], [Sys_error] — is retried twice at once.  When those
    retries are spent the harness degrades to its one rung, plain ICM
    warm-started from the best labeling so far, which gets two retries
    of its own.  Entering the rung is recorded as a [Degraded] wrapper
    on the outcome; the event stream marks each retry with a
    [retry:<stage>] instant and the rung with a [degrade:icm-fallback]
    instant.  If the rung fails too and an [init] labeling exists, the
    stage is abandoned and the run keeps that labeling, [Stalled]; with
    nothing to fall back on the failure propagates.  Non-recoverable
    exceptions ([Pool.Race], programmer errors) always propagate
    unchanged.

    [init] seeds the best-so-far labeling before the stage runs (the
    resume path: the stage warm-starts from it and it is the watchdog's
    fallback); the stage's result replaces it unless its energy is
    higher.  [on_best] fires in the harness domain when the stage's
    result is kept and strictly improves on [init] (or there is no
    [init]) — the checkpoint hook.

    The returned labeling is always feasible (every stage is anytime),
    and with [~budget:0.0] the stage returns within its first interrupt
    poll. *)
