(** Fault-tolerant anytime harness over the MAP solvers.

    The paper's headline claim is scalability — diversification of
    10,000-host networks in bounded time — and online re-diversification
    needs solvers that can be stopped at a deadline and still return the
    best feasible assignment found so far.  The runner wraps the five
    solvers behind a uniform [stage] interface — an interrupt goes in, a
    {!Solver.result} comes out — enforces a wall-clock budget and
    degrades through a fallback cascade, merging the best-so-far
    labeling across stages.  Solvers do not time themselves: the
    runner's stage clock is the one source of solve time, and only the
    budget can make a result depend on the clock.

    Interrupt granularity: once per sweep for TRW-S, BP, ICM and SA
    (every restart, including spawned domains), per node expansion for
    branch-and-bound.  All stages
    preserve the anytime property: they return a feasible labeling and
    its energy no matter when they are stopped. *)

type outcome =
  | Converged  (** a stage met its own stopping criterion *)
  | Budget_exhausted  (** deadline hit *)
  | Stalled
      (** the last stage stopped at its own iteration cap without
          converging, or the watchdog abandoned it (see {!run}) *)
  | Fell_back of string * outcome
      (** a stage ended without converging and the cascade moved on to
          the next one.  The string names the abandoned stage; the
          payload is the eventual outcome of the rest of the cascade. *)
  | Degraded of string * outcome
      (** stage failures forced the harness onto its degradation rung;
          the string names it (["icm-fallback"]: plain ICM warm-started
          from the best labeling).  Always the outermost wrapper. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** ["converged"], ["budget exhausted"], ["stalled"], or
    ["fell back from <stage>; <outcome>"]. *)

val outcome_converged : outcome -> bool
(** [true] iff the outcome terminates in [Converged] (looking through
    [Fell_back]). *)

type stage
(** One solver in a cascade: a name plus a solve function taking the
    harness interrupt and an optional warm-start labeling. *)

val stage_name : stage -> string

val trws : ?jobs:int -> unit -> stage
(** {!Trws.solve} with [jobs]: without it the sequential sweep; with it
    the component split, or the partitioned schedule on one large
    component.  The result is job-count-invariant. *)

val trws_icm : ?jobs:int -> unit -> stage
(** TRW-S followed by an ICM polish warm-started from its labeling; keeps
    the TRW-S dual bound.  [converged] requires both to converge.
    [jobs] parallelizes the TRW-S part as in {!trws}. *)

val bp : ?jobs:int -> unit -> stage
(** {!Bp.solve} with [jobs]: the sequential sweep without it, the
    chromatic schedule with it.  The result is job-count-invariant. *)

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

val bnb : unit -> stage

type run_report = {
  result : Solver.result;
      (** best labeling across all stages run; [lower_bound] is the max
          bound any stage proved, [iterations] is summed *)
  outcome : outcome;
  stage_timings : (string * float) list;
      (** wall-clock seconds per stage, in execution order: the one
          source of solve time *)
  retries : int;
      (** stage attempts that died on a recoverable failure and were
          retried (or escalated down the ladder); 0 on a clean run *)
}

val run :
  ?budget:float ->
  ?init:int array ->
  ?on_best:(Solver.result -> unit) ->
  stages:stage list ->
  Mrf.t ->
  run_report
(** Runs the cascade: each stage starts from the best labeling found so
    far and inherits the remaining budget, [budget] wall-clock seconds
    from the start of the run (default: none).  A stage that converges
    ends the run with [Converged]; hitting the deadline ends it with
    [Budget_exhausted].  A stage that stops at its own iteration cap
    without converging falls through to the next stage, wrapping the
    eventual outcome in [Fell_back]; when no stage remains the run ends
    [Stalled].  Without [budget] the interrupt never fires and never
    reads the clock, so no clock reading can change the result.

    {b Recovery.}  A stage attempt that dies on a {e recoverable}
    failure — an injected fault ({!Netdiv_fault.Fault.Injected}),
    [Out_of_memory], [Sys_error] — is retried twice at once.  When those
    retries are spent the harness degrades to its one rung, plain ICM
    warm-started from the best labeling so far, which gets two retries
    of its own.  Entering the rung is recorded as a [Degraded] wrapper
    on the outcome; the event stream marks each retry with a
    [retry:<stage>] instant and the rung with a [degrade:icm-fallback]
    instant.  If the rung fails too and a best-so-far (or [init])
    labeling exists, the stage is abandoned and the run keeps its
    anytime result; with nothing to fall back on the failure
    propagates.  The ladder never climbs back down: stages after the
    one that degraded run on the rung.  Non-recoverable
    exceptions ([Pool.Race], programmer errors) always propagate
    unchanged.

    [init] seeds the best-so-far labeling before any stage runs (the
    resume path: stages warm-start from it and it is the watchdog's
    fallback).  [on_best] fires in the harness domain each time the
    merged best strictly improves — the checkpoint hook.

    The returned labeling is always feasible (every stage is anytime),
    and with [~budget:0.0] each stage returns within its first interrupt
    poll.

    @raise Invalid_argument on an empty [stages] list. *)
