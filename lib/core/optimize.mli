(** Optimal diversification (Definition 5, Section V-C).

    Encodes a network and its constraints as an MRF and minimizes with a
    configurable solver.  The default pipeline is TRW-S followed by an ICM
    polish of the decoded labeling: TRW-S supplies the global structure and
    the dual bound, ICM removes residual single-slot defects (it can only
    lower the energy). *)

type solver =
  | Trws           (** TRW-S alone *)
  | Trws_icm       (** TRW-S + ICM polish (default, "our method") *)
  | Icm            (** greedy local search baseline *)
  | Sa             (** simulated annealing baseline *)
  | Exact
      (** min-sum variable elimination ({!Netdiv_mrf.Exact}) when its
          plan fits, else TRW-S + ICM.  The result is a certified
          optimum ([lower_bound = energy]) exactly when the outcome is
          [Converged].  Measured on a 2-core host: the three case-study
          encodings certify in about a millisecond and the 160-host
          [Scaled.generate ~seed:1 ~scale:5] network in about 0.04 s,
          while the plan of a 60-host degree-10 [Workload.instance]
          does not fit and the solve ends [Stalled] with TRW-S + ICM's
          result *)

type report = {
  assignment : Assignment.t;
  energy : float;              (** MRF energy of [assignment] *)
  lower_bound : float;         (** dual bound ([neg_infinity] without one) *)
  solver_result : Netdiv_mrf.Solver.result;
  constraints_ok : bool;       (** all constraints satisfied *)
  violated : Constr.t list;
  runtime_s : float;           (** encode + solve wall clock *)
  outcome : Netdiv_mrf.Runner.outcome;
      (** how the solve ended ({!Netdiv_mrf.Runner.run}) *)
  retries : int;
      (** stage attempts retried after recoverable failures (see
          {!Netdiv_mrf.Runner.run}); 0 on a clean run *)
}

val run :
  ?solver:solver ->
  ?prconst:float ->
  ?big_m:float ->
  ?preference:(host:int -> service:int -> product:int -> float) ->
  ?edge_weight:(int -> int -> float) ->
  ?budget:float ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?resume:string ->
  Network.t ->
  Constr.t list ->
  report
(** Computes an (approximately) optimal constrained assignment; the
    optional arguments are forwarded to {!Encode.encode}.

    Every solve runs the solver as one stage under the anytime harness
    ({!Netdiv_mrf.Runner.run}); no option selects another code path.
    [budget] is a wall-clock allowance in seconds (default: none), the
    only way wall-clock time can change the result.  [Exact] runs
    TRW-S + ICM, with the same budget, when its plan does not fit or
    the budget runs out while it plans or eliminates.  Failed stage
    attempts are retried and degraded.  The returned
    assignment is the best found, when the budget expires the best so
    far, and always feasible with respect to the encoding.

    [jobs] parallelizes the solvers that have a job-count-invariant
    parallel form over the {!Netdiv_par.Pool} domain pool: TRW-S solves
    connected components on separate domains ({!Netdiv_mrf.Trws.solve});
    [Icm] becomes multi-restart ICM; [Sa] fans its restarts out; [Exact]
    passes it to its TRW-S + ICM fallback.  The
    assignment is identical for every [jobs] value; omitting [jobs] runs
    the serial schedules.

    [checkpoint] names a file that receives an atomic best-labeling
    snapshot ({!Serial.checkpoint_to_string}) every time the harness's
    best strictly improves; a failed snapshot write warns on stderr and
    marks the event stream with a [checkpoint-failed] instant, but never
    aborts the solve.
    [resume] reads such a file and warm-starts the solve from it — an
    unreadable, corrupt or wrong-encoding checkpoint warns and starts
    fresh.  Resuming an interrupted run with the same parameters yields
    the same assignment as the uninterrupted run: the stage warm-starts
    from the checkpointed labeling, and the best-so-far merge prefers the
    newest equal-energy labeling. *)

val refine :
  ?prconst:float ->
  ?big_m:float ->
  ?preference:(host:int -> service:int -> product:int -> float) ->
  ?edge_weight:(int -> int -> float) ->
  previous:Assignment.t ->
  Network.t ->
  Constr.t list ->
  report
(** Incremental re-optimization after a small change (a new constraint, a
    changed candidate list): the [Icm] solve of {!run}, warm-started from
    [previous] instead of solving from scratch.  Slots whose previous
    product is no longer selectable fall back to their first candidate
    before polishing.  Much faster than {!run} for small perturbations,
    with no dual bound. *)

val solve_encoded_outcome :
  ?solver:solver ->
  ?budget:float ->
  ?jobs:int ->
  ?checkpoint:string ->
  ?resume:string ->
  Encode.encoded ->
  Netdiv_mrf.Solver.result
  * Netdiv_mrf.Runner.outcome
  * (string * float) list
  * int
(** The solve step of {!run} on a pre-built encoding (used by the
    scalability benches, which time encode and solve separately): the
    result, the outcome, the stage timing and the retry count (the
    anytime-quality data the benches record).  The options are as in
    {!run}. *)

val solver_name : solver -> string

val pp_report : Format.formatter -> report -> unit
(** [energy E (bound B, gap G), constraints satisfied, Ts]: the gap is
    {!Netdiv_mrf.Solver.optimality_gap} of the solve, ["unbounded"]
    without a bound.  It makes no optimality claim;
    {!Netdiv_mrf.Solver.certified} decides that. *)
