(** Sequential tree-reweighted message passing (TRW-S).

    The solver the paper uses for optimal diversification (Section V-C),
    after Kolmogorov's convergent TRW-S with monotonic-chain weights: nodes
    are processed in index order; a forward sweep updates messages toward
    higher-indexed neighbours, a backward sweep mirrors it.  Each node's
    aggregated cost is weighted by [1 / max(#lower neighbours, #higher
    neighbours)], which makes the dual bound non-decreasing.

    The reported lower bound is the reparameterization bound
    [sum_i min θ̂_i + sum_e min θ̂_e], valid for any message state and tight
    on trees.  Labelings are decoded greedily in node order, conditioning on
    already-decoded lower neighbours (Kolmogorov's scheme). *)

type config = {
  max_iters : int;       (** cap on forward+backward sweep pairs *)
  tolerance : float;     (** stop when the bound improves less than this *)
  patience : int;        (** ... for this many consecutive iterations *)
  bound_every : int;     (** compute bound/decode every k iterations *)
}

val default_config : config
(** 100 iterations, tolerance 1e-7, patience 3, bound every iteration. *)

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?jobs:int ->
  ?zone_of:int array ->
  Mrf.t ->
  Solver.result
(** Runs TRW-S and returns the best decoded labeling encountered, its
    energy ([Mrf.energy] of that labeling), and the best dual bound.

    {b Schedule.}  The inputs choose it.
    - The zone map is [zone_of] when given (any non-negative per-node
      ids, renumbered densely in order of first appearance); otherwise,
      with [jobs], the connected components, numbered the same way;
      otherwise a single zone.  Without [jobs] and [zone_of] no
      component scan runs and nothing extra is allocated.
    - {e One zone, with [jobs], at least 4096 nodes}: partitioned
      sweeps.  The node order splits into 16 contiguous partitions;
      each half-sweep runs the intra-partition updates in parallel on a
      {!Netdiv_par.Pool.Team} (a message between two nodes of one
      partition is written by that partition only), then recomputes
      every cross-partition message sequentially in global node order.
      The bound parallelizes the same way (per-node aggregation, then
      per-chain DP) and is summed in chain order.
    - {e One zone otherwise}: the sequential sweep described above.
    - {e Several zones}: Lagrangian dual decomposition.  Each zone slave
      owns its interior edges, unaries and the running boundary
      penalties; every boundary edge (u, v) is a two-variable slave
      [min pot(xu, xv) - lam_u(xu) - lam_v(xv)].  A round runs every
      zone slave's sequential sweep as one chunk of
      {!Netdiv_par.Pool.parallel_for} (small splits run inline; an
      injected [pool.chunk] crash is recovered), then reconciles every
      boundary edge in global edge order: the multipliers of a
      disagreeing endpoint move one diminishing subgradient step
      ([0.25 / round]).  The bound is [sum of zone bounds + sum of
      edge-slave minima], a valid lower bound on the optimum; the
      labeling is the best concatenation of zone labelings seen.  At
      most 8 rounds run, fewer when every boundary edge agrees and all
      zones converged, or when the primal-dual gap falls under
      [config.tolerance]; [iterations] counts rounds.  A map without
      boundary edges (the component split) stops after round 1: the
      result is the zones' merged solve, [iterations] is their largest
      sweep count and [converged] requires every zone to converge.

    {b Determinism.}  The result is a function of the model and the zone
    map only, never of [jobs]: partition and zone boundaries depend on
    the model alone, parallel writes land in disjoint slots, and every
    reduction runs in a fixed order.  A single-zone map runs the
    one-zone schedule: bit for bit the sequential sweep when [jobs] is
    absent or the model has fewer than 4096 nodes.

    [interrupt] is polled once per sweep pair (by every zone solve) and
    between zone rounds from round 2 on, so a zoned solve always
    returns a scored labeling; when it returns [true] the solver stops
    and returns the best labeling, energy and bound found so far (the
    anytime property — an initial decode happens before the first
    sweep, so the labeling is always feasible).  It must be safe to
    call from several domains.

    @raise Invalid_argument when [zone_of]'s length is not the node
    count or it holds a negative id. *)

val solve_zoned :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?jobs:int ->
  ?zone_of:int array ->
  Mrf.t ->
  Solver.result
(** The same function as {!solve}. *)
