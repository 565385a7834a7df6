(** Sequential tree-reweighted message passing (TRW-S).

    The solver the paper uses for optimal diversification (Section V-C),
    after Kolmogorov's convergent TRW-S with monotonic-chain weights: nodes
    are processed in index order; a forward sweep updates messages toward
    higher-indexed neighbours, a backward sweep mirrors it.  Each node's
    aggregated cost is weighted by [1 / max(#lower neighbours, #higher
    neighbours)], which makes the dual bound non-decreasing.

    The reported lower bound is the monotonic-chain bound: the energy is
    split over chains of edges of increasing node index (node costs
    weighted by γ, edge costs reparameterized), and the bound sums each
    chain's minimum, found by dynamic programming, in chain order, plus
    the unary minimum of every node without edges.  It is valid for any
    message state and tight at TRW-S fixed points on trees.  Labelings
    are decoded greedily in node order, conditioning on already-decoded
    lower neighbours (Kolmogorov's scheme). *)

val solve :
  ?max_iters:int ->
  ?interrupt:(unit -> bool) ->
  ?jobs:int ->
  ?zone_of:int array ->
  Mrf.t ->
  Solver.result
(** Runs TRW-S and returns the best decoded labeling encountered, its
    energy ([Mrf.energy] of that labeling), and the best dual bound.

    {b Stopping.}  At most [max_iters] (default 100) forward+backward
    sweep pairs; the bound is computed and a labeling decoded after
    every pair.  The solve converges once the best energy minus the best
    bound falls under 1e-7, or once neither has improved by 1e-7 for 3
    consecutive pairs.

    {b Schedule.}  The zone map chooses it.
    - The zone map is [zone_of] when given (any non-negative per-node
      ids, renumbered densely in order of first appearance); otherwise,
      with [jobs], the connected components, numbered the same way;
      otherwise a single zone.  Without [jobs] and [zone_of] no
      component scan runs and nothing extra is allocated.
    - {e One zone}: the sequential sweep described above, whatever
      [jobs] is.
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
      zones converged, or when the primal-dual gap falls under 1e-7;
      [iterations] counts rounds.  A map without boundary edges (the
      component split) stops after round 1: the result is the zones'
      merged solve, [iterations] is their largest sweep count and
      [converged] requires every zone to converge.

    {b Determinism.}  The result is a function of the model and the zone
    map only, never of [jobs]: each zone solve writes its own result
    slot, and the reconciliation runs in global boundary-edge order.  A
    single-zone map is bit for bit the sequential sweep, with or without
    [jobs].

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
  ?max_iters:int ->
  ?interrupt:(unit -> bool) ->
  ?jobs:int ->
  ?zone_of:int array ->
  Mrf.t ->
  Solver.result
(** The same function as {!solve}. *)
