(** Exact MAP by branch-and-bound.

    Depth-first search over variable assignments with an admissible lower
    bound (assigned cost, plus each unassigned node's best label against
    its assigned neighbours, plus each fully-unassigned edge's best pair),
    warm-started by TRW-S + ICM.  Exponential in the worst case, and
    only small models finish: on [Workload.instance] with degree 4 and 3
    services it certifies 8 hosts (24 variables, 663,293 nodes) but
    stops at its node limit at 9 to 12 hosts.  On the three case-study
    encodings (63 variables: no constraints, C1, C2) it explores all
    2,000,000 nodes in 5-9 s on a 2-core Xeon and returns
    [converged = false] with the warm start unchanged; on C2 that is
    45.1274, while the ICM pipeline finds 44.5831.

    Variables are explored in a connectivity-first order (each next
    variable maximizes edges into the assigned set) so the bound tightens
    early. *)

type config = {
  node_limit : int;   (** search nodes explored before giving up *)
}

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  Mrf.t ->
  Solver.result
(** [config] defaults to 2,000,000 nodes.  [solve mrf] returns the best
    labeling found; [converged] is [true] iff the search completed, in
    which case the labeling is a proven global optimum and
    [lower_bound = energy].  On hitting the node limit, the incumbent (at
    least as good as TRW-S + ICM) is returned with the warm-start's dual
    bound.

    [interrupt] is threaded through the TRW-S/ICM warm start and then
    polled at every node expansion; on [true] the incumbent is returned
    with [converged = false]. *)
