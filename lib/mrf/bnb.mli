(** Exact MAP by branch-and-bound.

    Depth-first search over variable assignments with an admissible lower
    bound (assigned cost, plus each unassigned node's best label against
    its assigned neighbours, plus each fully-unassigned edge's best pair),
    warm-started by TRW-S + ICM.  Exponential in the worst case, but on
    similarity-table instances of case-study size it proves global
    optimality in milliseconds — turning the approximate solver's answer
    into a certificate.

    Variables are explored in a connectivity-first order (each next
    variable maximizes edges into the assigned set) so the bound tightens
    early. *)

type config = {
  node_limit : int;   (** search nodes explored before giving up *)
}

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?on_progress:(iter:int -> energy:float -> bound:float -> unit) ->
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
    with [converged = false].  [on_progress] fires every 4096 expansions
    and once at the end, with [iter] = nodes explored. *)
