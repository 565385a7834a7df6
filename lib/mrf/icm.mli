(** Iterated conditional modes (greedy local search baseline).

    Starting from a unary-greedy labeling (or a supplied one), repeatedly
    move each node to the label minimizing its local energy until a full
    sweep makes no change.  Fast, bound-free, and easily stuck in local
    minima — a natural lower baseline for the solver ablation. *)

type config = { max_sweeps : int }

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?init:int array ->
  Mrf.t ->
  Solver.result
(** [config] defaults to 100 sweeps.  Each sweep visits the nodes in
    order.  A node's local energy at every label is its unary plus the
    pairwise terms of its [Mrf.Compact] incidence slice, added in slice
    order.  The node keeps its label unless another is strictly cheaper;
    among the cheapest others it takes the lowest.  A sweep evaluates
    only the nodes not evaluated since one of their neighbours moved
    (every node in the first sweep): any other node would keep its
    label, so the result is that of full sweeps.  The node loop
    allocates nothing.

    [interrupt] is polled once per sweep; on [true] the current labeling
    (greedy moves never increase energy) is returned. *)
