(** Exact MAP by min-sum variable elimination.

    One factor per unary and per edge table, eliminated along the greedy
    smallest-table order of {!Netdiv_graph.Elim_order.plan}, each
    variable keeping its argmin table; a traceback in reverse order reads
    the labeling off those tables, breaking ties to the lowest label.
    Cost follows the planned tables, not the model size: the case-study
    encodings solve in about a millisecond, while the dense synthetic
    workloads are rejected after planning a few dozen variables. *)

val solve : ?interrupt:(unit -> bool) -> Mrf.t -> Solver.result option
(** [solve mrf] is a global minimizer of [mrf] with [energy] its
    {!Mrf.energy}, [lower_bound = energy] and [converged = true]: a
    certified optimum.  [None] when the planned tables, summed, hold
    more than 2{^ 22} entries (the argmin tables are kept until the
    traceback, so the total counts, not the largest table), or when
    [interrupt] returns [true]; it is polled once per variable while
    planning and once per variable eliminated. *)
