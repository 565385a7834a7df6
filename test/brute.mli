(** Exhaustive MAP solver for tiny models: the test suite's oracle.

    Enumerates every labeling; the tests use it to certify that the
    solvers reach, or stay above, the global optimum on small
    instances. *)

open Netdiv_mrf

val solve : ?limit:int -> Mrf.t -> Solver.result
(** [solve ?limit mrf] enumerates all labelings.  The result's
    [lower_bound] is its energy and [converged] is [true].
    @raise Invalid_argument when the search space exceeds [limit]
    (default [2_000_000]). *)

val search_space : Mrf.t -> float
(** Product of label counts, as a float to avoid overflow. *)
