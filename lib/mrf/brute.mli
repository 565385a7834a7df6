(** Exhaustive MAP solver for tiny models.

    Enumerates every labeling; used by the test suite to certify that
    TRW-S reaches the global optimum on small instances. *)

val solve :
  ?limit:int ->
  ?interrupt:(unit -> bool) ->
  Mrf.t ->
  Solver.result
(** [solve ?limit mrf] enumerates all labelings.

    [interrupt] is polled every 1024 labelings; on [true] the best
    labeling so far is returned with [converged = false] and
    [lower_bound = neg_infinity] (an incomplete enumeration certifies
    nothing).
    @raise Invalid_argument when the search space exceeds [limit]
    (default [2_000_000]). *)

val search_space : Mrf.t -> float
(** Product of label counts, as a float to avoid overflow. *)
