(** Inference over boolean Bayesian networks.

    Exact marginals via variable elimination ({!Elim}, on binary CPTs
    from {!Mfactor.of_cpd}), plus Monte-Carlo estimators (forward
    sampling, likelihood weighting) for networks whose treewidth defeats
    exact elimination. *)

val exact_marginal : ?evidence:(int * bool) list -> Bn.t -> int -> float
(** [exact_marginal bn node] = P(node = true | evidence) by variable
    elimination over the ancestors of [node] and of the evidence only
    ({!Elim}).  Evidence on [node] itself yields 1 or 0.
    @raise Invalid_argument if the evidence has probability zero, or if
    the planned elimination needs a table above {!Mfactor.max_entries}
    (2^25 entries, 25 binary variables): checked before any table is
    allocated. *)

val joint_brute_force : ?evidence:(int * bool) list -> Bn.t -> int -> float
(** Same query by full joint enumeration — O(2^n), for testing only.
    @raise Invalid_argument beyond 20 nodes. *)

val forward_sample : rng:Random.State.t -> Bn.t -> bool array
(** One ancestral sample of all nodes. *)

val estimate_marginal :
  rng:Random.State.t ->
  samples:int ->
  ?evidence:(int * bool) list ->
  Bn.t ->
  int ->
  float
(** Likelihood-weighted estimate of P(node = true | evidence). *)
