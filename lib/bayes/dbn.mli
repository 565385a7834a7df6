(** Bayesian networks over multi-valued discrete variables.

    The multi-valued counterpart of {!Bn}, needed for the explicit attack
    BN of Section VI whose attacker-choice nodes have one state per
    exploitable product plus "silent".  Nodes are added in topological
    order; CPDs are given as functions and tabulated on the spot. *)

type t

val create : unit -> t

val add :
  t ->
  name:string ->
  card:int ->
  parents:int array ->
  (int array -> int -> float) ->
  int
(** [add t ~name ~card ~parents cpd] appends a node with [card] states;
    [cpd parent_values k] is P(node = k | parents), checked to be
    non-negative and to sum to 1 (±1e-6) over [k] for every parent
    configuration.
    @raise Invalid_argument on violations, bad parents, or [card < 1]. *)

val n_nodes : t -> int
val card : t -> int -> int

val prob : t -> int -> int array -> int -> float
(** [prob t node parent_values k] = P(node = k | parents). *)

val marginal : ?evidence:(int * int) list -> t -> int -> float array
(** Exact marginal distribution of a node by variable elimination over
    its ancestors and those of the evidence only ({!Elim}).  Evidence on
    the node itself yields the point mass on the observed state.
    @raise Invalid_argument if the evidence has probability zero, or if
    the planned elimination needs a table above 2^24 entries: checked
    before any table is allocated. *)

val brute_marginal : ?evidence:(int * int) list -> t -> int -> float array
(** The same by full joint enumeration (testing only).
    @raise Invalid_argument when the joint exceeds 2^22 entries. *)

val sample : rng:Random.State.t -> t -> int array
(** One ancestral sample. *)
