(** Factors over discrete variables: the one table type behind exact
    inference in both {!Bn} (every variable binary) and {!Dbn} (the
    explicit attack BN of Section VI, whose attacker-choice nodes range
    over "which product to exploit, or stay silent").

    Assignments are indexed mixed-radix: the first (lowest-id) variable
    varies fastest.  At cardinality 2 this is the bit index, variable
    [i] of the scope on bit [i].  {!product}, {!sum_out} and {!restrict}
    walk the tables with odometers and (high, low) block loops, so no
    entry pays a division. *)

type t

val vars : t -> (int * int) array
(** (variable id, cardinality) pairs, sorted by id; do not mutate. *)

val max_entries : int
(** The table-size limit, 2^25 entries (25 binary variables). *)

val of_fun : vars:(int * int) array -> (int array -> float) -> t
(** [of_fun ~vars f] tabulates [f], which receives one value per sorted
    variable.
    @raise Invalid_argument on duplicate ids, cardinality < 1, or a
    table above {!max_entries}. *)

val of_cpd :
  card:(int -> int) ->
  int ->
  parents:int array ->
  (int array -> int -> float) ->
  t
(** [of_cpd ~card node ~parents p]: the CPT of [node] as a factor over it
    and its [parents], where variable [v] has [card v] states and
    [p parent_values k] = P(node = k | parents), [parent_values] aligned
    with [parents] (a buffer reused between calls).
    @raise Invalid_argument as {!of_fun}. *)

val constant : float -> t

val product : t -> t -> t
(** Pointwise product over the union of the variable sets.
    @raise Invalid_argument when a shared variable disagrees on
    cardinality or the result would exceed {!max_entries}. *)

val sum_out : t -> int -> t
(** Marginalizes one variable (no-op if absent). *)

val restrict : t -> int -> int -> t
(** [restrict f var value] conditions on [var = value], dropping the
    variable (no-op if absent).
    @raise Invalid_argument if the value is out of range. *)

val value : t -> (int * int) list -> float
(** Entry for a full assignment of the factor's variables. *)

val total : t -> float

val equal : ?eps:float -> t -> t -> bool
