(** Conditional probability tables as {!Netdiv_graph.Bucket} factors:
    the tables behind exact inference in both {!Bn} (every variable
    binary) and {!Dbn} (the explicit attack BN of Section VI, whose
    attacker-choice nodes range over "which product to exploit, or stay
    silent"). *)

val max_entries : int
(** The table-size limit, 2^25 entries (25 binary variables): of a
    tabulated CPT, and of each table {!Elim} plans. *)

val of_cpd :
  card:(int -> int) ->
  int ->
  parents:int array ->
  (int array -> int -> float) ->
  Netdiv_graph.Bucket.factor
(** [of_cpd ~card node ~parents p]: the CPT of [node] as a factor over it
    and its [parents], where variable [v] has [card v >= 1] states and
    [p parent_values k] = P(node = k | parents), [parent_values] aligned
    with [parents] (a buffer reused between calls).  The table holds one
    row of [card node] entries per parent configuration, the first parent
    fastest, as {!Dbn} stores its CPTs; [p] is called row by row, and
    within a row for [k = 0, 1, ...] in order.
    @raise Invalid_argument when the table would exceed {!max_entries}. *)
