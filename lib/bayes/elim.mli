(** Exact marginals by variable elimination: the one inference core
    behind {!Infer.exact_marginal} and {!Dbn.marginal}.  A query runs in
    three steps.
    + {b Relevance pruning.}  Only the ancestral closure of the query and
      the evidence is kept: every other node is barren and sums out to 1
      (Baker & Boult, UAI 1990).
    + {b Planning.}  The whole elimination order is fixed on the moral
      graph of that subnetwork by {!Netdiv_graph.Elim_order.plan}, with
      fill-in, by the greedy rule: next is the variable whose table
      (itself and its neighbours) is smallest, ties to the lowest id.  A
      planned table above {!Mfactor.max_entries} raises before any table
      is allocated.
    + {b Execution.}  Each CPT, with its observed variables fixed by an
      offset into its table, goes to {!Netdiv_graph.Bucket.eliminate} in
      sum-product; what is left over lies over the query alone, and its
      product, normalized, is the answer. *)

val marginal :
  n:int ->
  parents:(int -> int array) ->
  card:(int -> int) ->
  factor:(int -> Netdiv_graph.Bucket.factor) ->
  (int * int) list ->
  int ->
  float array
(** [marginal ~n ~parents ~card ~factor evidence query]: the distribution
    of [query] given [evidence] (node, state) in the topologically
    numbered network whose node [i] has [parents i], [card i] states and
    the CPT [factor i] over [i] and its parents.  Evidence on the query
    is the point mass on the observed state.
    @raise Invalid_argument if the evidence has probability zero or a
    state out of range, or a planned table exceeds
    {!Mfactor.max_entries}. *)
