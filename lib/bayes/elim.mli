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
      planned table above the factor limit raises before any table is
      allocated.
    + {b Execution.}  Along the order, the factors touching each variable
      are multiplied and the variable summed out. *)

module type FACTOR = sig
  type t

  val max_entries : int
  (** The largest table the module builds. *)

  val product : t -> t -> t
  val sum_out : t -> int -> t

  val restrict : t -> int -> int -> t
  (** [restrict f var state]; a no-op when [var] is absent. *)

  val total : t -> float
end

module Make (F : FACTOR) : sig
  val marginal :
    n:int ->
    parents:(int -> int array) ->
    card:(int -> int) ->
    factor:(int -> F.t) ->
    (int * int) list ->
    int ->
    float array
  (** [marginal ~n ~parents ~card ~factor evidence query]: the
      distribution of [query] given [evidence] (node, state) in the
      topologically numbered network whose node [i] has [parents i],
      [card i] states and the CPT [factor i].  Evidence on the query is
      the point mass on the observed state.
      @raise Invalid_argument if the evidence has probability zero or a
      planned table exceeds [F.max_entries]. *)
end
