(** Encoding the diversification problem as a discrete MRF (Section V).

    One MRF variable per (host, service) slot; its labels are the slot's
    candidate products after applying [Fix] constraints.  Costs:

    - unary: the constant preference cost [prconst] (the paper's
      [Pr_const]), or a caller-supplied preference function;
    - one pairwise edge per (network link, shared service): the
      vulnerability similarity of the assigned products — term (3);
    - one pairwise edge per applicable combination constraint, charging
      [big_m] to forbidden label pairs — the paper's ∞-cost encoding of
      Section V-A, realized as a finite big-M.

    Pairwise matrices are interned so that the thousands of edges carrying
    the same service similarity share one array. *)

type encoded

val default_prconst : float
(** The paper's [Pr_const] (0.01). *)

val encode :
  ?prconst:float ->
  ?big_m:float ->
  ?preference:(host:int -> service:int -> product:int -> float) ->
  ?edge_weight:(int -> int -> float) ->
  Network.t ->
  Constr.t list ->
  encoded
(** Builds the MRF.  Defaults: [prconst = 0.01], [big_m = 1e6].

    [edge_weight u v] scales the similarity cost of the network link
    (u,v) (default 1 everywhere); weighting the links around critical
    assets higher buys extra diversity exactly where a worm must pass to
    reach them (defense in depth).  Weights must be non-negative.
    @raise Invalid_argument when a constraint fails {!Constr.validate},
    two [Fix] constraints clash on a slot, or a weight is negative. *)

val mrf : encoded -> Netdiv_mrf.Mrf.t

val n_vars : encoded -> int

val var_of : encoded -> host:int -> service:int -> int option
(** MRF variable of a slot. *)

val slot_of : encoded -> int -> int * int
(** (host, service) of a variable. *)

val labels_of : encoded -> int -> int array
(** Products selectable at a variable, indexed by MRF label. *)

val decode : encoded -> int array -> Assignment.t
(** Maps an MRF labeling back to a product assignment. *)

val labeling_of : encoded -> Assignment.t -> int array
(** Inverse of {!decode}.
    @raise Invalid_argument if the assignment picks a product excluded by
    the encoding (e.g. conflicting with a [Fix]). *)

val assignment_energy : encoded -> Assignment.t -> float
(** MRF energy of an assignment under this encoding. *)

val edge_counts : Network.t -> Constr.t list -> int * int
(** [(links, combos)]: the edges {!encode} adds, one per (network link,
    shared service) and one per combination constraint and host in its
    scope that runs both of the constraint's services.  Their sum is the
    encoded model's {!Netdiv_mrf.Mrf.n_edges}; {!encode} reserves that
    many builder slots up front. *)

val estimate_words : Network.t -> Constr.t list -> int
(** Predicted peak words ({!Netdiv_mrf.Mrf.estimate_words}) for encoding
    this network and solving it in one zone, computed without building
    anything.  Counts the exact slot and edge totals ({!edge_counts});
    the table count is an upper bound (one matrix per service plus one
    per combination edge), so the estimate errs high when constraints
    repeat. *)
