(** Bayesian networks over boolean variables.

    Nodes are added in topological order (parents must already exist), so a
    network is acyclic by construction.  Two conditional distributions
    cover everything the attack models need:

    - {!constructor-Table}: explicit [P(node = true)] per parent
      configuration;
    - {!constructor-Noisy_or}: independent causes — parent [i], when true,
      activates the node with probability [rates.(i)]; a [leak] fires
      unconditionally.  This is the standard model of independent
      compromise attempts along incoming attack edges. *)

type cpd =
  | Table of float array
      (** [P(true)] per parent configuration; index bit [i] is parent [i]
          (first parent least significant); length [2^(#parents)] *)
  | Noisy_or of { rates : float array; leak : float }

type t

val create : unit -> t

val add : t -> name:string -> parents:int array -> cpd -> int
(** Appends a node and returns its id.  Parents must be existing node ids;
    probabilities must lie in [0,1].
    @raise Invalid_argument otherwise. *)

val n_nodes : t -> int
val parents : t -> int -> int array
val find : t -> string -> int option

val prob_true : t -> int -> bool array -> float
(** [prob_true bn node parent_values]: CPD evaluation; [parent_values]
    aligns with [parents bn node]. *)

val node_factor : t -> int -> Netdiv_graph.Bucket.factor
(** The CPT of a node as a factor over the node and its parents, every
    variable binary (state 1 = true), tabulated by {!Mfactor.of_cpd}. *)
