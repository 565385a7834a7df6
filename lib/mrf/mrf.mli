(** Discrete pairwise Markov Random Fields (energy form).

    A model over nodes [0..n-1]; node [i] takes a label in
    [0 .. label_count i - 1].  The energy of a labeling [x] is

    {v E(x) = sum_i unary_i(x_i) + sum_{e=(u,v)} pairwise_e(x_u, x_v) v}

    which is the optimization function (1) of the paper.  MAP inference
    minimizes [E].  Models are assembled with {!Builder} and frozen; solvers
    ({!Trws}, {!Icm}, {!Sa}, {!Exact}) operate on the frozen form.

    Pairwise cost arrays are row-major by the {e first} endpoint's label:
    entry [x_u * k_v + x_v].  The arrays are {e not} copied, and
    {!Builder.build} hash-conses them: edges whose matrices have equal
    content share one interned table, and all distinct tables are packed
    into a single flat array for the solver hot loops.  Memory for the
    pairwise terms is therefore O(distinct tables · L²) instead of
    O(edges · L²) — in a diversification MRF almost every edge carries
    one of a handful of similarity tables. *)

type t

module Builder : sig
  type b

  val create : label_counts:int array -> b
  (** One entry per node; every count must be at least 1. *)

  val reserve_edges : b -> int -> unit
  (** Presizes the builder's compact edge slots (three ints per edge,
      otherwise grown by doubling) — call with the expected edge count
      before streaming a large instance so the builder never
      reallocates.  Never shrinks. *)

  val add_unary : b -> node:int -> label:int -> float -> unit
  (** Adds (accumulates) a cost onto one unary entry. *)

  val set_unary : b -> node:int -> float array -> unit
  (** Replaces the whole unary vector of [node]; length must equal the
      node's label count. *)

  val add_edge : b -> int -> int -> float array -> unit
  (** [add_edge b u v cost] adds an edge with pairwise cost matrix [cost]
      of size [k_u * k_v], row-major by [u]'s label.  The matrix is shared,
      not copied, and hash-consed immediately: an edge whose matrix has
      the shape and content of an earlier one stores only the earlier
      table's id, so a streamed million-edge instance holds three ints
      per edge plus one table per {e distinct} matrix.  Parallel edges
      are allowed (their costs add).
      @raise Invalid_argument on self-edges or size mismatch. *)

  val build : b -> t
  (** Freezes the model.  The builder must not be reused afterwards. *)
end

val n_nodes : t -> int
val n_edges : t -> int
val label_count : t -> int -> int

val max_label_count : t -> int

val unary : t -> node:int -> label:int -> float

val edge_endpoints : t -> int -> int * int
val edge_cost : t -> int -> float array
(** The interned pairwise matrix of an edge — do not mutate.  Edges
    whose matrices were equal at {!Builder.add_edge} time return the
    {e same} (physically equal) array. *)

val edge_table_id : t -> int -> int
(** Id of the interned table carried by an edge, in
    [0 .. n_tables - 1].  Two edges share an id iff their cost matrices
    had equal content. *)

val n_tables : t -> int
(** Number of distinct pairwise tables after interning. *)

val pot_words : t -> int
(** Total [float] entries stored for pairwise tables after interning. *)

val pot_words_unshared : t -> int
(** Total [float] entries the pairwise tables would occupy without
    interning (one copy per edge); [pot_words t <=
    pot_words_unshared t] always holds. *)

val energy : t -> int array -> float
(** [energy t x] evaluates E(x).
    @raise Invalid_argument if [x] has wrong length or out-of-range labels. *)

val incident : t -> int -> (int * bool) array
(** [incident t i] lists the edges touching node [i] as [(edge, i_is_u)]
    pairs, sorted by the id of the opposite endpoint.  Every call
    allocates a fresh array of boxed pairs, so solver loops read the
    same slice from [Compact] instead; this view is for tests and
    one-off inspection. *)

val opposite : t -> edge:int -> int -> int
(** [opposite t ~edge i] is the other endpoint of [edge]. *)

val validate_labeling : t -> int array -> unit
(** @raise Invalid_argument when the labeling is malformed. *)

val with_unaries : t -> float array -> t
(** [with_unaries t u] is [t] with its unary slab replaced by [u]
    (length must equal the current slab's).  Every other array is
    shared, and [u] is used directly, not copied — O(1) words.  This is
    the reparameterization hook the zoned solver uses to push per-round
    Lagrangian penalties into a zone submodel without rebuilding it. *)

(** {2 Memory accounting} *)

type footprint = {
  f_nodes : int;
  f_edges : int;
  f_tables : int;  (** distinct interned pairwise tables *)
  f_words : int;  (** resident words of the frozen compact model *)
  f_words_per_node : float;
  f_words_per_edge : float;
  f_flat_words : int;
      (** words the same model would occupy in the pre-compact layout
          (boxed per-edge records, unshared cost matrices, per-node
          adjacency lists of boxed pairs) *)
}

val footprint : t -> footprint
(** Exact word counts of the frozen model (headers included, floats
    unboxed), plus what the replaced boxed layout would have used — the
    compaction win is [f_flat_words / f_words]. *)

val pp_footprint : Format.formatter -> footprint -> unit

val estimate_words : nodes:int -> edges:int -> max_labels:int -> tables:int -> int
(** Pre-build sizing for fail-fast memory budgeting: words a compact
    model of the given shape will occupy {e plus} the TRW-S solve-time
    slabs (messages, reparameterized unaries, bound aggregation) — the
    peak commitment of building and solving the instance.  Multiply by
    8 for bytes. *)

(**/**)

(** Flat CSR views for the solvers in this library: zero-allocation
    access to the frozen storage.  [row_ptr] is [i_inc_off], and for an
    incidence slot [k] in [row_start t i .. row_stop t i - 1],
    {!Compact.neighbor} is the opposite endpoint (one load from the
    neighbor column), {!Compact.edge} the edge id and
    {!Compact.node_is_u} the orientation.  All arrays are owned by the
    model — read-only, safe to share across domains. *)
module Compact : sig
  type arrays = {
    i_labels : int array;      (** label count per node *)
    i_unary_off : int array;   (** n+1 prefix sums over labels *)
    i_unary : float array;     (** flat unary costs *)
    i_eu : int array;          (** edge endpoints, u side *)
    i_ev : int array;          (** edge endpoints, v side *)
    i_etab : int array;        (** per-edge interned table id *)
    i_pot_off : int array;     (** n_tables+1 prefix sums into [i_pot] *)
    i_pot : float array;       (** flat concatenation of distinct tables *)
    i_inc_off : int array;     (** n+1 CSR row pointers into [i_inc] *)
    i_inc : int array;         (** incidences: edge*2 + (1 if node=u) *)
    i_col : int array;         (** opposite endpoint per incidence slot *)
  }

  val arrays : t -> arrays
  (** The solvers destructure this once per solve and then index raw
      arrays in their hot loops.  The pairwise entry of edge [e] for
      labels [(xu, xv)] is
      [i_pot.(i_pot_off.(i_etab.(e)) + xu * k_v + xv)]. *)

  val degree : t -> int -> int
  val row_start : t -> int -> int
  val row_stop : t -> int -> int

  val neighbor : t -> int -> int
  (** Opposite endpoint at incidence slot [k] — keep the result scalar
      in sweep bodies; packing it into a tuple or record re-boxes what
      this accessor exists to keep flat (netdiv-lint flags it). *)

  val edge : t -> int -> int
  val node_is_u : t -> int -> bool
end

(**/**)
