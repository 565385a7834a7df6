(** Seeded random and deterministic graph generators.

    Used by the scalability study (Section VIII), which optimizes randomly
    generated networks parameterized by host count and average degree.  All
    generators are deterministic given the [Random.State.t]. *)

val gnm : rng:Random.State.t -> n:int -> m:int -> Graph.t
(** [gnm ~rng ~n ~m] samples a uniform simple graph with [n] nodes and
    exactly [m] distinct edges.
    @raise Invalid_argument if [m] exceeds [n*(n-1)/2]. *)

val avg_degree : rng:Random.State.t -> n:int -> degree:int -> Graph.t
(** [avg_degree ~rng ~n ~degree] is the paper's random-network model: a
    uniform graph whose average degree is [degree], i.e. {!gnm} with
    [m = n * degree / 2]. *)

val connected_avg_degree : rng:Random.State.t -> n:int -> degree:int -> Graph.t
(** Like {!avg_degree} but guaranteed connected: a uniform random spanning
    tree is laid down first and the remaining edges are sampled uniformly.
    Requires [degree >= 2] so that [m >= n-1]. *)

val iter_connected_avg_degree :
  rng:Random.State.t -> n:int -> degree:int -> (int -> int -> unit) -> unit
(** Streaming form of {!connected_avg_degree}: calls [f u v] (with
    [u < v]) once per accepted edge instead of materializing a
    {!Graph.t}, so large instances can be emitted straight into a
    compact encoder without a resident edge list.  Draws the same RNG
    sequence as {!connected_avg_degree} — the same seed produces the
    same edge set either way. *)

val line : int -> Graph.t
(** Path graph [0 - 1 - ... - (n-1)]. *)

val cycle : int -> Graph.t
val star : int -> Graph.t
(** Node 0 connected to all others. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]: 4-connected lattice, node [r*cols + c]. *)

val complete : int -> Graph.t
