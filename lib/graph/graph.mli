(** Undirected simple graphs over nodes [0 .. n-1].

    The paper models host connectivity with undirected edges (Section II,
    "we use more general undirected edges to symbolize the connections").
    This module stores a frozen compressed-adjacency representation suited
    to the message-passing sweeps of the MRF solver. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph with [n] nodes.  Self-loops are
    rejected; duplicate edges (in either orientation) are collapsed.
    @raise Invalid_argument on out-of-range endpoints or [n < 0]. *)

val n_nodes : t -> int
val n_edges : t -> int

val degree : t -> int -> int

val neighbors : t -> int -> int array
(** Sorted array of neighbours.  The returned array is owned by the graph;
    do not mutate it. *)

val mem_edge : t -> int -> int -> bool

val edges : t -> (int * int) array
(** All edges with [u < v], sorted lexicographically. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Iterates each undirected edge once, with [u < v]. *)

val fold_neighbors : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

val max_degree : t -> int
val avg_degree : t -> float
