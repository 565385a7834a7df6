(** Structural statistics of host graphs.

    Used to characterize generated workloads (degree spread, clustering,
    path lengths) when comparing uniform-random and structured topologies
    in the ablation benches. *)

val degree_histogram : Graph.t -> int array
(** [histogram.(d)] = number of nodes of degree [d]; length is
    [max_degree + 1] (empty graphs give [[|n|]] at degree 0). *)

val density : Graph.t -> float
(** Edges over possible edges; 0 for graphs with fewer than 2 nodes. *)

val local_clustering : Graph.t -> int -> float
(** Fraction of a node's neighbour pairs that are themselves connected;
    0 for nodes of degree < 2. *)

val average_clustering : Graph.t -> float
(** Mean local clustering over all nodes (0 for the empty graph). *)

val diameter : ?sample:int -> ?rng:Random.State.t -> Graph.t -> int
(** Longest shortest path within the largest connected component.  Exact
    (all-sources BFS) when the graph has at most [sample] nodes or no
    [rng] is given; otherwise a lower bound from [sample] random BFS
    sources (default sample 64). *)

val average_path_length : ?sample:int -> ?rng:Random.State.t -> Graph.t -> float
(** Mean hop distance over reachable pairs, sampled like {!diameter};
    0 when no pair is connected. *)
