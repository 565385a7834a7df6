(** Minimum cuts between hosts — segmentation analysis.

    A worm must cross every cut separating its entry from the target, so
    the minimum edge cut is both an upper bound on the paths a defender
    must watch and the cheapest set of links to firewall off.  Unit-
    capacity max-flow (Edmonds–Karp) over the undirected host graph. *)

val max_flow : Graph.t -> source:int -> sink:int -> int
(** Maximum number of edge-disjoint paths between two hosts (0 when
    disconnected).
    @raise Invalid_argument on out-of-range endpoints or
    [source = sink]. *)

val min_edge_cut : Graph.t -> source:int -> sink:int -> (int * int) list
(** A minimum set of edges whose removal disconnects [sink] from
    [source]; its size equals {!max_flow} (Menger).  Edges are returned
    with the source-side endpoint first. *)

val is_cut : Graph.t -> source:int -> sink:int -> (int * int) list -> bool
(** Checks that removing the given edges actually separates the pair. *)
