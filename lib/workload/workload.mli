(** Random diversification instances for the scalability study (Section
    VIII).

    The paper times its optimizer on randomly generated networks
    parameterized by host count, average degree and services per host.
    Instances here follow that recipe: a uniform random connected host
    graph; a catalog of [services] services, each offered by
    [products_per_service] products with a synthetic similarity matrix
    (zero across "vendor families", Jaccard-like within — mimicking the
    block structure of the real CVE tables); every host runs every
    service.  Everything is deterministic in [seed]. *)

type params = {
  hosts : int;
  degree : int;              (** average degree; paper sweeps 5-50 *)
  services : int;            (** services per host; paper sweeps 5-30 *)
  products_per_service : int;  (** paper's case study uses 3-4 *)
  seed : int;
}

val default : params
(** 1000 hosts, degree 20, 15 services, 4 products — the paper's
    mid-density configuration. *)

val instance : params -> Netdiv_core.Network.t
(** Builds the network for [params].
    @raise Invalid_argument for non-positive sizes. *)

val synthetic_similarity :
  rng:Random.State.t -> products:int -> float array
(** One synthetic similarity matrix: products are split into two vendor
    families; cross-family similarity is 0, within-family pairs get a
    Jaccard-like draw in (0, 0.7]. *)

(** {1 Zoned streaming instances}

    100k-host instances never exist as one resident object graph:
    {!stream_zoned} emits each zone's topology straight into the compact
    MRF encoder ({!Netdiv_mrf.Mrf.Builder}) via
    {!Netdiv_graph.Gen.iter_connected_avg_degree}, so peak memory is the
    growing compact model plus one zone's generator state.  The zone
    structure mirrors segmented ICS networks: dense connected zones
    joined by a few gateway links between consecutive zones. *)

type zoned_params = {
  z_hosts : int;           (** total hosts, split across zones ±1 *)
  z_zones : int;           (** zone count; hosts are zone-contiguous *)
  z_degree : int;          (** average degree inside a zone; < 2 means
                               edgeless zones *)
  z_gateway_links : int;   (** distinct host links between consecutive
                               zones *)
  z_services : int;        (** services per host (all hosts run all) *)
  z_products : int;        (** products per service *)
  z_seed : int;
}

val default_zoned : zoned_params
(** 10k hosts, 10 zones, degree 8, 4 gateway links, 5 services x 4
    products. *)

val stream_zoned : ?prconst:float -> zoned_params -> Netdiv_mrf.Mrf.t * int array
(** [stream_zoned p] builds the diversification MRF of a zoned instance
    directly — one variable per (host, service) slot at
    [host * z_services + service], every unary the constant preference
    cost [prconst] (default 0.01), one pairwise similarity edge per
    (link, service) — and returns it with the per-variable zone map
    (ready for {!Netdiv_mrf.Trws.solve}'s [zone_of]).  Each service
    shares one similarity matrix across all its edges, so the model
    interns exactly [z_services] tables.  Deterministic in [z_seed].
    @raise Invalid_argument for non-positive sizes or
    [z_zones > z_hosts]. *)

val estimate_zoned_words : zoned_params -> int
(** Predicted peak words ({!Netdiv_mrf.Mrf.estimate_words}) for building
    and solving [stream_zoned p] — what [--mem-budget] checks before any
    allocation happens. *)

val pp_zoned_params : Format.formatter -> zoned_params -> unit
