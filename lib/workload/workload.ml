module Gen = Netdiv_graph.Gen
module Network = Netdiv_core.Network
module Mrf = Netdiv_mrf.Mrf

type params = {
  hosts : int;
  degree : int;
  services : int;
  products_per_service : int;
  seed : int;
}

let default =
  { hosts = 1000; degree = 20; services = 15; products_per_service = 4;
    seed = 1 }

let synthetic_similarity ~rng ~products =
  if products < 1 then invalid_arg "Workload.synthetic_similarity";
  let split = max 1 (products / 2) in
  let m = Array.make (products * products) 0.0 in
  for i = 0 to products - 1 do
    m.((i * products) + i) <- 1.0;
    for j = i + 1 to products - 1 do
      let same_family = (i < split) = (j < split) in
      let v =
        if same_family then 0.05 +. Random.State.float rng 0.65 else 0.0
      in
      m.((i * products) + j) <- v;
      m.((j * products) + i) <- v
    done
  done;
  m

let instance p =
  if p.hosts < 1 || p.degree < 0 || p.services < 1
     || p.products_per_service < 1
  then invalid_arg "Workload.instance: non-positive parameter";
  let rng = Random.State.make [| p.seed; p.hosts; p.degree; p.services |] in
  let graph =
    if p.degree >= 2 && p.hosts > 2 then
      Gen.connected_avg_degree ~rng ~n:p.hosts ~degree:p.degree
    else Gen.avg_degree ~rng ~n:p.hosts ~degree:p.degree
  in
  let services =
    Array.init p.services (fun s ->
        {
          Network.sv_name = Printf.sprintf "svc%d" s;
          sv_products =
            Array.init p.products_per_service (fun k ->
                Printf.sprintf "s%d_p%d" s k);
          sv_similarity =
            synthetic_similarity ~rng ~products:p.products_per_service;
        })
  in
  let all_services = List.init p.services (fun s -> (s, [||])) in
  let hosts =
    Array.init p.hosts (fun h ->
        { Network.h_name = Printf.sprintf "h%d" h;
          h_services = all_services })
  in
  Network.create ~graph ~services ~hosts

type zoned_params = {
  z_hosts : int;
  z_zones : int;
  z_degree : int;
  z_gateway_links : int;
  z_services : int;
  z_products : int;
  z_seed : int;
}

let default_zoned =
  { z_hosts = 10_000; z_zones = 10; z_degree = 8; z_gateway_links = 4;
    z_services = 5; z_products = 4; z_seed = 1 }

let check_zoned p =
  if p.z_hosts < 1 || p.z_zones < 1 || p.z_zones > p.z_hosts
     || p.z_degree < 0 || p.z_gateway_links < 0 || p.z_services < 1
     || p.z_products < 1
  then invalid_arg "Workload: bad zoned parameter"

(* Exact link count the generator will emit: per zone the connected-
   average-degree target [size * degree / 2] (zero for degree < 2 or a
   one-host zone), plus [z_gateway_links] between consecutive zones
   (capped by the zone-pair product). *)
let zoned_links p =
  let base = p.z_hosts / p.z_zones and extra = p.z_hosts mod p.z_zones in
  let size z = base + if z < extra then 1 else 0 in
  let links = ref 0 in
  for z = 0 to p.z_zones - 1 do
    let sz = size z in
    if sz > 1 && p.z_degree >= 2 then links := !links + (sz * p.z_degree / 2);
    if z + 1 < p.z_zones then
      links := !links + min p.z_gateway_links (sz * size (z + 1))
  done;
  !links

let estimate_zoned_words p =
  check_zoned p;
  Mrf.estimate_words
    ~nodes:(p.z_hosts * p.z_services)
    ~edges:(zoned_links p * p.z_services)
    ~max_labels:p.z_products ~tables:p.z_services

let stream_zoned ?(prconst = 0.01) p =
  check_zoned p;
  let rng =
    Random.State.make [| p.z_seed; p.z_hosts; p.z_zones; p.z_degree |]
  in
  let n_vars = p.z_hosts * p.z_services in
  let builder =
    Mrf.Builder.create ~label_counts:(Array.make n_vars p.z_products)
  in
  Mrf.Builder.reserve_edges builder (zoned_links p * p.z_services);
  let unary = Array.make p.z_products prconst in
  for v = 0 to n_vars - 1 do
    Mrf.Builder.set_unary builder ~node:v unary
  done;
  (* one physically shared similarity matrix per service, so every edge
     of a service hash-conses to the same interned table id *)
  let sims =
    Array.init p.z_services (fun _ ->
        synthetic_similarity ~rng ~products:p.z_products)
  in
  let zone_of = Array.make n_vars 0 in
  let base = p.z_hosts / p.z_zones and extra = p.z_hosts mod p.z_zones in
  let start = Array.make (p.z_zones + 1) 0 in
  for z = 0 to p.z_zones - 1 do
    start.(z + 1) <- start.(z) + base + if z < extra then 1 else 0
  done;
  let add_link u v =
    for s = 0 to p.z_services - 1 do
      Mrf.Builder.add_edge builder
        ((u * p.z_services) + s)
        ((v * p.z_services) + s)
        sims.(s)
    done
  in
  for z = 0 to p.z_zones - 1 do
    let lo = start.(z) and hi = start.(z + 1) in
    for h = lo to hi - 1 do
      for s = 0 to p.z_services - 1 do
        zone_of.((h * p.z_services) + s) <- z
      done
    done;
    let size = hi - lo in
    if size > 1 && p.z_degree >= 2 then
      Gen.iter_connected_avg_degree ~rng ~n:size ~degree:p.z_degree
        (fun a b -> add_link (lo + a) (lo + b));
    if z + 1 < p.z_zones && p.z_gateway_links > 0 then begin
      let nlo = start.(z + 1) and nhi = start.(z + 2) in
      let cap = min p.z_gateway_links (size * (nhi - nlo)) in
      let seen = Hashtbl.create (2 * cap) in
      let made = ref 0 in
      while !made < cap do
        let u = lo + Random.State.int rng size in
        let v = nlo + Random.State.int rng (nhi - nlo) in
        if not (Hashtbl.mem seen (u, v)) then begin
          Hashtbl.add seen (u, v) ();
          add_link u v;
          incr made
        end
      done
    end
  done;
  (Mrf.Builder.build builder, zone_of)

let pp_zoned_params ppf p =
  Format.fprintf ppf
    "%d hosts in %d zones, degree %d + %d gateway links, %d services x %d \
     products (seed %d)"
    p.z_hosts p.z_zones p.z_degree p.z_gateway_links p.z_services
    p.z_products p.z_seed
