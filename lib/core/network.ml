module Graph = Netdiv_graph.Graph
module Sim = Netdiv_vuln.Similarity

type service_spec = {
  sv_name : string;
  sv_products : string array;
  sv_similarity : float array;
}

type host_spec = {
  h_name : string;
  h_services : (int * int array) list;
}

type t = {
  graph : Graph.t;
  service_names : string array;
  product_names : string array array;   (* per service *)
  similarities : float array array;     (* per service, p*p *)
  host_names : string array;
  host_services : int array array;      (* sorted per host *)
  candidates : int array array array;   (* host -> slot (aligned) -> products *)
}

let validate_similarity name products sim =
  let p = Array.length products in
  if Array.length sim <> p * p then
    invalid_arg
      (Printf.sprintf "Network: service %s similarity matrix size mismatch"
         name);
  for i = 0 to p - 1 do
    if abs_float (sim.((i * p) + i) -. 1.0) > 1e-9 then
      invalid_arg
        (Printf.sprintf "Network: service %s similarity diagonal not 1" name);
    for j = 0 to p - 1 do
      let v = sim.((i * p) + j) in
      if not (v >= 0.0 && v <= 1.0) then
        invalid_arg
          (Printf.sprintf "Network: service %s similarity out of [0,1]" name);
      if abs_float (v -. sim.((j * p) + i)) > 1e-9 then
        invalid_arg
          (Printf.sprintf "Network: service %s similarity not symmetric" name)
    done
  done

let create ~graph ~services ~hosts =
  let n_hosts = Array.length hosts in
  if Graph.n_nodes graph <> n_hosts then
    invalid_arg
      (Printf.sprintf "Network.create: graph has %d nodes but %d hosts given"
         (Graph.n_nodes graph) n_hosts);
  Array.iter
    (fun s -> validate_similarity s.sv_name s.sv_products s.sv_similarity)
    services;
  let n_services = Array.length services in
  let host_services = Array.make n_hosts [||] in
  let candidates = Array.make n_hosts [||] in
  Array.iteri
    (fun h spec ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (s, _) ->
          if s < 0 || s >= n_services then
            invalid_arg
              (Printf.sprintf "Network.create: host %s has unknown service %d"
                 spec.h_name s);
          if Hashtbl.mem seen s then
            invalid_arg
              (Printf.sprintf "Network.create: host %s lists service %d twice"
                 spec.h_name s);
          Hashtbl.add seen s ())
        spec.h_services;
      let ordered =
        List.sort (fun (a, _) (b, _) -> compare a b) spec.h_services
      in
      host_services.(h) <- Array.of_list (List.map fst ordered);
      candidates.(h) <-
        Array.of_list
          (List.map
             (fun (s, cands) ->
               let p = Array.length services.(s).sv_products in
               let cands =
                 if Array.length cands = 0 then Array.init p Fun.id
                 else Array.copy cands
               in
               Array.sort compare cands;
               let distinct = Array.length cands in
               Array.iteri
                 (fun k c ->
                   if c < 0 || c >= p then
                     invalid_arg
                       (Printf.sprintf
                          "Network.create: host %s candidate %d out of range \
                           for service %s"
                          spec.h_name c services.(s).sv_name);
                   if k > 0 && cands.(k - 1) = c then
                     invalid_arg
                       (Printf.sprintf
                          "Network.create: host %s repeats candidate %d"
                          spec.h_name c))
                 cands;
               if distinct = 0 then
                 invalid_arg
                   (Printf.sprintf
                      "Network.create: host %s has no candidates for %s"
                      spec.h_name services.(s).sv_name);
               cands)
             ordered))
    hosts;
  {
    graph;
    service_names = Array.map (fun s -> s.sv_name) services;
    product_names = Array.map (fun s -> Array.copy s.sv_products) services;
    similarities = Array.map (fun s -> s.sv_similarity) services;
    host_names = Array.map (fun h -> h.h_name) hosts;
    host_services;
    candidates;
  }

let of_similarity_tables ~graph ~services ~hosts =
  let specs =
    Array.map
      (fun (name, table) ->
        let p = Sim.size table in
        {
          sv_name = name;
          sv_products = Array.init p (Sim.product_name table);
          sv_similarity =
            Array.init (p * p) (fun idx -> Sim.get table (idx / p) (idx mod p));
        })
      services
  in
  create ~graph ~services:specs ~hosts

let graph t = t.graph
let n_hosts t = Array.length t.host_names
let n_services t = Array.length t.service_names
let host_name t h = t.host_names.(h)
let service_name t s = t.service_names.(s)
let product_name t ~service p = t.product_names.(service).(p)
let n_products t s = Array.length t.product_names.(s)

let similarity t ~service p q =
  let n = n_products t service in
  t.similarities.(service).((p * n) + q)

let similarity_matrix t ~service = t.similarities.(service)

let host_services t h = t.host_services.(h)

(* index of service s within host h's sorted service array, or -1 *)
let slot_index t h s =
  let arr = t.host_services.(h) in
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if arr.(mid) = s then mid
      else if arr.(mid) < s then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length arr)

let runs_service t ~host ~service = slot_index t host service >= 0

let candidates t ~host ~service =
  let k = slot_index t host service in
  if k < 0 then
    invalid_arg
      (Printf.sprintf "Network.candidates: host %s does not run service %s"
         t.host_names.(host) t.service_names.(service));
  t.candidates.(host).(k)

let find_index arr name =
  let n = Array.length arr in
  let rec loop i =
    if i >= n then None
    else if String.equal arr.(i) name then Some i
    else loop (i + 1)
  in
  loop 0

let find_host t name = find_index t.host_names name
let find_service t name = find_index t.service_names name
let find_product t ~service name = find_index t.product_names.(service) name

let slots t =
  let acc = ref [] in
  for h = n_hosts t - 1 downto 0 do
    let services = t.host_services.(h) in
    for k = Array.length services - 1 downto 0 do
      acc := (h, services.(k)) :: !acc
    done
  done;
  Array.of_list !acc

let pp ppf t =
  Format.fprintf ppf "network: %d hosts, %d services, %d links, %d slots"
    (n_hosts t) (n_services t)
    (Graph.n_edges t.graph)
    (Array.length (slots t))
