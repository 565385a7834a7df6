(* Tests for the undirected-graph substrate: construction, generators and
   traversal. *)

open Netdiv_graph

let rng () = Random.State.make [| 42 |]

(* ---------------------------------------------------------------- graph *)

let test_of_edges () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 0); (2, 3); (1, 2) ] in
  Alcotest.(check int) "nodes" 4 (Graph.n_nodes g);
  Alcotest.(check int) "dedup edges" 3 (Graph.n_edges g);
  Alcotest.(check int) "degree 1" 2 (Graph.degree g 1);
  Alcotest.(check bool) "mem" true (Graph.mem_edge g 2 1);
  Alcotest.(check bool) "mem sym" true (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "not mem" false (Graph.mem_edge g 0 3);
  Alcotest.(check (array int)) "neighbors sorted" [| 0; 2 |]
    (Graph.neighbors g 1)

let test_of_edges_invalid () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.of_edges: self-loop at 1") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (1, 1) ]));
  (match Graph.of_edges ~n:2 [ (0, 5) ] with
  | _ -> Alcotest.fail "accepted out-of-range edge"
  | exception Invalid_argument _ -> ())

let test_empty_graph () =
  let g = Graph.of_edges ~n:0 [] in
  Alcotest.(check int) "no nodes" 0 (Graph.n_nodes g);
  Alcotest.(check int) "components" 0 (Traversal.n_components g)

let test_iter_edges () =
  let g = Graph.of_edges ~n:3 [ (2, 0); (1, 2) ] in
  let seen = ref [] in
  Graph.iter_edges (fun u v -> seen := (u, v) :: !seen) g;
  Alcotest.(check (list (pair int int))) "canonical order" [ (1, 2); (0, 2) ]
    !seen

(* ------------------------------------------------------------ generators *)

let test_gnm_counts () =
  let g = Gen.gnm ~rng:(rng ()) ~n:30 ~m:100 in
  Alcotest.(check int) "edges" 100 (Graph.n_edges g);
  let dense = Gen.gnm ~rng:(rng ()) ~n:10 ~m:45 in
  Alcotest.(check int) "complete" 45 (Graph.n_edges dense)

let test_gnm_invalid () =
  match Gen.gnm ~rng:(rng ()) ~n:4 ~m:7 with
  | _ -> Alcotest.fail "accepted m > max"
  | exception Invalid_argument _ -> ()

let test_avg_degree () =
  let g = Gen.avg_degree ~rng:(rng ()) ~n:200 ~degree:10 in
  Alcotest.(check int) "m = n*deg/2" 1000 (Graph.n_edges g);
  Alcotest.(check (float 0.01)) "avg degree" 10.0 (Graph.avg_degree g)

let test_connected_gen () =
  let g = Gen.connected_avg_degree ~rng:(rng ()) ~n:300 ~degree:4 in
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  Alcotest.(check int) "edge count" 600 (Graph.n_edges g)

let test_deterministic () =
  let a = Gen.gnm ~rng:(Random.State.make [| 7 |]) ~n:50 ~m:100 in
  let b = Gen.gnm ~rng:(Random.State.make [| 7 |]) ~n:50 ~m:100 in
  Alcotest.(check bool) "same edges" true (Graph.edges a = Graph.edges b)

let test_named_shapes () =
  Alcotest.(check int) "line edges" 9 (Graph.n_edges (Gen.line 10));
  Alcotest.(check int) "cycle edges" 10 (Graph.n_edges (Gen.cycle 10));
  Alcotest.(check int) "star edges" 9 (Graph.n_edges (Gen.star 10));
  Alcotest.(check int) "grid edges" 12 (Graph.n_edges (Gen.grid 3 3));
  Alcotest.(check int) "complete edges" 10 (Graph.n_edges (Gen.complete 5));
  Alcotest.(check int) "grid max degree" 4 (Graph.max_degree (Gen.grid 5 5))

(* ------------------------------------------------------------- traversal *)

let test_bfs () =
  let g = Gen.line 5 in
  Alcotest.(check (array int)) "line distances" [| 0; 1; 2; 3; 4 |]
    (Traversal.bfs g 0);
  let disconnected = Graph.of_edges ~n:4 [ (0, 1) ] in
  Alcotest.(check (array int)) "unreachable -1" [| 0; 1; -1; -1 |]
    (Traversal.bfs disconnected 0)

let test_shortest_path () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 4); (0, 3); (3, 4) ] in
  (match Traversal.shortest_path g 0 4 with
  | Some p -> Alcotest.(check int) "hop count" 3 (List.length p)
  | None -> Alcotest.fail "no path");
  let disconnected = Graph.of_edges ~n:3 [ (0, 1) ] in
  Alcotest.(check bool) "none" true
    (Traversal.shortest_path disconnected 0 2 = None)

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (4, 5) ] in
  Alcotest.(check int) "three components" 3 (Traversal.n_components g);
  Alcotest.(check bool) "not connected" false (Traversal.is_connected g);
  let comp = Traversal.components g in
  Alcotest.(check bool) "same comp" true (comp.(0) = comp.(2));
  Alcotest.(check bool) "diff comp" true (comp.(0) <> comp.(4))

let test_bfs_dag_acyclic_complete () =
  let g = Gen.complete 6 in
  let dag = Traversal.bfs_dag g 0 in
  Alcotest.(check int) "keeps all edges" (Graph.n_edges g) (List.length dag);
  (* topological position strictly increases along every edge *)
  let dist = Traversal.bfs g 0 in
  List.iter
    (fun (u, v) ->
      let ku = (dist.(u), u) and kv = (dist.(v), v) in
      if compare ku kv >= 0 then Alcotest.fail "edge not increasing")
    dag

let test_bfs_dag_drops_unreachable () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (2, 3) ] in
  let dag = Traversal.bfs_dag g 0 in
  Alcotest.(check (list (pair int int))) "only reachable" [ (0, 1) ] dag

(* ------------------------------------------------------------ topologies *)

let test_barabasi_albert () =
  let g = Topologies.barabasi_albert ~rng:(rng ()) ~n:100 ~m:3 in
  Alcotest.(check int) "nodes" 100 (Graph.n_nodes g);
  (* seed clique C(4,2)=6 edges, then 96 nodes x 3 edges *)
  Alcotest.(check int) "edges" (6 + (96 * 3)) (Graph.n_edges g);
  Alcotest.(check bool) "connected" true (Traversal.is_connected g);
  (* scale-free: hubs emerge, max degree well above the mean *)
  Alcotest.(check bool) "has hubs" true
    (float_of_int (Graph.max_degree g) > 2.0 *. Graph.avg_degree g);
  match Topologies.barabasi_albert ~rng:(rng ()) ~n:3 ~m:3 with
  | _ -> Alcotest.fail "accepted m >= n"
  | exception Invalid_argument _ -> ()

let test_watts_strogatz () =
  (* beta = 0: the pristine ring lattice *)
  let lattice = Topologies.watts_strogatz ~rng:(rng ()) ~n:20 ~k:4 ~beta:0.0 in
  Alcotest.(check int) "lattice edges" 40 (Graph.n_edges lattice);
  Alcotest.(check int) "lattice regular" 4 (Graph.max_degree lattice);
  Alcotest.(check bool) "lattice clustering high" true
    (Stats.average_clustering lattice > 0.4);
  (* beta = 0.3: still n*k/2 edges (rewired, not deleted), lower clustering *)
  let small_world =
    Topologies.watts_strogatz ~rng:(rng ()) ~n:200 ~k:6 ~beta:0.3
  in
  Alcotest.(check int) "rewired keeps edges" 600 (Graph.n_edges small_world);
  (match Topologies.watts_strogatz ~rng:(rng ()) ~n:10 ~k:3 ~beta:0.1 with
  | _ -> Alcotest.fail "accepted odd k"
  | exception Invalid_argument _ -> ());
  match Topologies.watts_strogatz ~rng:(rng ()) ~n:10 ~k:4 ~beta:1.5 with
  | _ -> Alcotest.fail "accepted beta > 1"
  | exception Invalid_argument _ -> ()

let test_zoned () =
  let z =
    Topologies.zoned ~rng:(rng ()) ~zone_sizes:[| 5; 8; 12; 4 |]
      ~gateway_links:2 ()
  in
  Alcotest.(check int) "nodes" 29 (Graph.n_nodes z.Topologies.graph);
  Alcotest.(check bool) "connected" true
    (Traversal.is_connected z.Topologies.graph);
  (* zone map is consistent with sizes *)
  let counts = Array.make 4 0 in
  Array.iter (fun zn -> counts.(zn) <- counts.(zn) + 1) z.Topologies.zone_of;
  Alcotest.(check (array int)) "zone sizes" [| 5; 8; 12; 4 |] counts;
  (* all gateways cross zones; all other edges stay inside one *)
  Graph.iter_edges
    (fun u v ->
      let crosses = z.Topologies.zone_of.(u) <> z.Topologies.zone_of.(v) in
      let is_gateway =
        List.exists
          (fun (a, b) -> (a = u && b = v) || (a = v && b = u))
          z.Topologies.gateways
      in
      Alcotest.(check bool) "gateway iff cross-zone" crosses is_gateway)
    z.Topologies.graph

let test_zoned_backbone () =
  (* star backbone: zones 1..3 all uplink to zone 0 *)
  let z =
    Topologies.zoned ~rng:(rng ()) ~zone_sizes:[| 6; 6; 6; 6 |]
      ~backbone:(Some [| -1; 0; 0; 0 |]) ~gateway_links:1 ()
  in
  List.iter
    (fun (u, v) ->
      let zu = z.Topologies.zone_of.(u) and zv = z.Topologies.zone_of.(v) in
      Alcotest.(check bool) "one end in zone 0" true (zu = 0 || zv = 0))
    z.Topologies.gateways;
  match
    Topologies.zoned ~rng:(rng ()) ~zone_sizes:[| 3; 3 |]
      ~backbone:(Some [| -1; 5 |]) ()
  with
  | _ -> Alcotest.fail "accepted forward backbone parent"
  | exception Invalid_argument _ -> ()

(* ----------------------------------------------------------------- stats *)

let test_degree_histogram () =
  let g = Gen.star 5 in
  let hist = Stats.degree_histogram g in
  Alcotest.(check int) "four leaves" 4 hist.(1);
  Alcotest.(check int) "one hub" 1 hist.(4);
  Alcotest.(check int) "total" 5 (Array.fold_left ( + ) 0 hist)

let test_density_clustering () =
  let complete = Gen.complete 6 in
  Alcotest.(check (float 1e-9)) "complete density" 1.0 (Stats.density complete);
  Alcotest.(check (float 1e-9)) "complete clustering" 1.0
    (Stats.average_clustering complete);
  let tree = Gen.star 6 in
  Alcotest.(check (float 1e-9)) "tree clustering" 0.0
    (Stats.average_clustering tree);
  let triangle_plus = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  Alcotest.(check (float 1e-9)) "node 2 clustering" (1.0 /. 3.0)
    (Stats.local_clustering triangle_plus 2)

let test_diameter_paths () =
  let line = Gen.line 10 in
  Alcotest.(check int) "line diameter" 9 (Stats.diameter line);
  Alcotest.(check int) "cycle diameter" 5 (Stats.diameter (Gen.cycle 10));
  Alcotest.(check (float 1e-9)) "pair path" 1.0
    (Stats.average_path_length (Gen.complete 4));
  (* sampled variant stays a valid lower bound *)
  let g = Gen.connected_avg_degree ~rng:(rng ()) ~n:300 ~degree:4 in
  let exact = Stats.diameter g in
  let sampled = Stats.diameter ~sample:20 ~rng:(rng ()) g in
  Alcotest.(check bool) "sampled <= exact" true (sampled <= exact);
  Alcotest.(check bool) "sampled positive" true (sampled > 0)

(* ------------------------------------------------------------------ cut *)

let test_max_flow_basics () =
  Alcotest.(check int) "line" 1 (Cut.max_flow (Gen.line 5) ~source:0 ~sink:4);
  Alcotest.(check int) "cycle" 2 (Cut.max_flow (Gen.cycle 6) ~source:0 ~sink:3);
  Alcotest.(check int) "complete K5" 4
    (Cut.max_flow (Gen.complete 5) ~source:0 ~sink:4);
  let disconnected = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check int) "disconnected" 0
    (Cut.max_flow disconnected ~source:0 ~sink:3);
  match Cut.max_flow (Gen.line 3) ~source:1 ~sink:1 with
  | _ -> Alcotest.fail "accepted source = sink"
  | exception Invalid_argument _ -> ()

let test_min_cut_menger () =
  (* the cut size equals the max flow, and removing it disconnects *)
  List.iter
    (fun (g, s, t) ->
      let flow = Cut.max_flow g ~source:s ~sink:t in
      let cut = Cut.min_edge_cut g ~source:s ~sink:t in
      Alcotest.(check int) "Menger" flow (List.length cut);
      Alcotest.(check bool) "really a cut" true
        (Cut.is_cut g ~source:s ~sink:t cut))
    [ (Gen.cycle 8, 0, 4); (Gen.complete 6, 0, 5); (Gen.grid 3 4, 0, 11);
      (Gen.star 7, 1, 5) ]

let test_min_cut_random () =
  for seed = 1 to 10 do
    let g =
      Gen.connected_avg_degree
        ~rng:(Random.State.make [| seed |])
        ~n:40 ~degree:4
    in
    let flow = Cut.max_flow g ~source:0 ~sink:39 in
    let cut = Cut.min_edge_cut g ~source:0 ~sink:39 in
    Alcotest.(check int) "Menger random" flow (List.length cut);
    Alcotest.(check bool) "separates" true
      (Cut.is_cut g ~source:0 ~sink:39 cut);
    (* removing any proper subset must NOT disconnect (minimality) *)
    match cut with
    | _ :: rest when rest <> [] ->
        Alcotest.(check bool) "proper subset is no cut" false
          (Cut.is_cut g ~source:0 ~sink:39 rest)
    | _ -> ()
  done

(* ------------------------------------------------------------------ dot *)

let test_dot_output () =
  let g = Gen.star 4 in
  let dot =
    Dot.to_dot ~name:"demo"
      ~label:(fun i -> Printf.sprintf "host %d" i)
      ~color:(fun i -> if i = 0 then Some "#ff0000" else None)
      ~shape:(fun i -> if i = 0 then Some "house" else None)
      ~edge_style:(fun u v -> if u = 0 && v = 1 then Some "color=red" else None)
      g
  in
  let contains needle =
    let rec search i =
      i + String.length needle <= String.length dot
      && (String.sub dot i (String.length needle) = needle || search (i + 1))
    in
    search 0
  in
  Alcotest.(check bool) "header" true (contains "graph \"demo\"");
  Alcotest.(check bool) "label" true (contains "label=\"host 2\"");
  Alcotest.(check bool) "color" true (contains "fillcolor=\"#ff0000\"");
  Alcotest.(check bool) "shape" true (contains "shape=house");
  Alcotest.(check bool) "styled edge" true (contains "n0 -- n1 [color=red];");
  Alcotest.(check bool) "plain edge" true (contains "n0 -- n3;");
  Alcotest.(check bool) "closed" true (contains "}")

let test_dot_escaping () =
  let g = Gen.line 2 in
  (* the label is: a, quote, b, backslash, c *)
  let dot = Dot.to_dot ~label:(fun _ -> "a\"b\\c") g in
  (* escaped form: backslash-quote and double-backslash *)
  let needle = {|a\"b\\c|} in
  let rec search i =
    i + String.length needle <= String.length dot
    && (String.sub dot i (String.length needle) = needle || search (i + 1))
  in
  Alcotest.(check bool) "escaped quote and backslash" true (search 0)

(* ------------------------------------------------------------- property *)

let graph_gen =
  QCheck2.Gen.(
    let* n = 2 -- 30 in
    let* m = 0 -- (n * (n - 1) / 2) in
    let* seed = 0 -- 10_000 in
    return (Gen.gnm ~rng:(Random.State.make [| seed |]) ~n ~m))

let prop_degree_sum =
  QCheck2.Test.make ~count:100 ~name:"sum of degrees = 2m" graph_gen
    (fun g ->
      let total = ref 0 in
      for i = 0 to Graph.n_nodes g - 1 do
        total := !total + Graph.degree g i
      done;
      !total = 2 * Graph.n_edges g)

let prop_neighbors_symmetric =
  QCheck2.Test.make ~count:100 ~name:"neighbor relation is symmetric"
    graph_gen (fun g ->
      let ok = ref true in
      Graph.iter_edges
        (fun u v ->
          if not (Graph.mem_edge g u v && Graph.mem_edge g v u) then
            ok := false)
        g;
      !ok)

let prop_bfs_triangle =
  QCheck2.Test.make ~count:100
    ~name:"bfs distances obey the triangle inequality over edges" graph_gen
    (fun g ->
      let dist = Traversal.bfs g 0 in
      let ok = ref true in
      Graph.iter_edges
        (fun u v ->
          match (dist.(u), dist.(v)) with
          | -1, -1 -> ()
          | -1, _ | _, -1 -> ok := false
          | du, dv -> if abs (du - dv) > 1 then ok := false)
        g;
      !ok)

let prop_cut_bounded_by_degree =
  QCheck2.Test.make ~count:50
    ~name:"max flow bounded by endpoint degrees" graph_gen (fun g ->
      QCheck2.assume (Graph.n_nodes g >= 2);
      let s = 0 and t = Graph.n_nodes g - 1 in
      QCheck2.assume (s <> t);
      let flow = Cut.max_flow g ~source:s ~sink:t in
      flow <= min (Graph.degree g s) (Graph.degree g t))

let prop_components_partition =
  QCheck2.Test.make ~count:100
    ~name:"edges never straddle two components" graph_gen (fun g ->
      let comp = Traversal.components g in
      let ok = ref true in
      Graph.iter_edges
        (fun u v -> if comp.(u) <> comp.(v) then ok := false)
        g;
      !ok)

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "of_edges validation" `Quick
            test_of_edges_invalid;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "iter_edges canonical" `Quick test_iter_edges;
        ] );
      ( "gen",
        [
          Alcotest.test_case "gnm edge counts" `Quick test_gnm_counts;
          Alcotest.test_case "gnm rejects impossible m" `Quick
            test_gnm_invalid;
          Alcotest.test_case "avg_degree" `Quick test_avg_degree;
          Alcotest.test_case "connected generator" `Quick test_connected_gen;
          Alcotest.test_case "deterministic under seed" `Quick
            test_deterministic;
          Alcotest.test_case "named shapes" `Quick test_named_shapes;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "bfs_dag on complete graph" `Quick
            test_bfs_dag_acyclic_complete;
          Alcotest.test_case "bfs_dag drops unreachable" `Quick
            test_bfs_dag_drops_unreachable;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
          Alcotest.test_case "watts-strogatz" `Quick test_watts_strogatz;
          Alcotest.test_case "zoned" `Quick test_zoned;
          Alcotest.test_case "zoned backbone" `Quick test_zoned_backbone;
        ] );
      ( "stats",
        [
          Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
          Alcotest.test_case "density and clustering" `Quick
            test_density_clustering;
          Alcotest.test_case "diameter and paths" `Quick test_diameter_paths;
        ] );
      ( "dot",
        [
          Alcotest.test_case "rendering" `Quick test_dot_output;
          Alcotest.test_case "escaping" `Quick test_dot_escaping;
        ] );
      ( "cut",
        [
          Alcotest.test_case "max flow" `Quick test_max_flow_basics;
          Alcotest.test_case "min cut = max flow" `Quick test_min_cut_menger;
          Alcotest.test_case "random graphs" `Quick test_min_cut_random;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_degree_sum;
          QCheck_alcotest.to_alcotest prop_neighbors_symmetric;
          QCheck_alcotest.to_alcotest prop_bfs_triangle;
          QCheck_alcotest.to_alcotest prop_components_partition;
          QCheck_alcotest.to_alcotest prop_cut_bounded_by_degree;
        ] );
    ]
