(* Tests for the random-instance generator behind the scalability study. *)

open Netdiv_workload.Workload
module Network = Netdiv_core.Network
module Graph = Netdiv_graph.Graph
module Traversal = Netdiv_graph.Traversal
module Mrf = Netdiv_mrf.Mrf

let test_default_shape () =
  let net = instance default in
  Alcotest.(check int) "hosts" 1000 (Network.n_hosts net);
  Alcotest.(check int) "services" 15 (Network.n_services net);
  Alcotest.(check int) "edges = n*deg/2" 10_000
    (Graph.n_edges (Network.graph net));
  Alcotest.(check int) "products" 4 (Network.n_products net 0);
  Alcotest.(check int) "slots" 15_000 (Array.length (Network.slots net))

let test_deterministic () =
  let p = { default with hosts = 100; services = 3; seed = 9 } in
  let a = instance p and b = instance p in
  Alcotest.(check bool) "same graphs" true
    (Graph.edges (Network.graph a) = Graph.edges (Network.graph b));
  Alcotest.(check (float 1e-12)) "same similarities"
    (Network.similarity a ~service:1 0 3)
    (Network.similarity b ~service:1 0 3)

let test_connected () =
  let net = instance { default with hosts = 500; degree = 4 } in
  Alcotest.(check bool) "connected" true
    (Traversal.is_connected (Network.graph net))

let test_invalid_params () =
  match instance { default with hosts = 0 } with
  | _ -> Alcotest.fail "accepted zero hosts"
  | exception Invalid_argument _ -> ()

let test_synthetic_similarity_valid () =
  let rng = Random.State.make [| 4 |] in
  for products = 1 to 8 do
    let m = synthetic_similarity ~rng ~products in
    Alcotest.(check int) "size" (products * products) (Array.length m);
    for i = 0 to products - 1 do
      Alcotest.(check (float 1e-12)) "diag" 1.0 m.((i * products) + i);
      for j = 0 to products - 1 do
        let v = m.((i * products) + j) in
        Alcotest.(check bool) "bounds" true (v >= 0.0 && v <= 1.0);
        Alcotest.(check (float 1e-12)) "symmetric" v m.((j * products) + i)
      done
    done
  done

let test_cross_family_zero () =
  let rng = Random.State.make [| 5 |] in
  let products = 6 in
  let m = synthetic_similarity ~rng ~products in
  (* families are [0..2] and [3..5] *)
  for i = 0 to 2 do
    for j = 3 to 5 do
      Alcotest.(check (float 1e-12)) "cross family" 0.0
        m.((i * products) + j)
    done
  done

let test_optimizable () =
  (* the whole point: the optimizer runs on generated instances and beats
     the homogeneous baseline *)
  let net =
    instance { hosts = 60; degree = 6; services = 3;
               products_per_service = 4; seed = 3 }
  in
  let report = Netdiv_core.Optimize.run net [] in
  Alcotest.(check bool) "constraints ok" true
    report.Netdiv_core.Optimize.constraints_ok;
  let e = Netdiv_core.Encode.encode net [] in
  let mono_energy =
    Netdiv_core.Encode.assignment_energy e (Netdiv_core.Assignment.mono net)
  in
  Alcotest.(check bool) "beats mono" true
    (report.Netdiv_core.Optimize.energy < mono_energy)

(* ------------------------------------------------- zoned streaming *)

let zp =
  { z_hosts = 200; z_zones = 5; z_degree = 4; z_gateway_links = 3;
    z_services = 3; z_products = 4; z_seed = 7 }

let test_stream_zoned_shape () =
  let model, zone_of = stream_zoned zp in
  Alcotest.(check int) "variables = hosts * services" 600 (Mrf.n_nodes model);
  Alcotest.(check int) "one shared table per service" 3 (Mrf.n_tables model);
  Alcotest.(check int) "zone map covers every variable" 600
    (Array.length zone_of);
  (* hosts are generated zone by zone, so the per-variable zone map is
     nondecreasing and every zone is populated *)
  let counts = Array.make zp.z_zones 0 in
  Array.iteri
    (fun i z ->
      Alcotest.(check bool) "zone id in range" true (z >= 0 && z < 5);
      if i > 0 then
        Alcotest.(check bool) "zone-contiguous" true (zone_of.(i - 1) <= z);
      counts.(z) <- counts.(z) + 1)
    zone_of;
  Array.iter (fun c -> Alcotest.(check int) "balanced zones" 120 c) counts;
  Alcotest.(check bool) "connected within budget" true (Mrf.n_edges model > 0)

let test_stream_zoned_deterministic () =
  let a, za = stream_zoned zp and b, zb = stream_zoned zp in
  Alcotest.(check bool) "same zone map" true (za = zb);
  Alcotest.(check bool) "same compact arrays" true
    (Mrf.Compact.arrays a = Mrf.Compact.arrays b)

let test_stream_zoned_estimate () =
  (* the pre-allocation estimate must bound what streaming then builds,
     or --mem-budget would reject instances that actually fit *)
  let model, _ = stream_zoned zp in
  let fp = Mrf.footprint model in
  let est = estimate_zoned_words zp in
  Alcotest.(check bool) "estimate bounds footprint" true
    (est >= fp.Mrf.f_words);
  Alcotest.(check bool) "interned tables beat flat storage" true
    (fp.Mrf.f_words < fp.Mrf.f_flat_words)

let test_stream_zoned_invalid () =
  List.iter
    (fun p ->
      match stream_zoned p with
      | _ -> Alcotest.fail "accepted bad zoned parameter"
      | exception Invalid_argument _ -> ())
    [ { zp with z_zones = 0 }; { zp with z_hosts = 0 };
      { zp with z_zones = zp.z_hosts + 1 }; { zp with z_services = 0 } ]

(* 100 hosts in 50 zones are two-host zones, which cannot hold the
   default degree 8: both the stream and the --mem-budget estimate
   refuse instead of generating forever *)
let test_zones_too_small () =
  let p = { default_zoned with z_hosts = 100; z_zones = 50 } in
  (match stream_zoned p with
  | _ -> Alcotest.fail "stream_zoned accepted two-host zones at degree 8"
  | exception Invalid_argument _ -> ());
  (match estimate_zoned_words p with
  | _ -> Alcotest.fail "estimate accepted two-host zones at degree 8"
  | exception Invalid_argument _ -> ());
  let model, _ = stream_zoned { p with z_degree = 1 } in
  Alcotest.(check int) "edgeless zones: 4 gateway links x 49 pairs x 5 services"
    (4 * 49 * 5) (Mrf.n_edges model)

let test_encode_estimate_bounds () =
  (* same contract on the constraint-encoding path: the estimate behind
     netdiv's --mem-budget must dominate the encoded model's footprint *)
  let net =
    instance { hosts = 60; degree = 6; services = 3;
               products_per_service = 4; seed = 3 }
  in
  let est = Netdiv_core.Encode.estimate_words net [] in
  let fp = Mrf.footprint (Netdiv_core.Encode.mrf (Netdiv_core.Encode.encode net [])) in
  Alcotest.(check bool) "estimate bounds encoded footprint" true
    (est >= fp.Mrf.f_words)

let () =
  Alcotest.run "workload"
    [
      ( "workload",
        [
          Alcotest.test_case "default shape" `Quick test_default_shape;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "connected" `Quick test_connected;
          Alcotest.test_case "invalid params" `Quick test_invalid_params;
          Alcotest.test_case "synthetic similarity valid" `Quick
            test_synthetic_similarity_valid;
          Alcotest.test_case "cross-family zero" `Quick
            test_cross_family_zero;
          Alcotest.test_case "optimizable" `Quick test_optimizable;
        ] );
      ( "zoned",
        [
          Alcotest.test_case "stream shape" `Quick test_stream_zoned_shape;
          Alcotest.test_case "stream deterministic" `Quick
            test_stream_zoned_deterministic;
          Alcotest.test_case "stream estimate bounds" `Quick
            test_stream_zoned_estimate;
          Alcotest.test_case "stream invalid params" `Quick
            test_stream_zoned_invalid;
          Alcotest.test_case "encode estimate bounds" `Quick
            test_encode_estimate_bounds;
          Alcotest.test_case "zones too small for the degree" `Quick
            test_zones_too_small;
        ] );
    ]
