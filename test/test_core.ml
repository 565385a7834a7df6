(* Tests for the diversification core: network model, assignments,
   constraints, MRF encoding and the optimizer. *)

open Netdiv_core
module Graph = Netdiv_graph.Graph
module Gen = Netdiv_graph.Gen

let rng seed = Random.State.make [| seed |]

(* a small two-service network over a given graph; service 0 has 3
   products (identity-ish similarity), service 1 has 2 *)
let sim3 =
  [| 1.0; 0.2; 0.0;
     0.2; 1.0; 0.1;
     0.0; 0.1; 1.0 |]

let sim2 = [| 1.0; 0.3; 0.3; 1.0 |]

let services =
  [|
    { Network.sv_name = "os"; sv_products = [| "A"; "B"; "C" |];
      sv_similarity = sim3 };
    { Network.sv_name = "db"; sv_products = [| "X"; "Y" |];
      sv_similarity = sim2 };
  |]

let mk_net ?(graph = Gen.cycle 6) ?host_services () =
  let n = Graph.n_nodes graph in
  let hs h =
    match host_services with
    | Some f -> f h
    | None -> [ (0, [||]); (1, [||]) ]
  in
  Network.create ~graph ~services
    ~hosts:
      (Array.init n (fun h ->
           { Network.h_name = Printf.sprintf "h%d" h; h_services = hs h }))

(* -------------------------------------------------------------- network *)

let test_network_basics () =
  let net = mk_net () in
  Alcotest.(check int) "hosts" 6 (Network.n_hosts net);
  Alcotest.(check int) "services" 2 (Network.n_services net);
  Alcotest.(check int) "products os" 3 (Network.n_products net 0);
  Alcotest.(check (float 1e-9)) "similarity" 0.2
    (Network.similarity net ~service:0 0 1);
  Alcotest.(check bool) "runs service" true
    (Network.runs_service net ~host:0 ~service:1);
  Alcotest.(check int) "slots" 12 (Array.length (Network.slots net));
  Alcotest.(check bool) "find host" true (Network.find_host net "h3" = Some 3);
  Alcotest.(check bool) "find product" true
    (Network.find_product net ~service:0 "C" = Some 2)

let test_network_validation () =
  (* wrong host count *)
  (match
     Network.create ~graph:(Gen.cycle 3) ~services
       ~hosts:[| { Network.h_name = "x"; h_services = [] } |]
   with
  | _ -> Alcotest.fail "accepted host/graph mismatch"
  | exception Invalid_argument _ -> ());
  (* asymmetric similarity *)
  let bad =
    [| { Network.sv_name = "s"; sv_products = [| "a"; "b" |];
         sv_similarity = [| 1.0; 0.1; 0.2; 1.0 |] } |]
  in
  (match
     Network.create ~graph:(Gen.cycle 3) ~services:bad
       ~hosts:
         (Array.init 3 (fun i ->
              { Network.h_name = string_of_int i; h_services = [] }))
   with
  | _ -> Alcotest.fail "accepted asymmetric similarity"
  | exception Invalid_argument _ -> ());
  (* duplicate candidate *)
  match
    mk_net
      ~host_services:(fun _ -> [ (0, [| 1; 1 |]) ])
      ()
  with
  | _ -> Alcotest.fail "accepted duplicate candidate"
  | exception Invalid_argument _ -> ()

let test_candidates () =
  let net =
    mk_net ~host_services:(fun h -> if h = 0 then [ (0, [| 2 |]) ] else
        [ (0, [||]); (1, [||]) ]) ()
  in
  Alcotest.(check (array int)) "restricted" [| 2 |]
    (Network.candidates net ~host:0 ~service:0);
  Alcotest.(check (array int)) "all" [| 0; 1; 2 |]
    (Network.candidates net ~host:1 ~service:0);
  match Network.candidates net ~host:0 ~service:1 with
  | _ -> Alcotest.fail "host 0 does not run db"
  | exception Invalid_argument _ -> ()

(* ----------------------------------------------------------- assignment *)

let test_assignment_make_get () =
  let net = mk_net () in
  let a = Assignment.make net (fun ~host ~service -> (host + service) mod 2) in
  Alcotest.(check int) "get" 1 (Assignment.get a ~host:0 ~service:1);
  Alcotest.(check bool) "get_opt none" true
    (let net' =
       mk_net ~host_services:(fun h -> if h = 0 then [] else [ (0, [||]) ]) ()
     in
     let a' = Assignment.first_candidate net' in
     Assignment.get_opt a' ~host:0 ~service:0 = None)

let test_assignment_rejects_non_candidate () =
  let net = mk_net ~host_services:(fun _ -> [ (0, [| 0; 1 |]) ]) () in
  match Assignment.make net (fun ~host:_ ~service:_ -> 2) with
  | _ -> Alcotest.fail "accepted non-candidate product"
  | exception Invalid_argument _ -> ()

let test_mono_assignment () =
  let net = mk_net () in
  let a = Assignment.mono net in
  Alcotest.(check int) "one product deployed" 1
    (Assignment.distinct_products a ~service:0);
  (* mono maximizes pairwise energy among our baselines *)
  let r = Assignment.random ~rng:(rng 1) net in
  Alcotest.(check bool) "mono >= random energy" true
    (Assignment.pairwise_energy a >= Assignment.pairwise_energy r -. 1e-9)

let test_mono_respects_candidates () =
  (* host 0 cannot run the popular product; falls back *)
  let net =
    mk_net
      ~host_services:(fun h ->
        if h = 0 then [ (0, [| 2 |]) ] else [ (0, [| 0; 1 |]) ])
      ()
  in
  let a = Assignment.mono net in
  Alcotest.(check int) "fallback" 2 (Assignment.get a ~host:0 ~service:0)

let test_pairwise_energy_cycle () =
  let net = mk_net () in
  let a = Assignment.make net (fun ~host:_ ~service:_ -> 0) in
  (* cycle of 6: six edges, both services identical -> sim 1 + 1 per edge *)
  Alcotest.(check (float 1e-9)) "all same" 12.0 (Assignment.pairwise_energy a);
  let rates = Assignment.edge_infection_rates a in
  Alcotest.(check int) "six edges" 6 (List.length rates);
  List.iter
    (fun (_, sims) ->
      Alcotest.(check (array (float 1e-9))) "per-service" [| 1.0; 1.0 |] sims)
    rates

(* ----------------------------------------------------------- constraint *)

let test_constraint_validate () =
  let net = mk_net () in
  let ok = Constr.Fix { host = 0; service = 0; product = 1 } in
  Alcotest.(check bool) "valid fix" true (Constr.validate net ok = Ok ());
  let bad_product = Constr.Fix { host = 0; service = 0; product = 9 } in
  Alcotest.(check bool) "invalid product" true
    (Result.is_error (Constr.validate net bad_product));
  let bad_host = Constr.Fix { host = 99; service = 0; product = 0 } in
  Alcotest.(check bool) "invalid host" true
    (Result.is_error (Constr.validate net bad_host));
  let not_candidate =
    let net' = mk_net ~host_services:(fun _ -> [ (0, [| 0 |]) ]) () in
    Constr.validate net' (Constr.Fix { host = 0; service = 0; product = 1 })
  in
  Alcotest.(check bool) "not a candidate" true (Result.is_error not_candidate);
  let same_service =
    Constr.Requires
      { scope = Constr.All; service_m = 0; product_j = 0; service_n = 0;
        product_l = 1 }
  in
  Alcotest.(check bool) "same service twice" true
    (Result.is_error (Constr.validate net same_service))

let test_constraint_satisfied () =
  let net = mk_net () in
  let a = Assignment.make net (fun ~host:_ ~service -> if service = 0 then 1 else 0) in
  Alcotest.(check bool) "fix holds" true
    (Constr.satisfied net a (Constr.Fix { host = 2; service = 0; product = 1 }));
  Alcotest.(check bool) "fix broken" false
    (Constr.satisfied net a (Constr.Fix { host = 2; service = 0; product = 0 }));
  let requires =
    Constr.Requires
      { scope = Constr.All; service_m = 0; product_j = 1; service_n = 1;
        product_l = 0 }
  in
  Alcotest.(check bool) "requires holds" true (Constr.satisfied net a requires);
  let forbids =
    Constr.Forbids
      { scope = Constr.All; service_m = 0; product_j = 1; service_n = 1;
        product_k = 0 }
  in
  Alcotest.(check bool) "forbids broken" false (Constr.satisfied net a forbids);
  (* conditional: antecedent false -> vacuously satisfied *)
  let vacuous =
    Constr.Forbids
      { scope = Constr.All; service_m = 0; product_j = 2; service_n = 1;
        product_k = 0 }
  in
  Alcotest.(check bool) "vacuous" true (Constr.satisfied net a vacuous)

let test_apply_fixes () =
  let net = mk_net () in
  let a = Assignment.make net (fun ~host:_ ~service:_ -> 0) in
  let cs = [ Constr.Fix { host = 3; service = 1; product = 1 } ] in
  let a' = Constr.apply_fixes net cs a in
  Alcotest.(check int) "fixed" 1 (Assignment.get a' ~host:3 ~service:1);
  Alcotest.(check int) "others kept" 0 (Assignment.get a' ~host:2 ~service:1)

(* --------------------------------------------------------------- encode *)

let test_encode_shape () =
  let net = mk_net () in
  let e = Encode.encode net [] in
  Alcotest.(check int) "vars = slots" 12 (Encode.n_vars e);
  (* cycle: 6 links x 2 shared services = 12 similarity edges *)
  Alcotest.(check int) "mrf edges" 12
    (Netdiv_mrf.Mrf.n_edges (Encode.mrf e));
  let v = Option.get (Encode.var_of e ~host:2 ~service:1) in
  Alcotest.(check (pair int int)) "slot round-trip" (2, 1)
    (Encode.slot_of e v)

(* [edge_counts] is what [encode] adds, on a workload instance and on
   the case study with each constraint set.  C1 only fixes products; C2
   adds four [Forbids] over all hosts, one edge per host that runs both
   the OS and the browser, fewer than the hosts in scope. *)
let test_encode_edge_counts () =
  let check name net constraints =
    let links, combos = Encode.edge_counts net constraints in
    Alcotest.(check int) name
      (Netdiv_mrf.Mrf.n_edges (Encode.mrf (Encode.encode net constraints)))
      (links + combos);
    combos
  in
  let workload =
    Netdiv_workload.Workload.instance
      { Netdiv_workload.Workload.default with hosts = 60 }
  in
  Alcotest.(check int) "workload: no combination edges" 0
    (check "workload, 60 hosts" workload []);
  let case = Netdiv_casestudy.Products.network () in
  ignore (check "case study" case [] : int);
  Alcotest.(check int) "C1: no combination edges" 0
    (check "C1" case (Netdiv_casestudy.Products.host_constraints case));
  let combos =
    check "C2" case (Netdiv_casestudy.Products.product_constraints case)
  in
  Alcotest.(check bool) "C2: some hosts in scope, not all" true
    (combos > 0 && combos < 4 * Network.n_hosts case)

let test_encode_fix_restricts () =
  let net = mk_net () in
  let e =
    Encode.encode net [ Constr.Fix { host = 0; service = 0; product = 2 } ]
  in
  let v = Option.get (Encode.var_of e ~host:0 ~service:0) in
  Alcotest.(check (array int)) "single label" [| 2 |] (Encode.labels_of e v);
  (* conflicting fixes rejected *)
  match
    Encode.encode net
      [ Constr.Fix { host = 0; service = 0; product = 2 };
        Constr.Fix { host = 0; service = 0; product = 1 } ]
  with
  | _ -> Alcotest.fail "accepted conflicting fixes"
  | exception Invalid_argument _ -> ()

let test_encode_decode_roundtrip () =
  let net = mk_net () in
  let e = Encode.encode net [] in
  let a = Assignment.random ~rng:(rng 5) net in
  let labeling = Encode.labeling_of e a in
  let a' = Encode.decode e labeling in
  Alcotest.(check bool) "round-trip" true (Assignment.equal a a')

let test_encode_energy_matches () =
  (* MRF energy = prconst * slots + pairwise similarity sum *)
  let net = mk_net () in
  let e = Encode.encode ~prconst:0.25 net [] in
  let a = Assignment.random ~rng:(rng 9) net in
  Alcotest.(check (float 1e-9)) "energy decomposition"
    ((0.25 *. 12.0) +. Assignment.pairwise_energy a)
    (Encode.assignment_energy e a)

let test_encode_combo_penalty () =
  let net = mk_net () in
  let forbids =
    Constr.Forbids
      { scope = Constr.Host 0; service_m = 0; product_j = 0; service_n = 1;
        product_k = 1 }
  in
  let e = Encode.encode ~big_m:1000.0 net [ forbids ] in
  let violating =
    Assignment.make net (fun ~host:_ ~service -> if service = 0 then 0 else 1)
  in
  let fine =
    Assignment.make net (fun ~host:_ ~service -> if service = 0 then 0 else 0)
  in
  Alcotest.(check bool) "penalized" true
    (Encode.assignment_energy e violating
     -. Encode.assignment_energy e fine > 900.0)

(* ------------------------------------------------------------- optimize *)

let test_optimize_unconstrained () =
  let net = mk_net ~graph:(Gen.cycle 6) () in
  let r = Optimize.run net [] in
  Alcotest.(check bool) "constraints ok" true r.Optimize.constraints_ok;
  (* even cycle with a zero-similarity product pair: service 0 can
     2-color with A/C (sim 0); service 1 best alternation costs 0.3/edge *)
  let mono = Assignment.mono net in
  Alcotest.(check bool) "beats mono" true
    (Assignment.pairwise_energy r.Optimize.assignment
     < Assignment.pairwise_energy mono);
  Alcotest.(check (float 1e-6)) "service-0 perfectly diverse" 1.8
    (Assignment.pairwise_energy r.Optimize.assignment)

let test_optimize_respects_fix () =
  let net = mk_net () in
  let cs =
    [ Constr.Fix { host = 0; service = 0; product = 1 };
      Constr.Fix { host = 3; service = 1; product = 1 } ]
  in
  let r = Optimize.run net cs in
  Alcotest.(check bool) "ok" true r.Optimize.constraints_ok;
  Alcotest.(check int) "fix 1" 1
    (Assignment.get r.Optimize.assignment ~host:0 ~service:0);
  Alcotest.(check int) "fix 2" 1
    (Assignment.get r.Optimize.assignment ~host:3 ~service:1)

let test_optimize_respects_combos () =
  let net = mk_net () in
  let cs =
    [ Constr.Forbids
        { scope = Constr.All; service_m = 0; product_j = 0; service_n = 1;
          product_k = 0 };
      Constr.Requires
        { scope = Constr.Host 1; service_m = 0; product_j = 1; service_n = 1;
          product_l = 1 } ]
  in
  let r = Optimize.run net cs in
  Alcotest.(check bool) "combos satisfied" true r.Optimize.constraints_ok

let test_optimize_solver_ablation () =
  let net = mk_net ~graph:(Gen.gnm ~rng:(rng 11) ~n:30 ~m:90) () in
  let trws_icm = Optimize.run ~solver:Optimize.Trws_icm net [] in
  let trws = Optimize.run ~solver:Optimize.Trws net [] in
  let icm = Optimize.run ~solver:Optimize.Icm net [] in
  (* the ICM polish can only improve the raw TRW-S decode *)
  Alcotest.(check bool) "polish helps" true
    (trws_icm.Optimize.energy <= trws.Optimize.energy +. 1e-9);
  (* the dual bound is valid for every solver's primal *)
  List.iter
    (fun (r : Optimize.report) ->
      Alcotest.(check bool) "bound below every primal" true
        (trws.Optimize.lower_bound <= r.Optimize.energy +. 1e-9))
    [ trws_icm; trws; icm ];
  (* and every solver beats the homogeneous deployment *)
  let e = Encode.encode net [] in
  let mono = Encode.assignment_energy e (Assignment.mono net) in
  List.iter
    (fun (r : Optimize.report) ->
      Alcotest.(check bool) "beats mono" true (r.Optimize.energy < mono))
    [ trws_icm; trws; icm ]

let test_optimize_exact_on_small () =
  (* brute-force certificate on a tiny instance *)
  let net = mk_net ~graph:(Gen.line 4) () in
  let e = Encode.encode net [] in
  let exact = Brute.solve (Encode.mrf e) in
  let r = Optimize.run net [] in
  Alcotest.(check (float 1e-6)) "optimal on trees"
    exact.Netdiv_mrf.Solver.energy r.Optimize.energy

let test_refine_respects_new_constraint () =
  let net = mk_net () in
  let base = Optimize.run net [] in
  let fresh = [ Constr.Fix { host = 0; service = 0; product = 1 } ] in
  let refined = Optimize.refine ~previous:base.Optimize.assignment net fresh in
  Alcotest.(check bool) "constraints ok" true refined.Optimize.constraints_ok;
  Alcotest.(check int) "fix applied" 1
    (Assignment.get refined.Optimize.assignment ~host:0 ~service:0);
  (* warm-started refinement stays close to the full re-solve *)
  let full = Optimize.run net fresh in
  Alcotest.(check bool) "close to full re-solve" true
    (refined.Optimize.energy <= full.Optimize.energy +. 0.5)

let test_refine_improves_bad_start () =
  let net = mk_net () in
  let mono = Assignment.mono net in
  let refined = Optimize.refine ~previous:mono net [] in
  let e = Encode.encode net [] in
  Alcotest.(check bool) "improves mono" true
    (refined.Optimize.energy < Encode.assignment_energy e mono)

let test_refine_edge_weight () =
  let net = mk_net () in
  let base = Optimize.run net [] in
  let refined =
    Optimize.refine ~edge_weight:(fun _ _ -> 2.0)
      ~previous:base.Optimize.assignment net []
  in
  (* doubled weights double the pairwise part of the energy *)
  Alcotest.(check bool) "weighted energy larger" true
    (refined.Optimize.energy > base.Optimize.energy)

(* ----------------------------------------------------------------- cost *)

(* product 0 of each service is the expensive incumbent; others free *)
let incumbent_cost ~host:_ ~service:_ ~product =
  if product = 0 then 3.0 else 0.0

let test_cost_total () =
  let net = mk_net () in
  let a = Assignment.make net (fun ~host:_ ~service:_ -> 0) in
  Alcotest.(check (float 1e-9)) "all incumbent" 36.0
    (Cost.total_cost incumbent_cost a);
  let b = Assignment.make net (fun ~host:_ ~service:_ -> 1) in
  Alcotest.(check (float 1e-9)) "all free" 0.0
    (Cost.total_cost incumbent_cost b)

let test_cost_lambda_zero_is_plain () =
  let net = mk_net () in
  let plain = Optimize.run net [] in
  let p = Cost.optimize ~cost:incumbent_cost ~lambda:0.0 net [] in
  (* Cost.point.energy is measured under the plain encoding, which
     already carries the Pr_const unaries *)
  Alcotest.(check (float 1e-6)) "same energy" plain.Optimize.energy
    p.Cost.energy

let test_cost_tradeoff_monotone () =
  let net = mk_net () in
  let cheap = Cost.optimize ~cost:incumbent_cost ~lambda:50.0 net [] in
  let free = Cost.optimize ~cost:incumbent_cost ~lambda:0.0 net [] in
  Alcotest.(check bool) "paying for cost lowers cost" true
    (cheap.Cost.cost <= free.Cost.cost);
  Alcotest.(check bool) "and can only raise energy" true
    (cheap.Cost.energy >= free.Cost.energy -. 1e-9);
  Alcotest.(check (float 1e-9)) "high lambda avoids the incumbent" 0.0
    cheap.Cost.cost

let test_cost_pareto () =
  let net = mk_net () in
  let points =
    Cost.pareto ~cost:incumbent_cost ~lambdas:[ 0.0; 0.01; 0.1; 1.0; 10.0 ]
      net []
  in
  Alcotest.(check bool) "non-empty" true (points <> []);
  (* sorted by cost, strictly improving energy *)
  let rec check_front = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "cost sorted" true (a.Cost.cost <= b.Cost.cost);
        Alcotest.(check bool) "energy improves" true
          (b.Cost.energy < a.Cost.energy);
        check_front rest
    | _ -> ()
  in
  check_front points

let test_cost_budget () =
  let net = mk_net () in
  (match Cost.cheapest_under ~cost:incumbent_cost ~budget:0.0 net [] with
  | Some p -> Alcotest.(check (float 1e-9)) "budget met" 0.0 p.Cost.cost
  | None -> Alcotest.fail "a zero-cost assignment exists");
  match Cost.cheapest_under ~cost:incumbent_cost ~budget:1e9 net [] with
  | Some p ->
      (* unconstrained budget: the plain optimum *)
      let plain = Optimize.run net [] in
      Alcotest.(check bool) "plain optimum affordable" true
        (p.Cost.energy
        <= plain.Optimize.energy +. 1e-6)
  | None -> Alcotest.fail "every assignment is affordable"

let test_cost_validation () =
  let net = mk_net () in
  (match Cost.optimize ~cost:incumbent_cost ~lambda:(-1.0) net [] with
  | _ -> Alcotest.fail "accepted negative lambda"
  | exception Invalid_argument _ -> ());
  match
    Cost.optimize
      ~cost:(fun ~host:_ ~service:_ ~product:_ -> -1.0)
      ~lambda:1.0 net []
  with
  | _ -> Alcotest.fail "accepted negative cost"
  | exception Invalid_argument _ -> ()

(* --------------------------------------------------------------- serial *)

let test_network_roundtrip () =
  let net = mk_net ~host_services:(fun h ->
      if h = 0 then [ (0, [| 1; 2 |]) ] else [ (0, [||]); (1, [||]) ]) () in
  match Serial.network_of_string (Serial.network_to_string ~pretty:true net) with
  | Error e -> Alcotest.fail e
  | Ok net' ->
      Alcotest.(check int) "hosts" (Network.n_hosts net) (Network.n_hosts net');
      Alcotest.(check int) "edges"
        (Graph.n_edges (Network.graph net))
        (Graph.n_edges (Network.graph net'));
      Alcotest.(check (array int)) "restricted candidates survive" [| 1; 2 |]
        (Network.candidates net' ~host:0 ~service:0);
      Alcotest.(check (array int)) "full candidates survive" [| 0; 1; 2 |]
        (Network.candidates net' ~host:1 ~service:0);
      Alcotest.(check (float 1e-12)) "similarity survives"
        (Network.similarity net ~service:0 0 1)
        (Network.similarity net' ~service:0 0 1)

let test_assignment_roundtrip () =
  let net = mk_net () in
  let a = Assignment.random ~rng:(rng 21) net in
  match Serial.assignment_of_string net (Serial.assignment_to_string a) with
  | Ok a' -> Alcotest.(check bool) "equal" true (Assignment.equal a a')
  | Error e -> Alcotest.fail e

let test_casestudy_roundtrip () =
  (* the big one: the whole ICS network survives serialization and the
     deserialized instance optimizes to the same energy *)
  let net = Netdiv_casestudy.Products.network () in
  match Serial.network_of_string (Serial.network_to_string net) with
  | Error e -> Alcotest.fail e
  | Ok net' ->
      let r = Optimize.run net [] and r' = Optimize.run net' [] in
      Alcotest.(check (float 1e-9)) "same optimal energy" r.Optimize.energy
        r'.Optimize.energy

let test_serial_errors () =
  List.iter
    (fun s ->
      match Serial.network_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "{}"; {|{"services":[],"hosts":[],"links":3}|};
      {|{"services":[],"hosts":[{"name":"a","services":[{"service":"nope"}]}],"links":[]}|};
      {|{"services":[{"name":"s","products":["p"],"similarity":[1.0]}],"hosts":[{"name":"a","services":[]}],"links":[["a","b"]]}|} ];
  let net = mk_net () in
  match Serial.assignment_of_string net {|{"assignment":[]}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted incomplete assignment"

let test_serial_similarity_range () =
  (* similarity entries feed MRF energies directly; NaN or out-of-range
     values must be rejected with a path-qualified error *)
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let doc entry =
    Printf.sprintf
      {|{"services":[{"name":"db","products":["p","q"],"similarity":[1.0,%s,%s,1.0]}],"hosts":[],"links":[]}|}
      entry entry
  in
  List.iter
    (fun entry ->
      match Serial.network_of_string (doc entry) with
      | Ok _ -> Alcotest.failf "accepted similarity %s" entry
      | Error e ->
          Alcotest.(check bool)
            (entry ^ ": error is path-qualified")
            true
            (contains e "service \"db\"" && contains e "similarity[1]"))
    [ "-0.5"; "1.5" ];
  (* NaN cannot be written in JSON text, but a hand-built document can
     still carry one *)
  let module Json = Netdiv_vuln.Json in
  let nan_doc =
    Json.Object
      [
        ( "services",
          Json.List
            [
              Json.Object
                [
                  ("name", Json.String "db");
                  ("products", Json.List [ Json.String "p"; Json.String "q" ]);
                  ( "similarity",
                    Json.List
                      [
                        Json.Number 1.0; Json.Number nan; Json.Number nan;
                        Json.Number 1.0;
                      ] );
                ];
            ] );
        ("hosts", Json.List []);
        ("links", Json.List []);
      ]
  in
  (match Serial.network_of_json nan_doc with
  | Ok _ -> Alcotest.fail "accepted a NaN similarity"
  | Error e ->
      Alcotest.(check bool) "nan: error is path-qualified" true
        (contains e "similarity[1]"));
  (* boundary values are legal *)
  match Serial.network_of_string (doc "1.0") with
  | Ok _ -> (
      match Serial.network_of_string (doc "0.0") with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

let test_fully_frozen_network () =
  (* every candidate list is a singleton: nothing to optimize, but the
     whole pipeline must still work (the paper's pure-legacy limit) *)
  let net =
    mk_net ~host_services:(fun h ->
        [ (0, [| h mod 3 |]); (1, [| h mod 2 |]) ]) ()
  in
  let r = Optimize.run net [] in
  Alcotest.(check bool) "ok" true r.Optimize.constraints_ok;
  let forced = Assignment.first_candidate net in
  Alcotest.(check bool) "the only assignment" true
    (Assignment.equal r.Optimize.assignment forced);
  (* and the bound is exactly the energy: a frozen problem is trivially
     certified *)
  Alcotest.(check (float 1e-6)) "tight" r.Optimize.energy
    r.Optimize.lower_bound

(* ------------------------------------------------------------------ viz *)

let test_viz_dot () =
  let net = mk_net () in
  let a = Assignment.make net (fun ~host:_ ~service:_ -> 0) in
  let dot = Viz.assignment_dot ~entry:0 ~target:5 a in
  let contains needle =
    let rec search i =
      i + String.length needle <= String.length dot
      && (String.sub dot i (String.length needle) = needle || search (i + 1))
    in
    search 0
  in
  Alcotest.(check bool) "host label" true (contains "h3");
  Alcotest.(check bool) "product label" true (contains "A");
  Alcotest.(check bool) "entry shape" true (contains "shape=house");
  Alcotest.(check bool) "target shape" true (contains "shape=doubleoctagon");
  (* a mono assignment has identical products on every edge: highways *)
  Alcotest.(check bool) "worm highways highlighted" true
    (contains "color=red")

(* ------------------------------------------------------------- property *)

let net_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 10_000 in
    let* n = 3 -- 12 in
    let* m = n -- (n * (n - 1) / 2) in
    return (mk_net ~graph:(Gen.gnm ~rng:(Random.State.make [| seed |]) ~n ~m) ()))

let prop_optimizer_beats_baselines =
  QCheck2.Test.make ~count:30
    ~name:"optimized energy <= mono and <= random" net_gen (fun net ->
      let r = Optimize.run net [] in
      let e = Encode.encode net [] in
      let mono = Encode.assignment_energy e (Assignment.mono net) in
      let rand =
        Encode.assignment_energy e (Assignment.random ~rng:(rng 17) net)
      in
      r.Optimize.energy <= mono +. 1e-9 && r.Optimize.energy <= rand +. 1e-9)

let prop_serial_roundtrip =
  QCheck2.Test.make ~count:25
    ~name:"serialization round-trips random networks" net_gen (fun net ->
      match Serial.network_of_string (Serial.network_to_string net) with
      | Error _ -> false
      | Ok net' ->
          Network.n_hosts net = Network.n_hosts net'
          && Graph.edges (Network.graph net) = Graph.edges (Network.graph net')
          &&
          let a = Assignment.first_candidate net in
          let a' = Assignment.first_candidate net' in
          Assignment.pairwise_energy a = Assignment.pairwise_energy a')

let prop_fixes_always_respected =
  QCheck2.Test.make ~count:30 ~name:"Fix constraints always hold" net_gen
    (fun net ->
      let cs = [ Constr.Fix { host = 0; service = 0; product = 2 } ] in
      let r = Optimize.run net cs in
      r.Optimize.constraints_ok
      && Assignment.get r.Optimize.assignment ~host:0 ~service:0 = 2)

let () =
  Alcotest.run "core"
    [
      ( "network",
        [
          Alcotest.test_case "basics" `Quick test_network_basics;
          Alcotest.test_case "validation" `Quick test_network_validation;
          Alcotest.test_case "candidates" `Quick test_candidates;
        ] );
      ( "assignment",
        [
          Alcotest.test_case "make/get" `Quick test_assignment_make_get;
          Alcotest.test_case "rejects non-candidates" `Quick
            test_assignment_rejects_non_candidate;
          Alcotest.test_case "mono" `Quick test_mono_assignment;
          Alcotest.test_case "mono respects candidates" `Quick
            test_mono_respects_candidates;
          Alcotest.test_case "pairwise energy" `Quick
            test_pairwise_energy_cycle;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "validate" `Quick test_constraint_validate;
          Alcotest.test_case "satisfied" `Quick test_constraint_satisfied;
          Alcotest.test_case "apply_fixes" `Quick test_apply_fixes;
        ] );
      ( "encode",
        [
          Alcotest.test_case "shape" `Quick test_encode_shape;
          Alcotest.test_case "edge counts" `Quick test_encode_edge_counts;
          Alcotest.test_case "fix restricts labels" `Quick
            test_encode_fix_restricts;
          Alcotest.test_case "decode round-trip" `Quick
            test_encode_decode_roundtrip;
          Alcotest.test_case "energy decomposition" `Quick
            test_encode_energy_matches;
          Alcotest.test_case "combination penalty" `Quick
            test_encode_combo_penalty;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "unconstrained beats mono" `Quick
            test_optimize_unconstrained;
          Alcotest.test_case "respects Fix" `Quick test_optimize_respects_fix;
          Alcotest.test_case "respects combinations" `Quick
            test_optimize_respects_combos;
          Alcotest.test_case "solver ablation" `Quick
            test_optimize_solver_ablation;
          Alcotest.test_case "exact on a tree" `Quick
            test_optimize_exact_on_small;
          Alcotest.test_case "refine respects new constraint" `Quick
            test_refine_respects_new_constraint;
          Alcotest.test_case "refine improves a bad start" `Quick
            test_refine_improves_bad_start;
          Alcotest.test_case "refine with edge weights" `Quick
            test_refine_edge_weight;
        ] );
      ( "cost",
        [
          Alcotest.test_case "total cost" `Quick test_cost_total;
          Alcotest.test_case "lambda 0 = plain" `Quick
            test_cost_lambda_zero_is_plain;
          Alcotest.test_case "trade-off monotone" `Quick
            test_cost_tradeoff_monotone;
          Alcotest.test_case "pareto front" `Quick test_cost_pareto;
          Alcotest.test_case "budget bisection" `Quick test_cost_budget;
          Alcotest.test_case "validation" `Quick test_cost_validation;
        ] );
      ( "serial",
        [
          Alcotest.test_case "network round-trip" `Quick
            test_network_roundtrip;
          Alcotest.test_case "assignment round-trip" `Quick
            test_assignment_roundtrip;
          Alcotest.test_case "case-study round-trip" `Quick
            test_casestudy_roundtrip;
          Alcotest.test_case "malformed inputs" `Quick test_serial_errors;
          Alcotest.test_case "similarity range" `Quick
            test_serial_similarity_range;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "fully frozen network" `Quick
            test_fully_frozen_network;
        ] );
      ( "viz",
        [ Alcotest.test_case "assignment dot" `Quick test_viz_dot ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_optimizer_beats_baselines;
          QCheck_alcotest.to_alcotest prop_fixes_always_respected;
          QCheck_alcotest.to_alcotest prop_serial_roundtrip;
        ] );
    ]
