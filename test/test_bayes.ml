(* Tests for the Bayesian-network substrate: factors, CPDs, exact and
   approximate inference, and the attack-BN diversity metric. *)

open Netdiv_bayes
module Gen = Netdiv_graph.Gen
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Scaled = Netdiv_casestudy.Scaled

let check_float = Alcotest.(check (float 1e-9))
let rng seed = Random.State.make [| seed |]

(* --------------------------------------------------------------- factor *)

(* Bn's tables: CPTs over binary variables, state 1 for true. *)

module Bucket = Netdiv_graph.Bucket

(* every entry of a CPT factor over [node] and [parents], read through
   its strides, is [p parent_values k] for the labeling it stands for *)
let check_cpd ~card (f : Bucket.factor) node parents p =
  Alcotest.(check (array int)) "scope" (Array.append [| node |] parents)
    f.vars;
  let x = Array.make (1 + Array.fold_left max node parents) 0 in
  let rec each j =
    if j = Array.length parents then
      for k = 0 to card node - 1 do
        x.(node) <- k;
        let pv = Array.map (Array.get x) parents in
        check_float "entry" (p pv k) f.table.(Bucket.index f x)
      done
    else
      for v = 0 to card parents.(j) - 1 do
        x.(parents.(j)) <- v;
        each (j + 1)
      done
  in
  each 0

let test_factor_of_cpd () =
  (* the node's state fastest, then the parents in the order given *)
  let f =
    Mfactor.of_cpd ~card:(fun _ -> 2) 5 ~parents:[| 3; 1 |] (fun pv k ->
        float_of_int (k + (2 * pv.(0)) + (4 * pv.(1))))
  in
  Alcotest.(check (array int)) "strides" [| 1; 2; 4 |] f.strides;
  Alcotest.(check (array (float 0.0))) "table"
    (Array.init 8 float_of_int) f.table;
  (* Bn's noisy-OR, its parents out of id order *)
  let bn = Bn.create () in
  let a = Bn.add bn ~name:"a" ~parents:[||] (Bn.Table [| 0.4 |]) in
  let b = Bn.add bn ~name:"b" ~parents:[||] (Bn.Table [| 0.7 |]) in
  let c =
    Bn.add bn ~name:"c" ~parents:[| b; a |]
      (Bn.Noisy_or { rates = [| 0.5; 0.25 |]; leak = 0.1 })
  in
  check_cpd ~card:(fun _ -> 2) (Bn.node_factor bn c) c [| b; a |]
    (fun pv k ->
      let p = Bn.prob_true bn c (Array.map (( = ) 1) pv) in
      if k = 1 then p else 1.0 -. p)

let test_factor_validation () =
  (* 2^26 entries are over the limit, checked before tabulating *)
  match
    Mfactor.of_cpd ~card:(fun _ -> 2) 25 ~parents:(Array.init 25 Fun.id)
      (fun _ _ -> 0.0)
  with
  | _ -> Alcotest.fail "accepted 26 binary variables"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------- bn *)

let test_bn_build () =
  let bn = Bn.create () in
  let a = Bn.add bn ~name:"a" ~parents:[||] (Bn.Table [| 0.4 |]) in
  let b =
    Bn.add bn ~name:"b" ~parents:[| a |] (Bn.Table [| 0.1; 0.9 |])
  in
  Alcotest.(check int) "two nodes" 2 (Bn.n_nodes bn);
  Alcotest.(check bool) "find" true (Bn.find bn "b" = Some b);
  check_float "root prior" 0.4 (Bn.prob_true bn a [||]);
  check_float "cpd" 0.9 (Bn.prob_true bn b [| true |]);
  check_float "cpd2" 0.1 (Bn.prob_true bn b [| false |])

let test_bn_validation () =
  let bn = Bn.create () in
  (match Bn.add bn ~name:"x" ~parents:[| 5 |] (Bn.Table [| 0.5; 0.5 |]) with
  | _ -> Alcotest.fail "accepted forward parent"
  | exception Invalid_argument _ -> ());
  (match Bn.add bn ~name:"x" ~parents:[||] (Bn.Table [| 1.5 |]) with
  | _ -> Alcotest.fail "accepted probability > 1"
  | exception Invalid_argument _ -> ());
  match Bn.add bn ~name:"x" ~parents:[||] (Bn.Table [| 0.5; 0.5 |]) with
  | _ -> Alcotest.fail "accepted oversized CPT"
  | exception Invalid_argument _ -> ()

let test_noisy_or () =
  let bn = Bn.create () in
  let a = Bn.add bn ~name:"a" ~parents:[||] (Bn.Table [| 1.0 |]) in
  let b = Bn.add bn ~name:"b" ~parents:[||] (Bn.Table [| 1.0 |]) in
  let c =
    Bn.add bn ~name:"c" ~parents:[| a; b |]
      (Bn.Noisy_or { rates = [| 0.5; 0.5 |]; leak = 0.0 })
  in
  check_float "both parents" 0.75 (Bn.prob_true bn c [| true; true |]);
  check_float "one parent" 0.5 (Bn.prob_true bn c [| true; false |]);
  check_float "no parent" 0.0 (Bn.prob_true bn c [| false; false |]);
  let leaky =
    Bn.add bn ~name:"d" ~parents:[| a |]
      (Bn.Noisy_or { rates = [| 0.5 |]; leak = 0.2 })
  in
  check_float "leak only" 0.2 (Bn.prob_true bn leaky [| false |]);
  check_float "leak + cause" 0.6 (Bn.prob_true bn leaky [| true |])

(* ---------------------------------------------------------------- infer *)

(* a known three-node chain: P(c=T) by hand *)
let chain_bn () =
  let bn = Bn.create () in
  let a = Bn.add bn ~name:"a" ~parents:[||] (Bn.Table [| 0.6 |]) in
  let b = Bn.add bn ~name:"b" ~parents:[| a |] (Bn.Table [| 0.2; 0.7 |]) in
  let c = Bn.add bn ~name:"c" ~parents:[| b |] (Bn.Table [| 0.1; 0.5 |]) in
  (bn, a, b, c)

let test_exact_chain () =
  let bn, _, b, c = chain_bn () in
  (* P(b) = .6*.7 + .4*.2 = 0.5 ; P(c) = .5*.5 + .5*.1 = 0.3 *)
  check_float "P(b)" 0.5 (Infer.exact_marginal bn b);
  check_float "P(c)" 0.3 (Infer.exact_marginal bn c)

let test_exact_with_evidence () =
  let bn, a, _, c = chain_bn () in
  (* conditioning on the root changes the leaf *)
  let p_given_a = Infer.exact_marginal ~evidence:[ (a, true) ] bn c in
  check_float "P(c|a)" ((0.7 *. 0.5) +. (0.3 *. 0.1)) p_given_a;
  (* and diagnostic reasoning: P(a|c) via Bayes *)
  let p_a_given_c = Infer.exact_marginal ~evidence:[ (c, true) ] bn a in
  let expected = 0.6 *. ((0.7 *. 0.5) +. (0.3 *. 0.1)) /. 0.3 in
  check_float "P(a|c)" expected p_a_given_c;
  (* evidence on the query is a point mass on the observed value *)
  check_float "P(a|a)" 1.0 (Infer.exact_marginal ~evidence:[ (a, true) ] bn a);
  check_float "P(c|not c)" 0.0
    (Infer.exact_marginal ~evidence:[ (c, false) ] bn c);
  match Infer.exact_marginal ~evidence:[ (a, true); (a, false) ] bn a with
  | _ -> Alcotest.fail "accepted contradictory evidence"
  | exception Invalid_argument _ -> ()

let random_dag_bn rng n =
  let bn = Bn.create () in
  for i = 0 to n - 1 do
    let parents =
      List.init i Fun.id
      |> List.filter (fun _ -> Random.State.float rng 1.0 < 0.4)
      |> Array.of_list
    in
    let k = Array.length parents in
    if k <= 3 then
      ignore
        (Bn.add bn ~name:(string_of_int i) ~parents
           (Bn.Table (Array.init (1 lsl k) (fun _ -> Random.State.float rng 1.0))))
    else
      ignore
        (Bn.add bn ~name:(string_of_int i) ~parents
           (Bn.Noisy_or
              { rates = Array.init k (fun _ -> Random.State.float rng 1.0);
                leak = 0.05 }))
  done;
  bn

let test_exact_vs_brute () =
  for seed = 1 to 10 do
    let bn = random_dag_bn (rng seed) (5 + (seed mod 4)) in
    let q = Bn.n_nodes bn - 1 in
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "seed %d" seed)
      (Infer.joint_brute_force bn q)
      (Infer.exact_marginal bn q)
  done

(* [Some] answer, or [None] when the query raises [Invalid_argument] *)
let outcome f =
  match f () with x -> Some x | exception Invalid_argument _ -> None

(* evidence on the first nodes, on the last node (below every other
   query), on the query itself, and on the query and the last node at once
   (contradictory when the query is the last node) *)
let evidence_sets ~n q =
  let last = n - 1 in
  [ [ (0, true); (last / 2, false) ]; [ (last, true) ]; [ (q, true) ];
    [ (q, false) ]; [ (q, true); (last, false) ] ]

let test_exact_vs_brute_evidence () =
  for seed = 1 to 10 do
    let bn = random_dag_bn (rng (50 + seed)) 6 in
    for q = 0 to 5 do
      List.iter
        (fun evidence ->
          Alcotest.(check (option (float 1e-9)))
            (Printf.sprintf "seed %d query %d" seed q)
            (outcome (fun () -> Infer.joint_brute_force ~evidence bn q))
            (outcome (fun () -> Infer.exact_marginal ~evidence bn q)))
        (evidence_sets ~n:6 q)
    done
  done

(* a k x k grid DAG, each cell a noisy-OR of its upper and left
   neighbours: treewidth k *)
let grid_bn k =
  let bn = Bn.create () in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      let parents =
        Array.of_list
          ((if i > 0 then [ ((i - 1) * k) + j ] else [])
          @ if j > 0 then [ (i * k) + j - 1 ] else [])
      in
      ignore
        (Bn.add bn ~name:(Printf.sprintf "%d,%d" i j) ~parents
           (Bn.Noisy_or
              { rates = Array.map (fun _ -> 0.5) parents; leak = 0.1 }))
    done
  done;
  bn

let test_width_check () =
  (* the plan needs a table far above 25 variables: the query must raise
     before any such table is allocated *)
  let bn = grid_bn 30 in
  let before = Gc.allocated_bytes () in
  (match Infer.exact_marginal bn (Bn.n_nodes bn - 1) with
  | _ -> Alcotest.fail "answered a treewidth-30 query exactly"
  | exception Invalid_argument _ -> ());
  let mb = (Gc.allocated_bytes () -. before) /. 1048576.0 in
  if mb >= 8.0 then Alcotest.failf "allocated %.1f MB before raising" mb

let test_sampling_converges () =
  let bn, _, _, c = chain_bn () in
  let estimate =
    Infer.estimate_marginal ~rng:(rng 3) ~samples:100_000 bn c
  in
  Alcotest.(check (float 0.01)) "forward estimate" 0.3 estimate;
  let weighted =
    Infer.estimate_marginal ~rng:(rng 4) ~samples:100_000
      ~evidence:[ (0, true) ] bn c
  in
  Alcotest.(check (float 0.01)) "weighted estimate" 0.38 weighted

let test_forward_sample_root () =
  let bn = Bn.create () in
  let a = Bn.add bn ~name:"a" ~parents:[||] (Bn.Table [| 1.0 |]) in
  let values = Infer.forward_sample ~rng:(rng 5) bn in
  Alcotest.(check bool) "certain root" true values.(a)

(* -------------------------------------------------------------- mfactor *)

let test_mfactor_of_cpd () =
  let card v = 2 + (v mod 3) in
  let p pv k = float_of_int ((1000 * k) + (100 * pv.(0)) + (10 * pv.(1)) + pv.(2)) in
  check_cpd ~card (Mfactor.of_cpd ~card 4 ~parents:[| 2; 0; 3 |] p) 4
    [| 2; 0; 3 |] p;
  let root _ k = float_of_int k in
  check_cpd ~card (Mfactor.of_cpd ~card 1 ~parents:[||] root) 1 [||] root

let test_mfactor_validation () =
  (match Mfactor.of_cpd ~card:(fun v -> v) 0 ~parents:[||] (fun _ _ -> 1.0) with
  | _ -> Alcotest.fail "accepted card 0"
  | exception Invalid_argument _ -> ());
  (* 3^16 entries are over the limit *)
  match
    Mfactor.of_cpd ~card:(fun _ -> 3) 15 ~parents:(Array.init 15 Fun.id)
      (fun _ _ -> 0.0)
  with
  | _ -> Alcotest.fail "accepted 3^16 entries"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ dbn *)

let test_dbn_basic () =
  let bn = Dbn.create () in
  let die =
    Dbn.add bn ~name:"die" ~card:3 ~parents:[||] (fun _ k ->
        [| 0.5; 0.3; 0.2 |].(k))
  in
  let flag =
    Dbn.add bn ~name:"flag" ~card:2 ~parents:[| die |] (fun pv k ->
        let p_true = float_of_int pv.(0) /. 4.0 in
        if k = 1 then p_true else 1.0 -. p_true)
  in
  Alcotest.(check int) "cards" 3 (Dbn.card bn die);
  check_float "prior" 0.3 (Dbn.prob bn die [||] 1);
  (* P(flag) = 0.5*0 + 0.3*0.25 + 0.2*0.5 = 0.175 *)
  check_float "marginal" 0.175 (Dbn.marginal bn flag).(1);
  Alcotest.(check (array (float 1e-9))) "brute agrees"
    (Dbn.brute_marginal bn flag)
    (Dbn.marginal bn flag);
  (* diagnostic direction *)
  let d_given_flag = Dbn.marginal ~evidence:[ (flag, 1) ] bn die in
  check_float "P(die=2|flag)" (0.2 *. 0.5 /. 0.175) d_given_flag.(2);
  (* evidence on the query is a point mass on the observed state *)
  Alcotest.(check (array (float 1e-12))) "P(die|die=2)" [| 0.0; 0.0; 1.0 |]
    (Dbn.marginal ~evidence:[ (die, 2) ] bn die);
  (* a parent listed twice reads the CPT's diagonal, as brute force does *)
  let twice =
    Dbn.add bn ~name:"twice" ~card:2 ~parents:[| die; die |] (fun pv k ->
        let p_true = float_of_int (pv.(0) + (3 * pv.(1))) /. 8.0 in
        if k = 1 then p_true else 1.0 -. p_true)
  in
  Alcotest.(check (array (float 1e-12))) "repeated parent"
    (Dbn.brute_marginal bn twice) (Dbn.marginal bn twice);
  (* P(die=0, flag=1) = 0 *)
  match Dbn.marginal ~evidence:[ (die, 0); (flag, 1) ] bn flag with
  | _ -> Alcotest.fail "accepted zero-probability evidence"
  | exception Invalid_argument _ -> ()

let test_dbn_validation () =
  let bn = Dbn.create () in
  (match Dbn.add bn ~name:"x" ~card:2 ~parents:[||] (fun _ _ -> 0.4) with
  | _ -> Alcotest.fail "accepted row sum 0.8"
  | exception Invalid_argument _ -> ());
  match Dbn.add bn ~name:"x" ~card:0 ~parents:[||] (fun _ _ -> 1.0) with
  | _ -> Alcotest.fail "accepted card 0"
  | exception Invalid_argument _ -> ()

let random_dbn rng n =
  let bn = Dbn.create () in
  for i = 0 to n - 1 do
    let card = 2 + Random.State.int rng 3 in
    let parents =
      List.init i Fun.id
      |> List.filter (fun _ -> Random.State.float rng 1.0 < 0.4)
      |> Array.of_list
    in
    (* a dense random CPD, normalized per row *)
    let rows = Hashtbl.create 8 in
    ignore
      (Dbn.add bn ~name:(string_of_int i) ~card ~parents (fun pv k ->
           let key = Array.to_list pv in
           let row =
             match Hashtbl.find_opt rows key with
             | Some row -> row
             | None ->
                 let raw =
                   Array.init card (fun _ ->
                       0.05 +. Random.State.float rng 1.0)
                 in
                 let z = Array.fold_left ( +. ) 0.0 raw in
                 let row = Array.map (fun x -> x /. z) raw in
                 Hashtbl.add rows key row;
                 row
           in
           row.(k)))
  done;
  bn

let test_dbn_ve_vs_brute () =
  for seed = 1 to 10 do
    let bn = random_dbn (rng (400 + seed)) 6 in
    let q = Dbn.n_nodes bn - 1 in
    Alcotest.(check (array (float 1e-9)))
      (Printf.sprintf "seed %d" seed)
      (Dbn.brute_marginal bn q) (Dbn.marginal bn q)
  done

(* [evidence_sets]' nodes, each observed in a state drawn over its whole
   range, plus every state of the query alone *)
let dbn_evidence_sets rng bn q =
  let observe evidence =
    List.map (fun (v, _) -> (v, Random.State.int rng (Dbn.card bn v))) evidence
  in
  List.map observe (evidence_sets ~n:(Dbn.n_nodes bn) q)
  @ List.init (Dbn.card bn q) (fun k -> [ (q, k) ])

let test_dbn_ve_vs_brute_evidence () =
  for seed = 1 to 10 do
    let r = rng (500 + seed) in
    let bn = random_dbn r 6 in
    for q = 0 to 5 do
      List.iter
        (fun evidence ->
          Alcotest.(check (option (array (float 1e-9))))
            (Printf.sprintf "seed %d query %d" seed q)
            (outcome (fun () -> Dbn.brute_marginal ~evidence bn q))
            (outcome (fun () -> Dbn.marginal ~evidence bn q)))
        (dbn_evidence_sets r bn q)
    done
  done

let test_dbn_sampling () =
  let bn = Dbn.create () in
  let die =
    Dbn.add bn ~name:"die" ~card:3 ~parents:[||] (fun _ k ->
        [| 0.5; 0.3; 0.2 |].(k))
  in
  let rng = rng 77 in
  let counts = Array.make 3 0 in
  let samples = 50_000 in
  for _ = 1 to samples do
    let v = Dbn.sample ~rng bn in
    counts.(v.(die)) <- counts.(v.(die)) + 1
  done;
  Array.iteri
    (fun k expected ->
      Alcotest.(check (float 0.01))
        (Printf.sprintf "state %d" k)
        expected
        (float_of_int counts.(k) /. float_of_int samples))
    [| 0.5; 0.3; 0.2 |]

(* ------------------------------------------------------------ attack bn *)

(* tiny diversified network: line of 3 hosts, one service, two products
   with similarity 0.5 *)
let line_net () =
  let services =
    [| { Network.sv_name = "os"; sv_products = [| "A"; "B" |];
         sv_similarity = [| 1.0; 0.5; 0.5; 1.0 |] } |]
  in
  Network.create ~graph:(Gen.line 3) ~services
    ~hosts:
      (Array.init 3 (fun h ->
           { Network.h_name = Printf.sprintf "h%d" h;
             h_services = [ (0, [||]) ] }))

let test_edge_rate () =
  let net = line_net () in
  let alternating =
    Assignment.make net (fun ~host ~service:_ -> host mod 2)
  in
  Alcotest.(check (float 1e-9)) "uniform = scaled sim" (0.3 *. 0.5)
    (Attack_bn.edge_rate ~base_rate:0.3 ~sim_floor:0.0 alternating
       ~model:Attack_bn.Uniform_choice 0 1);
  Alcotest.(check (float 1e-9)) "fixed ignores products" 0.07
    (Attack_bn.edge_rate alternating ~model:(Attack_bn.Fixed 0.07) 0 1);
  let same = Assignment.make net (fun ~host:_ ~service:_ -> 0) in
  Alcotest.(check (float 1e-9)) "identical products" 0.3
    (Attack_bn.edge_rate ~base_rate:0.3 ~sim_floor:0.0 same
       ~model:Attack_bn.Best_choice 0 1)

let test_p_compromise_line () =
  let net = line_net () in
  let same = Assignment.make net (fun ~host:_ ~service:_ -> 0) in
  (* entry h0, target h2: rate q per hop, two hops -> q^2 *)
  let q = 0.3 in
  let p =
    Attack_bn.p_compromise ~base_rate:q ~sim_floor:0.0 same ~entry:0
      ~target:2 ~model:Attack_bn.Uniform_choice
  in
  check_float "two-hop chain" (q *. q) p;
  (* diversification halves each hop *)
  let alt = Assignment.make net (fun ~host ~service:_ -> host mod 2) in
  let p' =
    Attack_bn.p_compromise ~base_rate:q ~sim_floor:0.0 alt ~entry:0 ~target:2
      ~model:Attack_bn.Uniform_choice
  in
  check_float "diversified chain" (q *. 0.5 *. (q *. 0.5)) p'

let test_p_compromise_unreachable () =
  let services =
    [| { Network.sv_name = "os"; sv_products = [| "A" |];
         sv_similarity = [| 1.0 |] } |]
  in
  let graph = Netdiv_graph.Graph.of_edges ~n:3 [ (0, 1) ] in
  let net =
    Network.create ~graph ~services
      ~hosts:
        (Array.init 3 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services = [ (0, [||]) ] }))
  in
  let a = Assignment.first_candidate net in
  check_float "unreachable target" 0.0
    (Attack_bn.p_compromise a ~entry:0 ~target:2
       ~model:Attack_bn.Uniform_choice)

let test_entry_is_target () =
  let net = line_net () in
  let a = Assignment.first_candidate net in
  check_float "entry itself" 1.0
    (Attack_bn.p_compromise a ~entry:0 ~target:0
       ~model:Attack_bn.Uniform_choice)

let test_explicit_matches_marginalized () =
  (* the Section-VI construction with explicit attacker-choice nodes must
     agree with the noisy-OR marginalization, on every model *)
  let check_net net assignment =
    List.iter
      (fun model ->
        let p1 =
          Attack_bn.p_compromise assignment ~entry:0 ~target:2 ~model
        in
        let p2 =
          Attack_bn.p_compromise_explicit assignment ~entry:0 ~target:2
            ~model
        in
        check_float "explicit = marginalized" p1 p2)
      [ Attack_bn.Uniform_choice; Attack_bn.Best_choice;
        Attack_bn.Fixed 0.065 ];
    ignore net
  in
  let net = line_net () in
  check_net net (Assignment.make net (fun ~host ~service:_ -> host mod 2));
  check_net net (Assignment.make net (fun ~host:_ ~service:_ -> 0));
  (* and on a diamond with converging attack paths *)
  let services =
    [| { Network.sv_name = "os"; sv_products = [| "A"; "B" |];
         sv_similarity = [| 1.0; 0.4; 0.4; 1.0 |] } |]
  in
  let graph =
    Netdiv_graph.Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  let diamond =
    Network.create ~graph ~services
      ~hosts:
        (Array.init 4 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services = [ (0, [||]) ] }))
  in
  let a = Assignment.make diamond (fun ~host ~service:_ -> host mod 2) in
  List.iter
    (fun model ->
      check_float "diamond"
        (Attack_bn.p_compromise a ~entry:0 ~target:3 ~model)
        (Attack_bn.p_compromise_explicit a ~entry:0 ~target:3 ~model))
    [ Attack_bn.Uniform_choice; Attack_bn.Best_choice; Attack_bn.Fixed 0.1 ]

let test_explicit_case_study () =
  let net = Netdiv_casestudy.Products.network () in
  let a = Netdiv_casestudy.Experiments.compute_assignments net in
  let entry = Netdiv_casestudy.Topology.host "c4" in
  let target = Netdiv_casestudy.Topology.host "t5" in
  let assignment = a.Netdiv_casestudy.Experiments.optimal in
  check_float "case study agreement"
    (Attack_bn.p_compromise assignment ~entry ~target
       ~model:Attack_bn.Uniform_choice)
    (Attack_bn.p_compromise_explicit assignment ~entry ~target
       ~model:Attack_bn.Uniform_choice)

let test_scaled_exact () =
  (* the 256-host scaled ICS: every entry->target query is exact under
     both exploit models of d_bn, so d_bn never falls back to sampling *)
  let s = Scaled.generate ~seed:1 ~scale:8 () in
  let a = (Netdiv_core.Optimize.run s.Scaled.network []).assignment in
  let target = s.Scaled.target and entries = s.Scaled.entries in
  Alcotest.(check int) "four entries" 4 (List.length entries);
  List.iter
    (fun entry ->
      List.iter
        (fun model ->
          let bn, node_of = Attack_bn.build a ~entry ~model () in
          match Infer.exact_marginal bn node_of.(target) with
          | p ->
              Alcotest.(check bool) "a probability" true (p >= 0.0 && p <= 1.0)
          | exception Invalid_argument msg ->
              Alcotest.failf "entry %d: exact inference raised %s" entry msg)
        [ Attack_bn.Fixed Attack_bn.default_p_avg; Attack_bn.Uniform_choice ];
      Alcotest.(check bool)
        (Printf.sprintf "entry %d d_bn finite" entry)
        true
        (Float.is_finite (Attack_bn.diversity a ~entry ~target)))
    entries

(* the exact bits of P(target compromised), as %h, under both exploit
   models of d_bn: any change to the inference arithmetic shows here
   before it shows in a rounded table *)
let test_dbn_bit_pins () =
  let pin label ~fixed ~uniform p =
    Alcotest.(check string) (label ^ " fixed") fixed
      (Printf.sprintf "%h" (p (Attack_bn.Fixed Attack_bn.default_p_avg)));
    Alcotest.(check string) (label ^ " uniform") uniform
      (Printf.sprintf "%h" (p Attack_bn.Uniform_choice))
  in
  let net = Netdiv_casestudy.Products.network () in
  let entry = Netdiv_casestudy.Topology.host "c4" in
  let target = Netdiv_casestudy.Topology.host "t5" in
  let assignments =
    Netdiv_casestudy.Experiments.(labelled (compute_assignments net))
  in
  List.iter2
    (fun (label, a) (label', uniform) ->
      Alcotest.(check string) "row order" label' label;
      pin label ~fixed:"0x1.618466b5a33e5p-11" ~uniform (fun model ->
          Attack_bn.p_compromise a ~entry ~target ~model))
    assignments
    [ ("optimal", "0x1.a812a1a9e7f88p-11");
      ("host-constr", "0x1.25b42f34dd06p-10");
      ("product-constr", "0x1.25b42f34dd06p-10");
      ("random", "0x1.6866695411b51p-7");
      ("mono", "0x1.0429b71745da5p-5") ];
  let s = Scaled.generate ~seed:1 ~scale:5 () in
  let a = (Netdiv_core.Optimize.run s.Scaled.network []).assignment in
  List.iter2
    (fun entry (entry', fixed, uniform) ->
      Alcotest.(check int) "entry" entry' entry;
      pin (Printf.sprintf "scale 5 entry %d" entry) ~fixed ~uniform
        (fun model ->
          Attack_bn.p_compromise a ~entry ~target:s.Scaled.target ~model))
    s.Scaled.entries
    [ (0, "0x1.268d66e225787p-23", "0x1.454e5bae34c37p-17");
      (85, "0x1.2b7bd9c025488p-16", "0x1.1b1d92b7fe095p-18");
      (105, "0x1.9775a75bc9fe2p-19", "0x1.5ede286f14b15p-20");
      (130, "0x1.2812079ac962dp-11", "0x1.467e94357e77ap-7") ]

(* the same bits for the explicit construction, which reaches d_bn
   through [Dbn.marginal]: its sums run in another order than the
   marginalized model's, so the last bits differ from the pins above
   (host-constr under Uniform_choice reads ...dd05b here, ...dd06 there) *)
let test_explicit_bit_pins () =
  let net = Netdiv_casestudy.Products.network () in
  let entry = Netdiv_casestudy.Topology.host "c4" in
  let target = Netdiv_casestudy.Topology.host "t5" in
  let assignments =
    Netdiv_casestudy.Experiments.(labelled (compute_assignments net))
  in
  let models =
    [ ("uniform", Attack_bn.Uniform_choice); ("best", Attack_bn.Best_choice);
      ("fixed", Attack_bn.Fixed Attack_bn.default_p_avg) ]
  in
  let fixed = "0x1.618466b5a33e5p-11" in
  List.iter2
    (fun (label, a) (label', uniform, best) ->
      Alcotest.(check string) "row order" label' label;
      List.iter2
        (fun (name, model) expected ->
          Alcotest.(check string) (label ^ " " ^ name) expected
            (Printf.sprintf "%h"
               (Attack_bn.p_compromise_explicit a ~entry ~target ~model)))
        models [ uniform; best; fixed ])
    assignments
    [ ("optimal", "0x1.a812a1a9e7f88p-11", "0x1.4dd0c12497c3bp-9");
      ("host-constr", "0x1.25b42f34dd05bp-10", "0x1.cdd429e95eeb2p-10");
      ("product-constr", "0x1.25b42f34dd05bp-10", "0x1.cdd429e95eeb2p-10");
      ("random", "0x1.6866695411b5p-7", "0x1.00848b12979efp-5");
      ("mono", "0x1.0429b71745da7p-5", "0x1.61161c99b7877p-4") ];
  let s = Scaled.generate ~seed:1 ~scale:5 () in
  let a = (Netdiv_core.Optimize.run s.Scaled.network []).assignment in
  List.iter2
    (fun entry (entry', uniform) ->
      Alcotest.(check int) "entry" entry' entry;
      Alcotest.(check string)
        (Printf.sprintf "scale 5 entry %d uniform" entry)
        uniform
        (Printf.sprintf "%h"
           (Attack_bn.p_compromise_explicit a ~entry ~target:s.Scaled.target
              ~model:Attack_bn.Uniform_choice)))
    s.Scaled.entries
    [ (0, "0x1.454e5bae34c32p-17"); (85, "0x1.1b1d92b7fe095p-18");
      (105, "0x1.5ede286f14b14p-20"); (130, "0x1.467e94357e778p-7") ]

let test_host_marginals () =
  let net = line_net () in
  let a = Assignment.make net (fun ~host ~service:_ -> host mod 2) in
  let marginals =
    Attack_bn.host_marginals ~samples:60_000 ~rng:(rng 8) a ~entry:0
      ~model:Attack_bn.Uniform_choice
  in
  Alcotest.(check int) "one row per host" 3 (Array.length marginals);
  Alcotest.(check (float 1e-9)) "entry certain" 1.0 (snd marginals.(0));
  (* chain: risk decays with distance *)
  Alcotest.(check bool) "monotone decay" true
    (snd marginals.(1) > snd marginals.(2));
  (* agrees with the exact per-host probability within sampling noise *)
  let exact =
    Attack_bn.p_compromise a ~entry:0 ~target:2
      ~model:Attack_bn.Uniform_choice
  in
  Alcotest.(check (float 0.01)) "matches exact" exact (snd marginals.(2))

let test_host_marginals_unreachable () =
  let services =
    [| { Network.sv_name = "os"; sv_products = [| "A" |];
         sv_similarity = [| 1.0 |] } |]
  in
  let graph = Netdiv_graph.Graph.of_edges ~n:3 [ (0, 1) ] in
  let net =
    Network.create ~graph ~services
      ~hosts:
        (Array.init 3 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services = [ (0, [||]) ] }))
  in
  let a = Assignment.first_candidate net in
  let marginals =
    Attack_bn.host_marginals ~samples:1000 a ~entry:0
      ~model:Attack_bn.Uniform_choice
  in
  Alcotest.(check (float 1e-9)) "island scores zero" 0.0 (snd marginals.(2))

let test_diversity_metric_orders () =
  let net = line_net () in
  let same = Assignment.make net (fun ~host:_ ~service:_ -> 0) in
  let alt = Assignment.make net (fun ~host ~service:_ -> host mod 2) in
  let d_same = Attack_bn.diversity same ~entry:0 ~target:2 in
  let d_alt = Attack_bn.diversity alt ~entry:0 ~target:2 in
  Alcotest.(check bool) "diversified scores higher" true (d_alt > d_same);
  Alcotest.(check bool) "mono is positive" true (d_same > 0.0)

(* ------------------------------------------------------------- property *)

let bn_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 100_000 in
    let* n = 2 -- 8 in
    return (random_dag_bn (Random.State.make [| seed |]) n))

let prop_exact_matches_brute =
  QCheck2.Test.make ~count:50 ~name:"variable elimination = joint sum"
    bn_gen (fun bn ->
      let n = Bn.n_nodes bn in
      List.for_all
        (fun q ->
          List.for_all
            (fun evidence ->
              match
                ( outcome (fun () -> Infer.exact_marginal ~evidence bn q),
                  outcome (fun () -> Infer.joint_brute_force ~evidence bn q) )
              with
              | Some p, Some p' -> abs_float (p -. p') < 1e-9
              | None, None -> true
              | _ -> false)
            ([] :: evidence_sets ~n q))
        (List.init n Fun.id))

let prop_marginals_are_probabilities =
  QCheck2.Test.make ~count:50 ~name:"marginals lie in [0,1]" bn_gen
    (fun bn ->
      let ok = ref true in
      for q = 0 to Bn.n_nodes bn - 1 do
        let p = Infer.exact_marginal bn q in
        if not (p >= 0.0 && p <= 1.0) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "bayes"
    [
      ( "factor",
        [
          Alcotest.test_case "of_cpd layout" `Quick test_factor_of_cpd;
          Alcotest.test_case "validation" `Quick test_factor_validation;
        ] );
      ( "bn",
        [
          Alcotest.test_case "build" `Quick test_bn_build;
          Alcotest.test_case "validation" `Quick test_bn_validation;
          Alcotest.test_case "noisy-or" `Quick test_noisy_or;
        ] );
      ( "infer",
        [
          Alcotest.test_case "exact on a chain" `Quick test_exact_chain;
          Alcotest.test_case "exact with evidence" `Quick
            test_exact_with_evidence;
          Alcotest.test_case "exact vs brute force" `Quick
            test_exact_vs_brute;
          Alcotest.test_case "exact vs brute with evidence" `Quick
            test_exact_vs_brute_evidence;
          Alcotest.test_case "width check before allocation" `Quick
            test_width_check;
          Alcotest.test_case "sampling converges" `Quick
            test_sampling_converges;
          Alcotest.test_case "forward sample" `Quick
            test_forward_sample_root;
        ] );
      ( "mfactor",
        [
          Alcotest.test_case "of_cpd layout" `Quick test_mfactor_of_cpd;
          Alcotest.test_case "validation" `Quick test_mfactor_validation;
        ] );
      ( "dbn",
        [
          Alcotest.test_case "basics" `Quick test_dbn_basic;
          Alcotest.test_case "validation" `Quick test_dbn_validation;
          Alcotest.test_case "VE vs brute force" `Quick test_dbn_ve_vs_brute;
          Alcotest.test_case "VE vs brute with evidence" `Quick
            test_dbn_ve_vs_brute_evidence;
          Alcotest.test_case "sampling" `Quick test_dbn_sampling;
        ] );
      ( "attack",
        [
          Alcotest.test_case "edge rates" `Quick test_edge_rate;
          Alcotest.test_case "line-network probability" `Quick
            test_p_compromise_line;
          Alcotest.test_case "unreachable target" `Quick
            test_p_compromise_unreachable;
          Alcotest.test_case "entry is target" `Quick test_entry_is_target;
          Alcotest.test_case "diversity metric ordering" `Quick
            test_diversity_metric_orders;
          Alcotest.test_case "explicit BN matches marginalized" `Quick
            test_explicit_matches_marginalized;
          Alcotest.test_case "explicit BN on the case study" `Quick
            test_explicit_case_study;
          Alcotest.test_case "exact d_bn on the 256-host scaled ICS" `Quick
            test_scaled_exact;
          Alcotest.test_case "d_bn bit pins" `Quick test_dbn_bit_pins;
          Alcotest.test_case "explicit BN bit pins" `Quick
            test_explicit_bit_pins;
          Alcotest.test_case "host marginals" `Quick test_host_marginals;
          Alcotest.test_case "host marginals unreachable" `Quick
            test_host_marginals_unreachable;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_exact_matches_brute;
          QCheck_alcotest.to_alcotest prop_marginals_are_probabilities;
        ] );
    ]
