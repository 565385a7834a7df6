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

let test_factor_of_fun () =
  let f = Factor.of_fun ~vars:[| 3; 1 |] (fun v ->
      (if v.(0) then 1.0 else 0.0) +. if v.(1) then 2.0 else 0.0) in
  (* vars sorted to [1;3]; v.(0) is var 1 *)
  Alcotest.(check (array int)) "sorted" [| 1; 3 |] (Factor.vars f);
  check_float "11" 3.0 (Factor.value f [ (1, true); (3, true) ]);
  check_float "10" 1.0 (Factor.value f [ (1, true); (3, false) ]);
  check_float "01" 2.0 (Factor.value f [ (1, false); (3, true) ])

let test_factor_product () =
  let a = Factor.of_fun ~vars:[| 0 |] (fun v -> if v.(0) then 0.7 else 0.3) in
  let b = Factor.of_fun ~vars:[| 0; 1 |] (fun v ->
      if v.(0) = v.(1) then 0.9 else 0.1) in
  let p = Factor.product a b in
  Alcotest.(check (array int)) "union vars" [| 0; 1 |] (Factor.vars p);
  check_float "joint" (0.7 *. 0.9)
    (Factor.value p [ (0, true); (1, true) ]);
  check_float "joint2" (0.3 *. 0.1)
    (Factor.value p [ (0, false); (1, true) ])

let test_factor_sum_out () =
  let f = Factor.of_fun ~vars:[| 0; 1 |] (fun v ->
      match (v.(0), v.(1)) with
      | false, false -> 1.0
      | false, true -> 2.0
      | true, false -> 3.0
      | true, true -> 4.0) in
  let g = Factor.sum_out f 0 in
  Alcotest.(check (array int)) "remaining" [| 1 |] (Factor.vars g);
  check_float "marginal false" 4.0 (Factor.value g [ (1, false) ]);
  check_float "marginal true" 6.0 (Factor.value g [ (1, true) ]);
  check_float "total preserved" (Factor.total f) (Factor.total g)

let test_factor_restrict () =
  let f = Factor.of_fun ~vars:[| 0; 1 |] (fun v ->
      (if v.(0) then 2.0 else 1.0) *. if v.(1) then 5.0 else 1.0) in
  let g = Factor.restrict f 0 true in
  check_float "restricted" 10.0 (Factor.value g [ (1, true) ]);
  check_float "restricted2" 2.0 (Factor.value g [ (1, false) ]);
  (* restricting an absent variable is a no-op *)
  let h = Factor.restrict f 9 true in
  Alcotest.(check bool) "noop" true (Factor.equal f h)

let test_factor_validation () =
  (match Factor.of_fun ~vars:[| 1; 1 |] (fun _ -> 0.0) with
  | _ -> Alcotest.fail "accepted duplicate var"
  | exception Invalid_argument _ -> ());
  match Factor.of_fun ~vars:(Array.init 26 Fun.id) (fun _ -> 0.0) with
  | _ -> Alcotest.fail "accepted 26 vars"
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

let test_mfactor_of_fun () =
  let f =
    Mfactor.of_fun ~vars:[| (2, 3); (0, 2) |] (fun v ->
        float_of_int ((10 * v.(0)) + v.(1)))
  in
  (* sorted: var 0 (card 2) first, then var 2 (card 3); the tabulated
     function receives values in sorted order *)
  Alcotest.(check bool) "sorted" true (Mfactor.vars f = [| (0, 2); (2, 3) |]);
  check_float "lookup" 12.0 (Mfactor.value f [ (0, 1); (2, 2) ]);
  check_float "lookup2" 10.0 (Mfactor.value f [ (0, 1); (2, 0) ])

let test_mfactor_product_sum () =
  let a = Mfactor.of_fun ~vars:[| (0, 2) |] (fun v -> if v.(0) = 0 then 0.25 else 0.75) in
  let b =
    Mfactor.of_fun ~vars:[| (0, 2); (1, 3) |] (fun v ->
        float_of_int (v.(0) + v.(1)))
  in
  let p = Mfactor.product a b in
  check_float "product entry" (0.75 *. 3.0)
    (Mfactor.value p [ (0, 1); (1, 2) ]);
  let m = Mfactor.sum_out p 1 in
  (* sum over v1 of (v0 + v1) weighted: v0=1: 0.75*(1+2+3)=4.5 *)
  check_float "sum_out" 4.5 (Mfactor.value m [ (0, 1) ]);
  check_float "total preserved" (Mfactor.total p) (Mfactor.total m);
  (* restrict *)
  let r = Mfactor.restrict p 1 2 in
  check_float "restricted" (0.25 *. 2.0) (Mfactor.value r [ (0, 0) ])

let test_mfactor_validation () =
  (match Mfactor.of_fun ~vars:[| (0, 2); (0, 3) |] (fun _ -> 0.0) with
  | _ -> Alcotest.fail "accepted duplicate"
  | exception Invalid_argument _ -> ());
  (match Mfactor.of_fun ~vars:[| (0, 0) |] (fun _ -> 0.0) with
  | _ -> Alcotest.fail "accepted card 0"
  | exception Invalid_argument _ -> ());
  let a = Mfactor.of_fun ~vars:[| (0, 2) |] (fun _ -> 1.0) in
  let b = Mfactor.of_fun ~vars:[| (0, 3) |] (fun _ -> 1.0) in
  match Mfactor.product a b with
  | _ -> Alcotest.fail "accepted cardinality mismatch"
  | exception Invalid_argument _ -> ()

let test_mfactor_boolean_agrees () =
  (* the multi-valued machinery restricted to card 2 must agree with the
     boolean Factor module *)
  let f_bool = Factor.of_fun ~vars:[| 0; 1 |] (fun v ->
      (if v.(0) then 2.0 else 1.0) *. if v.(1) then 5.0 else 3.0) in
  let f_multi = Mfactor.of_fun ~vars:[| (0, 2); (1, 2) |] (fun v ->
      (if v.(0) = 1 then 2.0 else 1.0) *. if v.(1) = 1 then 5.0 else 3.0) in
  List.iter
    (fun (x, y) ->
      check_float "agree"
        (Factor.value f_bool [ (0, x = 1); (1, y = 1) ])
        (Mfactor.value f_multi [ (0, x); (1, y) ]))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

let test_mfactor_algebra () =
  (* summing out every variable yields the grand total; multiplying by
     the unit constant changes nothing *)
  let rng = rng 900 in
  for _ = 1 to 20 do
    let vars =
      [| (0, 1 + Random.State.int rng 3); (3, 1 + Random.State.int rng 3);
         (7, 1 + Random.State.int rng 2) |]
    in
    let f = Mfactor.of_fun ~vars (fun _ -> Random.State.float rng 5.0) in
    let collapsed =
      Array.fold_left (fun acc (v, _) -> Mfactor.sum_out acc v) f vars
    in
    check_float "collapse = total" (Mfactor.total f)
      (Mfactor.value collapsed []);
    let unit = Mfactor.product f (Mfactor.constant 1.0) in
    Alcotest.(check bool) "unit identity" true
      (Mfactor.equal ~eps:1e-12 f unit);
    (* sum_out in either order agrees *)
    let ab = Mfactor.sum_out (Mfactor.sum_out f 0) 3 in
    let ba = Mfactor.sum_out (Mfactor.sum_out f 3) 0 in
    Alcotest.(check bool) "sum_out commutes" true
      (Mfactor.equal ~eps:1e-9 ab ba);
    (* restriction picks the right slice: summing restrictions over every
       value of a variable equals summing the variable out *)
    let card0 = snd vars.(0) in
    let summed = Mfactor.sum_out f 0 in
    let stitched =
      List.init card0 (fun v -> Mfactor.restrict f 0 v)
      |> List.fold_left
           (fun acc slice ->
             match acc with
             | None -> Some slice
             | Some acc ->
                 Some
                   (Mfactor.of_fun ~vars:(Mfactor.vars acc) (fun values ->
                        let assignment =
                          Array.to_list
                            (Array.mapi
                               (fun i (id, _) ->
                                 (id, values.(i)))
                               (Mfactor.vars acc))
                        in
                        Mfactor.value acc assignment
                        +. Mfactor.value slice assignment)))
           None
      |> Option.get
    in
    Alcotest.(check bool) "restrictions stitch to sum_out" true
      (Mfactor.equal ~eps:1e-9 summed stitched)
  done

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
    let card = 2 + Random.State.int rng 2 in
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

let test_dbn_ve_vs_brute_evidence () =
  for seed = 1 to 10 do
    let bn = random_dbn (rng (500 + seed)) 6 in
    for q = 0 to 5 do
      List.iter
        (fun evidence ->
          let evidence = List.map (fun (v, b) -> (v, Bool.to_int b)) evidence in
          Alcotest.(check (option (array (float 1e-9))))
            (Printf.sprintf "seed %d query %d" seed q)
            (outcome (fun () -> Dbn.brute_marginal ~evidence bn q))
            (outcome (fun () -> Dbn.marginal ~evidence bn q)))
        (evidence_sets ~n:6 q)
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
          Alcotest.test_case "of_fun ordering" `Quick test_factor_of_fun;
          Alcotest.test_case "product" `Quick test_factor_product;
          Alcotest.test_case "sum_out" `Quick test_factor_sum_out;
          Alcotest.test_case "restrict" `Quick test_factor_restrict;
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
          Alcotest.test_case "of_fun ordering" `Quick test_mfactor_of_fun;
          Alcotest.test_case "product and sum_out" `Quick
            test_mfactor_product_sum;
          Alcotest.test_case "validation" `Quick test_mfactor_validation;
          Alcotest.test_case "boolean special case" `Quick
            test_mfactor_boolean_agrees;
          Alcotest.test_case "algebraic laws" `Quick test_mfactor_algebra;
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
