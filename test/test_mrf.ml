(* Tests for the MRF library: model construction, energy evaluation, and
   the solvers (TRW-S, ICM, SA, exact elimination) against the
   exhaustive oracle in brute.ml.  The key invariants:
   TRW-S's dual bound never exceeds any labeling's energy, is exact and
   tight on trees, and on tiny loopy models all solvers stay above the
   exhaustive optimum. *)

open Netdiv_mrf

let rng seed = Random.State.make [| seed |]

(* random MRF with n nodes, k labels each, edge probability p *)
let random_mrf rng n k p =
  let b = Mrf.Builder.create ~label_counts:(Array.make n k) in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init k (fun _ -> Random.State.float rng 1.0))
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then
        Mrf.Builder.add_edge b u v
          (Array.init (k * k) (fun _ -> Random.State.float rng 1.0))
    done
  done;
  Mrf.Builder.build b

let random_tree_mrf rng n k =
  let b = Mrf.Builder.create ~label_counts:(Array.make n k) in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init k (fun _ -> Random.State.float rng 1.0))
  done;
  for i = 1 to n - 1 do
    let parent = Random.State.int rng i in
    Mrf.Builder.add_edge b parent i
      (Array.init (k * k) (fun _ -> Random.State.float rng 1.0))
  done;
  Mrf.Builder.build b

(* Edges of a chain through every node plus [chords] random chords, so
   one component; [add u v] adds one. *)
let chain_with_chords rng n ~chords add =
  for i = 1 to n - 1 do
    add (i - 1) i
  done;
  for _ = 1 to chords do
    let u = Random.State.int rng n in
    add u ((u + 2 + Random.State.int rng (n - 3)) mod n)
  done

let connected_mrf rng n k ~chords =
  let b = Mrf.Builder.create ~label_counts:(Array.make n k) in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init k (fun _ -> Random.State.float rng 1.0))
  done;
  chain_with_chords rng n ~chords (fun u v ->
      Mrf.Builder.add_edge b u v
        (Array.init (k * k) (fun _ -> Random.State.float rng 1.0)));
  Mrf.Builder.build b

(* ---------------------------------------------------------------- model *)

let test_builder_basic () =
  let b = Mrf.Builder.create ~label_counts:[| 2; 3 |] in
  Mrf.Builder.set_unary b ~node:0 [| 1.0; 2.0 |];
  Mrf.Builder.add_unary b ~node:0 ~label:1 0.5;
  Mrf.Builder.add_edge b 0 1 (Array.init 6 float_of_int);
  let m = Mrf.Builder.build b in
  Alcotest.(check int) "nodes" 2 (Mrf.n_nodes m);
  Alcotest.(check int) "edges" 1 (Mrf.n_edges m);
  Alcotest.(check int) "labels" 3 (Mrf.label_count m 1);
  Alcotest.(check (float 1e-9)) "unary accumulates" 2.5
    (Mrf.unary m ~node:0 ~label:1);
  Alcotest.(check (float 1e-9)) "energy" (1.0 +. 0.0 +. 2.0)
    (Mrf.energy m [| 0; 2 |])

let test_builder_validation () =
  (match Mrf.Builder.create ~label_counts:[| 0 |] with
  | _ -> Alcotest.fail "accepted zero labels"
  | exception Invalid_argument _ -> ());
  let b = Mrf.Builder.create ~label_counts:[| 2; 2 |] in
  (match Mrf.Builder.add_edge b 0 0 (Array.make 4 0.0) with
  | () -> Alcotest.fail "accepted self-edge"
  | exception Invalid_argument _ -> ());
  (match Mrf.Builder.add_edge b 0 1 (Array.make 3 0.0) with
  | () -> Alcotest.fail "accepted wrong matrix size"
  | exception Invalid_argument _ -> ());
  match Mrf.Builder.set_unary b ~node:0 [| 1.0 |] with
  | () -> Alcotest.fail "accepted short unary"
  | exception Invalid_argument _ -> ()

let test_energy_validation () =
  let m = random_mrf (rng 1) 4 3 0.5 in
  (match Mrf.energy m [| 0; 0; 0 |] with
  | _ -> Alcotest.fail "accepted wrong length"
  | exception Invalid_argument _ -> ());
  match Mrf.energy m [| 0; 0; 3; 0 |] with
  | _ -> Alcotest.fail "accepted out-of-range label"
  | exception Invalid_argument _ -> ()

let test_incident () =
  let b = Mrf.Builder.create ~label_counts:[| 2; 2; 2 |] in
  Mrf.Builder.add_edge b 1 0 (Array.make 4 0.0);
  Mrf.Builder.add_edge b 1 2 (Array.make 4 0.0);
  let m = Mrf.Builder.build b in
  let inc = Mrf.incident m 1 in
  Alcotest.(check int) "two incidences" 2 (Array.length inc);
  (* sorted by opposite endpoint: 0 first, then 2 *)
  let e0, _ = inc.(0) and e1, _ = inc.(1) in
  Alcotest.(check int) "opposite of first" 0 (Mrf.opposite m ~edge:e0 1);
  Alcotest.(check int) "opposite of second" 2 (Mrf.opposite m ~edge:e1 1)

let test_shared_matrix () =
  let shared = Array.make 4 0.5 in
  let b = Mrf.Builder.create ~label_counts:[| 2; 2; 2 |] in
  Mrf.Builder.add_edge b 0 1 shared;
  Mrf.Builder.add_edge b 1 2 shared;
  let m = Mrf.Builder.build b in
  Alcotest.(check bool) "physically shared" true
    (Mrf.edge_cost m 0 == Mrf.edge_cost m 1)

let test_interned_tables () =
  (* distinct arrays with equal contents must hash-cons to one table *)
  let b = Mrf.Builder.create ~label_counts:[| 2; 2; 2; 2 |] in
  Mrf.Builder.add_edge b 0 1 [| 0.5; 0.1; 0.1; 0.5 |];
  Mrf.Builder.add_edge b 1 2 [| 0.5; 0.1; 0.1; 0.5 |];
  Mrf.Builder.add_edge b 2 3 [| 0.9; 0.0; 0.0; 0.9 |];
  let m = Mrf.Builder.build b in
  Alcotest.(check int) "two distinct tables" 2 (Mrf.n_tables m);
  Alcotest.(check bool) "content-equal edges share storage" true
    (Mrf.edge_cost m 0 == Mrf.edge_cost m 1);
  Alcotest.(check int) "same table id"
    (Mrf.edge_table_id m 0)
    (Mrf.edge_table_id m 1);
  Alcotest.(check bool) "third edge gets its own table" true
    (Mrf.edge_table_id m 2 <> Mrf.edge_table_id m 0);
  Alcotest.(check int) "interned words" 8 (Mrf.pot_words m);
  Alcotest.(check int) "unshared words" 12 (Mrf.pot_words_unshared m)

(* Interning looks a table up without allocating: once each of 40
   tables (enough to grow the index three times) has been added, 1,000 more
   edges carrying them, by the same arrays or by equal copies, allocate
   no minor words.  The edge slots are reserved, so nothing grows.  The
   hashtable this replaced allocated a key tuple, a hash tuple and a
   [Some] per edge. *)
let test_interning_allocation_free () =
  let n = 50 in
  let tables =
    Array.init 40 (fun t -> Array.init 9 (fun c -> float_of_int ((9 * t) + c)))
  in
  let copies = Array.map Array.copy tables in
  let b = Mrf.Builder.create ~label_counts:(Array.make n 3) in
  Mrf.Builder.reserve_edges b 1040;
  Array.iteri (fun t tab -> Mrf.Builder.add_edge b t (t + 1) tab) tables;
  let before = Gc.minor_words () in
  for e = 0 to 999 do
    let t = e mod 40 in
    Mrf.Builder.add_edge b (e mod n) ((e + 1) mod n)
      (if e land 1 = 0 then tables.(t) else copies.(t))
  done;
  let words = Gc.minor_words () -. before in
  let m = Mrf.Builder.build b in
  Alcotest.(check int) "tables" 40 (Mrf.n_tables m);
  Alcotest.(check int) "the last edge reuses table 39" 39
    (Mrf.edge_table_id m 1039);
  if words > 0.0 then
    Alcotest.failf "1,000 Mrf.Builder.add_edge calls allocated %.0f minor words"
      words

(* -------------------------------------------------------------- solvers *)

let test_trws_tiny_exact () =
  (* two nodes, pull apart: optimum must be the anti-diagonal *)
  let b = Mrf.Builder.create ~label_counts:[| 2; 2 |] in
  Mrf.Builder.add_edge b 0 1 [| 1.0; 0.0; 0.0; 1.0 |];
  let m = Mrf.Builder.build b in
  let r = Trws.solve m in
  Alcotest.(check (float 1e-9)) "energy 0" 0.0 r.Solver.energy;
  Alcotest.(check (float 1e-6)) "bound tight" 0.0 r.Solver.lower_bound;
  Alcotest.(check bool) "anti-diagonal" true
    (r.Solver.labeling.(0) <> r.Solver.labeling.(1))

let test_trws_trees_exact () =
  for seed = 1 to 10 do
    let m = random_tree_mrf (rng seed) (5 + (seed mod 6)) 3 in
    let exact = Brute.solve m in
    let r = Trws.solve m in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "tree %d energy optimal" seed)
      exact.Solver.energy r.Solver.energy;
    Alcotest.(check (float 1e-5))
      (Printf.sprintf "tree %d bound tight" seed)
      exact.Solver.energy r.Solver.lower_bound
  done

let test_solvers_vs_brute_loopy () =
  let exact_hits = ref 0 in
  for seed = 1 to 15 do
    let m = random_mrf (rng (100 + seed)) 6 3 0.5 in
    let exact = Brute.solve m in
    let tr = Trws.solve m in
    let icm = Icm.solve m in
    Alcotest.(check bool) "trws >= optimum" true
      (tr.Solver.energy >= exact.Solver.energy -. 1e-9);
    Alcotest.(check bool) "trws bound <= optimum" true
      (tr.Solver.lower_bound <= exact.Solver.energy +. 1e-9);
    Alcotest.(check bool) "icm >= optimum" true
      (icm.Solver.energy >= exact.Solver.energy -. 1e-9);
    if tr.Solver.energy -. exact.Solver.energy < 1e-6 then incr exact_hits
  done;
  Alcotest.(check bool) "trws exact on most loopy instances" true
    (!exact_hits >= 10)

let test_trws_bound_below_decoded () =
  for seed = 1 to 8 do
    let m = random_mrf (rng (200 + seed)) 20 4 0.2 in
    let r = Trws.solve m in
    Alcotest.(check bool) "bound <= energy" true
      (r.Solver.lower_bound <= r.Solver.energy +. 1e-9)
  done

let test_icm_local_optimum () =
  let m = random_mrf (rng 3) 12 3 0.4 in
  let r = Icm.solve m in
  (* no single-node move may improve an ICM fixed point *)
  let x = Array.copy r.Solver.labeling in
  let base = Mrf.energy m x in
  for i = 0 to Mrf.n_nodes m - 1 do
    let keep = x.(i) in
    for l = 0 to Mrf.label_count m i - 1 do
      x.(i) <- l;
      Alcotest.(check bool) "no improving move" true
        (Mrf.energy m x >= base -. 1e-9)
    done;
    x.(i) <- keep
  done

let test_icm_respects_init () =
  let m = random_mrf (rng 4) 8 3 0.4 in
  let init = Array.make 8 2 in
  let r = Icm.solve ~init m in
  Alcotest.(check bool) "improves init" true
    (r.Solver.energy <= Mrf.energy m init +. 1e-9)

let test_brute_counts () =
  let m = random_mrf (rng 5) 4 3 0.5 in
  let r = Brute.solve m in
  Alcotest.(check int) "enumerates 3^4" 81 r.Solver.iterations;
  Alcotest.(check (float 1e-9)) "search space" 81.0 (Brute.search_space m)

let test_brute_limit () =
  let m = random_mrf (rng 6) 30 4 0.1 in
  match Brute.solve ~limit:1000 m with
  | _ -> Alcotest.fail "accepted huge search space"
  | exception Invalid_argument _ -> ()

let test_isolated_nodes () =
  (* solver must handle nodes with no edges *)
  let b = Mrf.Builder.create ~label_counts:[| 3; 3; 2 |] in
  Mrf.Builder.set_unary b ~node:0 [| 2.0; 1.0; 3.0 |];
  Mrf.Builder.set_unary b ~node:2 [| 0.5; 0.1 |];
  Mrf.Builder.add_edge b 0 1 (Array.make 9 0.0);
  let m = Mrf.Builder.build b in
  let r = Trws.solve m in
  Alcotest.(check (float 1e-9)) "isolated picks min unary" 1.1
    r.Solver.energy;
  Alcotest.(check (float 1e-6)) "bound tight" 1.1 r.Solver.lower_bound

let test_sa_vs_brute () =
  for seed = 1 to 8 do
    let m = random_mrf (rng (300 + seed)) 6 3 0.5 in
    let exact = Brute.solve m in
    let sa = Sa.solve m in
    Alcotest.(check bool) "sa >= optimum" true
      (sa.Solver.energy >= exact.Solver.energy -. 1e-9);
    (* on instances this small, annealing should find the optimum *)
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "sa exact on seed %d" seed)
      exact.Solver.energy sa.Solver.energy
  done

let test_sa_deterministic () =
  let m = random_mrf (rng 9) 15 3 0.3 in
  let a = Sa.solve m and b = Sa.solve m in
  Alcotest.(check bool) "same labeling" true
    (a.Solver.labeling = b.Solver.labeling)

let test_sa_improves_init () =
  let m = random_mrf (rng 10) 12 4 0.4 in
  let init = Array.make 12 3 in
  let r = Sa.solve ~init m in
  Alcotest.(check bool) "improves" true
    (r.Solver.energy <= Mrf.energy m init +. 1e-9)

let test_sa_parallel_matches_sequential () =
  let m = random_mrf (rng 15) 20 3 0.3 in
  let base = { Sa.default_config with restarts = 4 } in
  let seq = Sa.solve ~config:base m in
  let par = Sa.solve ~config:{ base with domains = 4 } m in
  Alcotest.(check (float 1e-9)) "same energy" seq.Solver.energy
    par.Solver.energy;
  Alcotest.(check bool) "same labeling" true
    (seq.Solver.labeling = par.Solver.labeling)

let test_sa_oversubscribed () =
  (* more domains than restarts (and than cores) must not change the
     result *)
  let m = random_mrf (rng 15) 20 3 0.3 in
  let base = { Sa.default_config with restarts = 3 } in
  let seq = Sa.solve ~config:base m in
  let par = Sa.solve ~config:{ base with domains = 16 } m in
  Alcotest.(check (float 1e-9)) "same energy" seq.Solver.energy
    par.Solver.energy;
  Alcotest.(check bool) "same labeling" true
    (seq.Solver.labeling = par.Solver.labeling)

let disconnected_mrf () =
  (* two 4-node chains and an isolated node — three components *)
  let b = Mrf.Builder.create ~label_counts:(Array.make 9 3) in
  let r = rng 77 in
  for i = 0 to 8 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init 3 (fun _ -> Random.State.float r 1.0))
  done;
  List.iter
    (fun (u, v) ->
      Mrf.Builder.add_edge b u v
        (Array.init 9 (fun _ -> Random.State.float r 1.0)))
    [ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6); (6, 7) ];
  Mrf.Builder.build b

let test_solve_components () =
  let m = disconnected_mrf () in
  let exact = Brute.solve m in
  let serial = Trws.solve ~jobs:1 m in
  let par = Trws.solve ~jobs:4 m in
  (* every component is a tree, so the merged solve must be exact *)
  Alcotest.(check (float 1e-6)) "exact on forest" exact.Solver.energy
    serial.Solver.energy;
  Alcotest.(check (float 1e-9)) "jobs-invariant energy" serial.Solver.energy
    par.Solver.energy;
  Alcotest.(check bool) "jobs-invariant labeling" true
    (serial.Solver.labeling = par.Solver.labeling);
  Alcotest.(check (float 1e-9)) "jobs-invariant bound"
    serial.Solver.lower_bound par.Solver.lower_bound;
  Alcotest.(check (float 1e-9)) "labeling consistent with energy"
    serial.Solver.energy
    (Mrf.energy m serial.Solver.labeling)

let test_sa_config_validation () =
  let m = random_mrf (rng 11) 3 2 0.5 in
  match Sa.solve ~config:{ Sa.default_config with cooling = 1.5 } m with
  | _ -> Alcotest.fail "accepted cooling > 1"
  | exception Invalid_argument _ -> ()

let test_exact_trees () =
  List.iter
    (fun (seed, n) ->
      let m = random_tree_mrf (rng seed) n 4 in
      match Exact.solve m with
      | None -> Alcotest.failf "a %d-node tree did not fit" n
      | Some r ->
          Alcotest.(check bool) "trees certify" true r.Solver.converged;
          Alcotest.(check (float 0.0))
            "bound is the energy" r.Solver.energy r.Solver.lower_bound;
          (* TRW-S is exact on trees *)
          Alcotest.(check (float 1e-6))
            "agrees with trws on trees" (Trws.solve m).Solver.energy
            r.Solver.energy)
    [ (14, 30); (15, 2000) ]

let test_exact_rejects () =
  (* 24 variables, all joined: the first table alone holds 3^24 entries *)
  let dense = random_mrf (rng 16) 24 3 1.0 in
  Alcotest.(check bool) "a model that does not fit" true
    (Exact.solve dense = None);
  let small = random_mrf (rng 17) 6 3 0.5 in
  Alcotest.(check bool) "an interrupt that fires at once" true
    (Exact.solve ~interrupt:(fun () -> true) small = None)

let test_parallel_edges () =
  (* duplicate edges accumulate cost *)
  let b = Mrf.Builder.create ~label_counts:[| 2; 2 |] in
  Mrf.Builder.add_edge b 0 1 [| 1.0; 0.0; 0.0; 1.0 |];
  Mrf.Builder.add_edge b 0 1 [| 0.3; 0.0; 0.0; 0.3 |];
  let m = Mrf.Builder.build b in
  Alcotest.(check (float 1e-9)) "parallel sum" 1.3 (Mrf.energy m [| 0; 0 |]);
  let r = Trws.solve m in
  Alcotest.(check (float 1e-9)) "optimum avoids both" 0.0 r.Solver.energy

(* -------------------------------------------------- structured tables *)

(* Random table over a mix of structures: Potts (uniform off-diagonal),
   constant-plus-sparse, almost-Potts (one off-diagonal outlier) and
   dense. *)
let structured_table rng ku kv =
  match Random.State.int rng 4 with
  | 0 when ku = kv ->
      (* Potts: uniform off-diagonal, random diagonal *)
      let off = 0.25 +. Random.State.float rng 0.75 in
      Array.init (ku * kv) (fun idx ->
          if idx / kv = idx mod kv then Random.State.float rng 0.2 else off)
  | 1 ->
      (* constant-plus-sparse: uniform base, two deviations *)
      let t = Array.make (ku * kv) (0.2 +. Random.State.float rng 0.5) in
      t.(Random.State.int rng (ku * kv)) <- Random.State.float rng 2.0;
      t.(Random.State.int rng (ku * kv)) <- Random.State.float rng 2.0;
      t
  | 2 when ku = kv ->
      (* almost-Potts: one off-diagonal outlier *)
      let off = 0.25 +. Random.State.float rng 0.75 in
      let t =
        Array.init (ku * kv) (fun idx ->
            if idx / kv = idx mod kv then Random.State.float rng 0.2 else off)
      in
      let i = Random.State.int rng ku in
      let j = (i + 1) mod kv in
      t.((i * kv) + j) <- off +. 0.01;
      t
  | _ -> Array.init (ku * kv) (fun _ -> Random.State.float rng 1.0)

(* Random MRF over structured tables with mixed label counts, so
   non-square tables exercise both message orientations; [add_edges]
   chooses the edges.  Deterministic in [seed]. *)
let structured_mrf ~n ~add_edges seed =
  let rng = Random.State.make [| 0xface; seed |] in
  let labels =
    Array.init n (fun i ->
        if i mod 5 = 4 then 1 else if i mod 2 = 0 then 9 else 12)
  in
  let b = Mrf.Builder.create ~label_counts:labels in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init labels.(i) (fun _ -> Random.State.float rng 1.0))
  done;
  add_edges rng (fun u v ->
      Mrf.Builder.add_edge b u v (structured_table rng labels.(u) labels.(v)));
  Mrf.Builder.build b

(* one component of 4200 nodes *)
let big_structured_mrf =
  structured_mrf ~n:4200 ~add_edges:(fun rng ->
      chain_with_chords rng 4200 ~chords:2100)

module Pool = Netdiv_par.Pool

(* Run [f] pretending the machine has [n] cores so the parallel
   schedules really spawn domains, even on a single-core CI box. *)
let with_hardware_jobs n f =
  Pool.set_hardware_jobs (Some n);
  Fun.protect ~finally:(fun () -> Pool.set_hardware_jobs None) f

(* [r] is [base] bit for bit: labeling, energy and bound bits, sweep
   count and [converged]. *)
let check_same_result what (base : Solver.result) (r : Solver.result) =
  Alcotest.(check bool) (what ^ ": energy bitwise") true
    (base.energy = r.energy);
  Alcotest.(check bool) (what ^ ": bound bitwise") true
    (base.lower_bound = r.lower_bound);
  Alcotest.(check (array int)) (what ^ ": labeling") base.labeling r.labeling;
  Alcotest.(check int) (what ^ ": iterations") base.iterations r.iterations;
  Alcotest.(check bool) (what ^ ": converged") base.converged r.converged

(* One connected model is one zone: the sequential solver, bit for bit,
   whatever the job count and the model size. *)
let test_trws_one_zone_jobs_matches_solve () =
  let models =
    List.init 5 (fun k ->
        (40 + k, None, connected_mrf (rng (40 + k)) 30 3 ~chords:20))
    @ List.map
        (fun seed ->
          (seed, Some 20, connected_mrf (rng seed) 4500 3 ~chords:2000))
        [ 45; 46 ]
  in
  with_hardware_jobs 4 (fun () ->
      List.iter
        (fun (seed, max_iters, m) ->
          let base = Trws.solve ?max_iters m in
          List.iter
            (fun jobs ->
              check_same_result
                (Printf.sprintf "seed=%d jobs=%d" seed jobs)
                base
                (Trws.solve ?max_iters ~jobs m))
            [ 1; 2; 4 ])
        models)

(* ---------------------------------------------------- zoned decomposition *)

(* the CSR slabs the solvers read: each node's slot range in [i_inc_off],
   and per slot the edge id and orientation packed in [i_inc] and the
   opposite endpoint in [i_col] *)
let test_compact_accessors () =
  let m = random_mrf (rng 60) 15 3 0.3 in
  let c = Mrf.Compact.arrays m in
  let n = Mrf.n_nodes m in
  Alcotest.(check int) "row pointers" (n + 1) (Array.length c.i_inc_off);
  Alcotest.(check int) "first row" 0 c.i_inc_off.(0);
  Alcotest.(check int) "two slots per edge" (2 * Mrf.n_edges m)
    c.i_inc_off.(n);
  for i = 0 to n - 1 do
    let inc = Mrf.incident m i in
    Alcotest.(check int)
      (Printf.sprintf "degree of %d" i)
      (Array.length inc)
      (c.i_inc_off.(i + 1) - c.i_inc_off.(i));
    Array.iteri
      (fun s (e, is_u) ->
        let k = c.i_inc_off.(i) + s in
        Alcotest.(check int) "edge id" e (c.i_inc.(k) lsr 1);
        Alcotest.(check bool) "orientation" is_u (c.i_inc.(k) land 1 = 1);
        Alcotest.(check int) "neighbor column" (Mrf.opposite m ~edge:e i)
          c.i_col.(k))
      inc
  done

let test_footprint () =
  let m = random_mrf (rng 61) 25 3 0.25 in
  let f = Mrf.footprint m in
  Alcotest.(check int) "nodes" (Mrf.n_nodes m) f.Mrf.f_nodes;
  Alcotest.(check int) "edges" (Mrf.n_edges m) f.Mrf.f_edges;
  Alcotest.(check bool) "positive words" true (f.Mrf.f_words > 0);
  Alcotest.(check bool) "per-node positive" true
    (f.Mrf.f_words_per_node > 0.0);
  (* this model's tables are all distinct (random), still the boxed
     layout pays list/tuple overhead the compact layout doesn't *)
  Alcotest.(check bool) "flat layout is larger" true
    (f.Mrf.f_flat_words > f.Mrf.f_words / 2);
  (* heavy interning: one shared table, many edges -> compact wins big *)
  let shared = Array.make 9 0.25 in
  let b = Mrf.Builder.create ~label_counts:(Array.make 40 3) in
  Mrf.Builder.reserve_edges b 80;
  for u = 0 to 38 do
    Mrf.Builder.add_edge b u (u + 1) shared
  done;
  let mi = Mrf.Builder.build b in
  let fi = Mrf.footprint mi in
  Alcotest.(check int) "one interned table" 1 fi.Mrf.f_tables;
  Alcotest.(check bool) "interned compact under half of flat" true
    (2 * fi.Mrf.f_words < fi.Mrf.f_flat_words);
  let est =
    Mrf.estimate_words ~nodes:40 ~edges:39 ~max_labels:3 ~tables:1 ~zones:1
  in
  Alcotest.(check bool) "estimate covers the model" true
    (est >= fi.Mrf.f_words)

let test_with_unaries () =
  let m = random_mrf (rng 62) 8 3 0.4 in
  let x = Array.make 8 1 in
  let e0 = Mrf.energy m x in
  let u = Array.init (8 * 3) (fun k -> Mrf.unary m ~node:(k / 3) ~label:(k mod 3)) in
  let shifted = Array.map (fun c -> c +. 0.5) u in
  let m' = Mrf.with_unaries m shifted in
  Alcotest.(check (float 1e-9)) "energy shifts by n * 0.5" (e0 +. 4.0)
    (Mrf.energy m' x);
  Alcotest.(check (float 1e-9)) "original untouched" e0 (Mrf.energy m x);
  match Mrf.with_unaries m [| 0.0 |] with
  | _ -> Alcotest.fail "accepted wrong unary length"
  | exception Invalid_argument _ -> ()

let test_solve_zoned_single_zone_matches_solve () =
  (* one zone must be the sequential solver, bit for bit, with or
     without a job count, on small models and large ones *)
  let models =
    List.init 5 (fun k -> (70 + k, None, random_mrf (rng (70 + k)) 30 3 0.15))
    @ [ (79, Some 20, connected_mrf (rng 79) 4500 3 ~chords:2000) ]
  in
  List.iter
    (fun (seed, max_iters, m) ->
      let base = Trws.solve ?max_iters m in
      let zone_of = Array.make (Mrf.n_nodes m) 7 in
      check_same_result
        (Printf.sprintf "constant zone map seed=%d" seed)
        base
        (Trws.solve ?max_iters ~zone_of m);
      check_same_result
        (Printf.sprintf "constant zone map, jobs 2 seed=%d" seed)
        base
        (Trws.solve ?max_iters ~zone_of ~jobs:2 m))
    models

let test_solve_zoned_jobs_invariant () =
  with_hardware_jobs 4 (fun () ->
      for seed = 75 to 78 do
        let m = random_mrf (rng seed) 40 3 0.12 in
        let zone_of = Array.init 40 (fun i -> i / 10) in
        let r1 = Trws.solve ~zone_of ~jobs:1 m in
        List.iter
          (fun jobs ->
            check_same_result
              (Printf.sprintf "seed=%d jobs=%d" seed jobs)
              r1
              (Trws.solve ~zone_of ~jobs m))
          [ 2; 4 ];
        (* dual decomposition must keep the sandwich *)
        Alcotest.(check (float 1e-9)) "labeling consistent with energy"
          r1.Solver.energy
          (Mrf.energy m r1.Solver.labeling);
        Alcotest.(check bool) "bound below energy" true
          (r1.Solver.lower_bound <= r1.Solver.energy +. 1e-9)
      done)

(* An interrupt that fires at once must still leave a labeling scored
   by its true energy: the zone solves are anytime, so round 1 always
   runs. *)
let test_solve_zoned_interrupted () =
  let p =
    { Netdiv_workload.Workload.default with hosts = 200; degree = 6;
      services = 3 }
  in
  let enc =
    Netdiv_core.Encode.encode (Netdiv_workload.Workload.instance p) []
  in
  let m = Netdiv_core.Encode.mrf enc in
  let zone_of =
    Array.init (Mrf.n_nodes m) (fun v ->
        fst (Netdiv_core.Encode.slot_of enc v) * 4 / p.hosts)
  in
  let r = Trws.solve ~zone_of ~interrupt:(fun () -> true) m in
  Alcotest.(check bool) "finite energy" true (Float.is_finite r.Solver.energy);
  Alcotest.(check bool) "energy of the labeling" true
    (r.Solver.energy = Mrf.energy m r.Solver.labeling)

let test_solve_zoned_bound_valid () =
  (* zone bound + edge-slave minima must stay below the true optimum on
     instances small enough to enumerate *)
  for seed = 80 to 84 do
    let m = random_mrf (rng seed) 7 3 0.5 in
    let exact = Brute.solve m in
    let r = Trws.solve ~zone_of:(Array.init 7 (fun i -> i * 3 / 7)) m in
    Alcotest.(check bool)
      (Printf.sprintf "bound below optimum seed=%d" seed)
      true
      (r.Solver.lower_bound <= exact.Solver.energy +. 1e-7);
    Alcotest.(check bool)
      (Printf.sprintf "primal above optimum seed=%d" seed)
      true
      (r.Solver.energy >= exact.Solver.energy -. 1e-9)
  done

(* ---------------------------------------------------------- golden pins *)

(* Bit-exact trajectories of the local-search solvers.  Each pin is the
   labeling's digest, the energy in hex (%h), the iteration count and
   the convergence flag: a change to the order in which a sum adds its
   terms, or to how a tie between labels is broken, moves at least one
   of them even when every behavioural test still passes. *)
let fingerprint (r : Solver.result) =
  let labels =
    String.concat "," (Array.to_list (Array.map string_of_int r.labeling))
  in
  Printf.sprintf "%s %h %d %b"
    (Digest.to_hex (Digest.string labels))
    r.energy r.iterations r.converged

let workload_mrf p =
  Netdiv_core.Encode.mrf
    (Netdiv_core.Encode.encode (Netdiv_workload.Workload.instance p) [])

let pin_model =
  lazy
    (workload_mrf
       { Netdiv_workload.Workload.default with
         hosts = 60; degree = 6; services = 4 })

let pins =
  let exact seed n k p () =
    Option.get (Exact.solve (random_mrf (rng seed) n k p))
  in
  [
    ( "icm from the greedy start",
      (fun () -> Icm.solve (Lazy.force pin_model)),
      "060b5e57ee1bac2e2f6697e9c1050aba 0x1.f67c99cbe36dap+5 5 true" );
    ( "icm from a trws warm start",
      (fun () ->
        let m = Lazy.force pin_model in
        Icm.solve ~init:(Trws.solve m).Solver.labeling m),
      "8be51e288ba195a1c50bb5b8769b81d9 0x1.f1c192f63c1e2p+5 4 true" );
    ( "sa, default seed",
      (fun () -> Sa.solve (Lazy.force pin_model)),
      "f1a486d530a1e4a3d3b09ca258a5a550 0x1.8adbe1890576ap+5 584 true" );
    ( "exact, 9 variables",
      exact 41 9 4 0.8,
      "1a213a00fe72808cdf0b4f0dbdaaed7b 0x1.621175328a983p+3 1 true" );
    ( "exact, 10 variables",
      exact 58 10 4 0.6,
      "56039c08ded39752496133642738d437 0x1.7479710a53afdp+3 1 true" );
  ]

let test_golden_pins () =
  List.iter
    (fun (name, run, expected) ->
      Alcotest.(check string) name expected (fingerprint (run ())))
    pins;
  (* the exact pins are the optimum: enumeration finds the same
     labelings *)
  List.iter
    (fun (seed, n, p) ->
      let m = random_mrf (rng seed) n 4 p in
      Alcotest.(check (array int))
        (Printf.sprintf "exact, %d variables: brute-force optimum" n)
        (Brute.solve m).Solver.labeling
        (Option.get (Exact.solve m)).Solver.labeling)
    [ (41, 9, 0.8); (58, 10, 0.6) ]

(* The labelings elimination certifies on the case study's three
   encodings, through the CLI's path: EXPERIMENTS Figure 4 rests on how
   C1's tie at 44.513227 is broken. *)
let test_exact_case_study_pins () =
  let case = Netdiv_casestudy.Products.network () in
  List.iter
    (fun (name, constraints, expected) ->
      let r =
        Netdiv_core.Optimize.run ~solver:Netdiv_core.Optimize.Exact case
          constraints
      in
      Alcotest.(check string) name expected
        (fingerprint r.Netdiv_core.Optimize.solver_result))
    [ ( "none", [],
        "b48945cf8b925088c1f693c9223fe97a 0x1.4745c9cfe808fp+5 1 true" );
      ( "C1", Netdiv_casestudy.Products.host_constraints case,
        "62ff021e4fdd2e3914c8893d7d4bfb5f 0x1.641b16f896406p+5 1 true" );
      ( "C2", Netdiv_casestudy.Products.product_constraints case,
        "a6a562aec8a66f0f53d6176703219f30 0x1.64aa2e344c6d1p+5 1 true" ) ]

(* Bit-exact results of every TRW-S schedule: the local-search
   fingerprint with the bound in hex after the energy. *)
let schedule_fingerprint (r : Solver.result) =
  let labels =
    String.concat "," (Array.to_list (Array.map string_of_int r.labeling))
  in
  Printf.sprintf "%s %h %h %d %b"
    (Digest.to_hex (Digest.string labels))
    r.energy r.lower_bound r.iterations r.converged

(* the case study's unconstrained (C0) model: several components *)
let casestudy_c0 =
  lazy
    (Netdiv_core.Encode.mrf
       (Netdiv_core.Encode.encode (Netdiv_casestudy.Products.network ()) []))

(* 5000 variables, one component: with [jobs], still the sequential
   sweep *)
let big_connected = lazy (connected_mrf (rng 90) 5000 3 ~chords:2500)

let small_zoned_params =
  {
    Netdiv_workload.Workload.z_hosts = 300;
    z_zones = 3;
    z_degree = 4;
    z_gateway_links = 2;
    z_services = 2;
    z_products = 3;
    z_seed = 5;
  }

let small_zoned =
  lazy (Netdiv_workload.Workload.stream_zoned small_zoned_params)

(* the case study under the C1 host policy, and under C2 (C1 plus the
   product-combination constraints): about a third of their edges carry
   a table whose off-diagonal entries are all equal (a Potts table) *)
let casestudy_constrained constraints =
  lazy
    (let net = Netdiv_casestudy.Products.network () in
     Netdiv_core.Encode.mrf (Netdiv_core.Encode.encode net (constraints net)))

let casestudy_c1 =
  casestudy_constrained Netdiv_casestudy.Products.host_constraints

let casestudy_c2 =
  casestudy_constrained Netdiv_casestudy.Products.product_constraints

(* Three parallel edges between nodes 0 and 2 and two between 1 and 3,
   each with its own table and either orientation, label counts 2 to 5,
   and node 4 without edges: TRW-S pairs every incidence slot with the
   slot of the same edge at the other end, and parallel edges are where
   that pairing can go wrong. *)
let parallel_mrf =
  lazy
    (let rng = rng 2024 in
     let labels = [| 3; 2; 5; 4; 3; 2; 4 |] in
     let b = Mrf.Builder.create ~label_counts:labels in
     Array.iteri
       (fun i k ->
         Mrf.Builder.set_unary b ~node:i
           (Array.init k (fun _ -> Random.State.float rng 1.0)))
       labels;
     List.iter
       (fun (u, v) ->
         Mrf.Builder.add_edge b u v
           (Array.init (labels.(u) * labels.(v)) (fun _ ->
                Random.State.float rng 1.0)))
       [ (0, 2); (2, 0); (0, 1); (0, 2); (1, 3); (3, 1); (2, 3); (5, 6);
         (6, 2); (1, 5); (3, 6); (0, 3); (5, 2); (6, 1) ];
     Mrf.Builder.build b)

(* the encoding the ics-scaled-160 workload solves: Table IV catalogs,
   mixed label counts, and TRW-S runs to its iteration cap *)
let scaled_160 =
  lazy
    (let s = Netdiv_casestudy.Scaled.generate ~seed:1 ~scale:5 () in
     Netdiv_core.Encode.mrf
       (Netdiv_core.Encode.encode s.Netdiv_casestudy.Scaled.network []))

(* 200 hosts in 3 zones: zones of 67, 67 and 66 hosts *)
let uneven_zoned =
  lazy
    (Netdiv_workload.Workload.stream_zoned
       {
         Netdiv_workload.Workload.z_hosts = 200;
         z_zones = 3;
         z_degree = 5;
         z_gateway_links = 3;
         z_services = 2;
         z_products = 4;
         z_seed = 11;
       })

let schedule_pins =
  let c0 jobs () = Trws.solve ~jobs (Lazy.force casestudy_c0) in
  let big jobs () = Trws.solve ~jobs (Lazy.force big_connected) in
  let zoned jobs () =
    let m, zone_of = Lazy.force small_zoned in
    Trws.solve ~zone_of ~jobs m
  in
  let uneven jobs () =
    let m, zone_of = Lazy.force uneven_zoned in
    Trws.solve ~zone_of ~jobs m
  in
  let uneven_pin =
    "1aa5a6b7f8ca6f32567e123d60688196 0x1.2ce2b25c2f4b7p+6 \
     0x1.ffffffffffffep+1 8 false"
  in
  (* the energy is Mrf.energy of the merged labeling; the sum of the
     per-component energies would read 0x1.4745c9cfe808cp+5 *)
  let c0_pin =
    "60f58d3965e99d29b2ba47ec3bf83f2c 0x1.4745c9cfe808fp+5 \
     0x1.323dc2e43775fp+5 59 true"
  in
  let big_pin =
    "8660075b3496a4b0335a76635a9732ed 0x1.ea900cd4175f5p+11 \
     0x1.ea900cd4175efp+11 45 true"
  in
  let zoned_pin =
    "0bfe1b2234c21ff6887fdb9216640d70 0x1.72c4f7430b7dcp+6 \
     0x1.7fffffffffffcp+2 8 false"
  in
  [
    ( "trws, sequential",
      (fun () -> Trws.solve (Lazy.force pin_model)),
      "ae60ad39042037da745fe604c44fa637 0x1.45758578b5c6ap+6 \
       0x1.333333333332cp+1 4 true" );
    ("trws, case study C0, jobs 1", c0 1, c0_pin);
    ("trws, case study C0, jobs 2", c0 2, c0_pin);
    ("trws, case study C0, jobs 4", c0 4, c0_pin);
    ("trws, 5000 connected variables, jobs 1", big 1, big_pin);
    ("trws, 5000 connected variables, jobs 2", big 2, big_pin);
    ("trws, 5000 connected variables, jobs 4", big 4, big_pin);
    ("trws, stream_zoned zone map, jobs 1", zoned 1, zoned_pin);
    ("trws, stream_zoned zone map, jobs 2", zoned 2, zoned_pin);
    ( "trws, case study C1",
      (fun () -> Trws.solve (Lazy.force casestudy_c1)),
      "d7a0ab5fc98dcb25a3eef05ad4523013 0x1.641b16f896406p+5 \
       0x1.53fcd6a137c9bp+5 17 true" );
    ( "trws, case study C2",
      (fun () -> Trws.solve (Lazy.force casestudy_c2)),
      "6d34866032acc4bbc8040cd277461696 0x1.6904dd59b8003p+5 \
       0x1.53f7a5cfe297ap+5 43 true" );
    (* Potts, constant-plus-sparse and dense tables on one large
       component: with [jobs], still the sequential sweep *)
    ( "trws, 4200 structured variables, jobs 2",
      (fun () -> Trws.solve ~max_iters:10 ~jobs:2 (big_structured_mrf 0)),
      "13c914855e0be7a0a571b846a7479a5a 0x1.5a0b37b30a02ap+11 \
       0x1.58b802378e8aep+11 10 false" );
    ( "trws, parallel edges and an isolated node",
      (fun () -> Trws.solve (Lazy.force parallel_mrf)),
      "1b55e005b6323e7097f37eb45f060f8d 0x1.adda78bc3b534p+2 \
       0x1.9344fd3a45b9p+2 100 false" );
    ( "trws, Scaled scale 5 encoding",
      (fun () -> Trws.solve (Lazy.force scaled_160)),
      "f7a506973a4374c5b1c53e7df2bb0d7c 0x1.a5cb0f6c33c7ep+7 \
       0x1.871d4062de754p+7 100 false" );
    ("trws, uneven stream_zoned zones, jobs 1", uneven 1, uneven_pin);
    ("trws, uneven stream_zoned zones, jobs 2", uneven 2, uneven_pin);
  ]

let test_schedule_pins () =
  List.iter
    (fun (name, run, expected) ->
      Alcotest.(check string) name expected (schedule_fingerprint (run ())))
    schedule_pins

(* ------------------------------------------------------- icm reference *)

(* The per-label ICM that walked [Mrf.incident] tuples, kept as the
   reference the CSR implementation must reproduce bit for bit: same
   labeling, same energy bits, same sweep count, same [converged].  Only
   the interrupt and progress hooks are left out; neither touches the
   trajectory. *)
module Reference_icm = struct
  let greedy_unary_init mrf =
    Array.init (Mrf.n_nodes mrf) (fun i ->
        let k = Mrf.label_count mrf i in
        let best = ref 0 in
        for l = 1 to k - 1 do
          if
            Mrf.unary mrf ~node:i ~label:l
            < Mrf.unary mrf ~node:i ~label:!best
          then best := l
        done;
        !best)

  (* Cost of node i taking label xi given the rest of the labeling. *)
  let local_cost mrf x i xi =
    let acc = ref (Mrf.unary mrf ~node:i ~label:xi) in
    Array.iter
      (fun (e, i_is_u) ->
        let j = Mrf.opposite mrf ~edge:e i in
        let pot = Mrf.edge_cost mrf e in
        let kj = Mrf.label_count mrf j in
        let ki = Mrf.label_count mrf i in
        let c =
          if i_is_u then pot.((xi * kj) + x.(j)) else pot.((x.(j) * ki) + xi)
        in
        acc := !acc +. c)
      (Mrf.incident mrf i);
    !acc

  let solve ~max_sweeps ?init mrf =
    let n = Mrf.n_nodes mrf in
    let x =
      match init with
      | Some x0 ->
          Mrf.validate_labeling mrf x0;
          Array.copy x0
      | None -> greedy_unary_init mrf
    in
    let sweeps = ref 0 in
    let converged = ref false in
    (try
       for s = 1 to max_sweeps do
         sweeps := s;
         let changed = ref false in
         for i = 0 to n - 1 do
           let k = Mrf.label_count mrf i in
           let best = ref x.(i) in
           let best_cost = ref (local_cost mrf x i x.(i)) in
           for xi = 0 to k - 1 do
             if xi <> x.(i) then begin
               let c = local_cost mrf x i xi in
               if c < !best_cost then begin
                 best_cost := c;
                 best := xi
               end
             end
           done;
           if !best <> x.(i) then begin
             x.(i) <- !best;
             changed := true
           end
         done;
         if not !changed then begin
           converged := true;
           raise Exit
         end
       done
     with Exit -> ());
    (x, Mrf.energy mrf x, !sweeps, !converged)
end

(* Small models built to tie: label counts 1..5 (so tables are rarely
   square), random orientation and repeated endpoint pairs (parallel
   edges), and integer costs in {0, 1, 2}, so that many labels share a
   local cost and the keep-the-current-label rule decides. *)
let tie_mrf rng =
  let n = 1 + Random.State.int rng 9 in
  let labels = Array.init n (fun _ -> 1 + Random.State.int rng 5) in
  let cost () = float_of_int (Random.State.int rng 3) in
  let b = Mrf.Builder.create ~label_counts:labels in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i (Array.init labels.(i) (fun _ -> cost ()))
  done;
  if n >= 2 then
    for _ = 1 to Random.State.int rng (3 * n) do
      let u = Random.State.int rng n in
      let v = (u + 1 + Random.State.int rng (n - 1)) mod n in
      Mrf.Builder.add_edge b u v
        (Array.init (labels.(u) * labels.(v)) (fun _ -> cost ()))
    done;
  let init = Array.init n (fun i -> Random.State.int rng labels.(i)) in
  (Mrf.Builder.build b, init)

let tie_mrf_gen =
  QCheck2.Gen.(map (fun seed -> tie_mrf (Random.State.make [| seed |])) int)

let prop_icm_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"ICM = the incident-walk reference, bit for bit" tie_mrf_gen
    (fun (m, x0) ->
      List.for_all
        (fun (max_sweeps, init) ->
          let r = Icm.solve ~config:{ Icm.max_sweeps } ?init m in
          let x, energy, sweeps, converged =
            Reference_icm.solve ~max_sweeps ?init m
          in
          r.Solver.labeling = x
          && Int64.equal
               (Int64.bits_of_float r.Solver.energy)
               (Int64.bits_of_float energy)
          && r.Solver.iterations = sweeps
          && r.Solver.converged = converged)
        [
          (1, None); (2, None); (100, None);
          (1, Some x0); (2, Some x0); (100, Some x0);
        ])

(* ------------------------------------------------------- sa reference *)

(* The annealing loop that copied the whole labeling on every new best,
   kept as the reference the undo log must reproduce bit for bit: same
   labeling, same energy bits, same sweep count, same [converged].
   Restarts run in sequence ([Sa.solve] returns the same for any domain
   count); the telemetry samples are left out. *)
module Reference_sa = struct
  let move_delta (a : Mrf.Compact.arrays) x i fresh =
    let current = x.(i) in
    if fresh = current then 0.0
    else begin
      let k = a.i_labels.(i) and u0 = a.i_unary_off.(i) in
      let delta = ref (a.i_unary.(u0 + fresh) -. a.i_unary.(u0 + current)) in
      for slot = a.i_inc_off.(i) to a.i_inc_off.(i + 1) - 1 do
        let code = a.i_inc.(slot) in
        let j = a.i_col.(slot) in
        let base = a.i_pot_off.(a.i_etab.(code lsr 1)) in
        let i_is_u = code land 1 = 1 in
        let off = if i_is_u then base + x.(j) else base + (x.(j) * k) in
        let stride = if i_is_u then a.i_labels.(j) else 1 in
        delta :=
          !delta +. a.i_pot.(off + (fresh * stride))
          -. a.i_pot.(off + (current * stride))
      done;
      !delta
    end

  let solve ~(config : Sa.config) ~interrupt ?init mrf =
    let n = Mrf.n_nodes mrf in
    let arrays = Mrf.Compact.arrays mrf in
    let start =
      match init with
      | Some x0 -> Array.copy x0
      | None -> Reference_icm.greedy_unary_init mrf
    in
    let one_restart restart =
      let rng = Random.State.make [| config.seed; restart |] in
      let x = Array.copy start in
      let energy = ref (Mrf.energy mrf x) in
      let local_best = Array.copy start in
      let local_best_energy = ref !energy in
      let sweeps = ref 0 in
      let stopped = ref false in
      let temp = ref config.initial_temp in
      (try
         while !temp > config.min_temp do
           for _ = 1 to config.sweeps_per_temp do
             if interrupt () then begin
               stopped := true;
               raise Exit
             end;
             incr sweeps;
             for i = 0 to n - 1 do
               let k = Mrf.label_count mrf i in
               if k > 1 then begin
                 let fresh = Random.State.int rng k in
                 let delta = move_delta arrays x i fresh in
                 if
                   delta <= 0.0
                   || Random.State.float rng 1.0 < exp (-.delta /. !temp)
                 then begin
                   x.(i) <- fresh;
                   energy := !energy +. delta;
                   if !energy < !local_best_energy then begin
                     local_best_energy := !energy;
                     Array.blit x 0 local_best 0 n
                   end
                 end
               end
             done
           done;
           temp := !temp *. config.cooling
         done
       with Exit -> ());
      (local_best, !local_best_energy, !sweeps, !stopped)
    in
    let best = Array.copy start in
    let best_energy = ref (Mrf.energy mrf start) in
    let sweeps = ref 0 in
    let stopped = ref false in
    List.iter
      (fun (x, e, s, st) ->
        sweeps := !sweeps + s;
        if st then stopped := true;
        if e < !best_energy then begin
          best_energy := e;
          Array.blit x 0 best 0 n
        end)
      (List.init config.restarts one_restart);
    (best, Mrf.energy mrf best, !sweeps, not !stopped)
end

(* The hot schedule accepts most moves at 4,000-odd sweeps over at most
   9 variables, so the log outgrows n entries and is written out; the
   interrupt stops the first restart after 7 sweeps and the later ones
   before their first. *)
let prop_sa_matches_reference =
  QCheck2.Test.make ~count:100
    ~name:"SA = the copy-on-improve reference, bit for bit" tie_mrf_gen
    (fun (m, x0) ->
      let hot =
        { Sa.default_config with initial_temp = 50.0; cooling = 0.99 }
      in
      List.for_all
        (fun (config, init, stop_after) ->
          let interrupt () =
            let polls = ref 0 in
            fun () ->
              incr polls;
              !polls > stop_after
          in
          let r = Sa.solve ~config ~interrupt:(interrupt ()) ?init m in
          let x, energy, sweeps, converged =
            Reference_sa.solve ~config ~interrupt:(interrupt ()) ?init m
          in
          r.Solver.labeling = x
          && Int64.equal
               (Int64.bits_of_float r.Solver.energy)
               (Int64.bits_of_float energy)
          && r.Solver.iterations = sweeps
          && r.Solver.converged = converged)
        [
          (Sa.default_config, None, max_int);
          (Sa.default_config, Some x0, max_int);
          (hot, None, max_int);
          ({ hot with restarts = 4 }, Some x0, max_int);
          ({ hot with restarts = 3 }, None, 7);
        ])

(* ----------------------------------------------------- trws reference *)

(* The TRW-S loop that ran every node's turn in every sweep and computed
   the bound and a decode after every sweep pair, kept as the reference
   the change-driven sweep must reproduce bit for bit: same state
   layout, same float operations in the same order, and the same zoned
   decomposition with its zones solved in index order.  The telemetry
   is left out. *)
module Reference_trws = struct
  external ( .%() ) : floatarray -> int -> float = "%floatarray_safe_get"

  external ( .%()<- ) : floatarray -> int -> float -> unit
    = "%floatarray_safe_set"

  type state = {
    labels : int array;
    unary_off : int array;
    unary : floatarray;
    eu : int array;
    ev : int array;
    etab : int array;
    pot_off : int array;
    pot : float array;
    inc_off : int array;
    inc : int array;
    col : int array;
    split : int array;
    msg_off : int array;
    out_off : int array;
    msg : floatarray;
    agg : floatarray;
    gamma : float array;
    chain_off : int array;
    chain : int array;
    theta : floatarray;
    h : floatarray;
  }

  let make_state mrf =
    let a = Mrf.Compact.arrays mrf in
    let labels = a.i_labels and inc_off = a.i_inc_off and col = a.i_col in
    let n = Array.length labels and m = Array.length a.i_eu in
    let split = Array.make n 0 in
    let msg_off = Array.make (n + 1) 0 in
    let gamma = Array.make n 1.0 in
    let n_chains = ref 0 in
    for i = 0 to n - 1 do
      let lo = inc_off.(i) and hi = inc_off.(i + 1) in
      let s = ref lo in
      while !s < hi && col.(!s) < i do
        incr s
      done;
      split.(i) <- !s;
      let lower = !s - lo and higher = hi - !s in
      gamma.(i) <- 1.0 /. float_of_int (max 1 (max lower higher));
      msg_off.(i + 1) <- msg_off.(i) + ((hi - lo) * labels.(i));
      n_chains := !n_chains + max 0 (higher - lower)
    done;
    let out_off = Array.make inc_off.(n) 0 in
    let cursor = Array.sub inc_off 0 n in
    for p = 0 to inc_off.(n) - 1 do
      let j = col.(p) in
      out_off.(p) <- msg_off.(j) + ((cursor.(j) - inc_off.(j)) * labels.(j));
      cursor.(j) <- cursor.(j) + 1
    done;
    let start = Array.make m (-1) in
    for i = 0 to n - 1 do
      for p = split.(i) + (split.(i) - inc_off.(i)) to inc_off.(i + 1) - 1 do
        start.(a.i_inc.(p) lsr 1) <- p
      done
    done;
    let chain = Array.make m 0 in
    let chain_off = Array.make (!n_chains + 1) 0 in
    let c = ref 0 and len = ref 0 in
    for e = m - 1 downto 0 do
      if start.(e) >= 0 then begin
        let p = ref start.(e) in
        while !p >= 0 do
          chain.(!len) <- !p;
          incr len;
          let j = col.(!p) in
          let next = split.(j) + ((out_off.(!p) - msg_off.(j)) / labels.(j)) in
          p := if next < inc_off.(j + 1) then next else -1
        done;
        incr c;
        chain_off.(!c) <- !len
      end
    done;
    let kmax = Array.fold_left max 1 labels in
    {
      labels;
      unary_off = a.i_unary_off;
      unary = Float.Array.of_list (Array.to_list a.i_unary);
      eu = a.i_eu;
      ev = a.i_ev;
      etab = a.i_etab;
      pot_off = a.i_pot_off;
      pot = a.i_pot;
      inc_off;
      inc = a.i_inc;
      col;
      split;
      msg_off;
      out_off;
      msg = Float.Array.make msg_off.(n) 0.0;
      agg = Float.Array.create a.i_unary_off.(n);
      gamma;
      chain_off;
      chain;
      theta = Float.Array.make kmax 0.0;
      h = Float.Array.make kmax 0.0;
    }

  let reduce ~pot ~p0 ~src_is_u ~k_src ~k_out ~h ~out ~out_off =
    for xo = 0 to k_out - 1 do
      let best = ref infinity in
      if src_is_u then
        for xs = 0 to k_src - 1 do
          let c = h.%(xs) +. pot.(p0 + (xs * k_out) + xo) in
          if c < !best then best := c
        done
      else begin
        let r0 = p0 + (xo * k_src) in
        for xs = 0 to k_src - 1 do
          let c = h.%(xs) +. pot.(r0 + xs) in
          if c < !best then best := c
        done
      end;
      out.%(out_off + xo) <- !best
    done

  let update ~pot ~p0 ~src_is_u ~k_src ~k_out ~h ~out ~out_off =
    reduce ~pot ~p0 ~src_is_u ~k_src ~k_out ~h ~out ~out_off;
    let vmin = ref infinity in
    for xo = 0 to k_out - 1 do
      if out.%(out_off + xo) < !vmin then vmin := out.%(out_off + xo)
    done;
    for xo = 0 to k_out - 1 do
      out.%(out_off + xo) <- out.%(out_off + xo) -. !vmin
    done

  let gather st i (dst : floatarray) d0 =
    let k = st.labels.(i) in
    let u0 = st.unary_off.(i) in
    for x = 0 to k - 1 do
      dst.%(d0 + x) <- st.unary.%(u0 + x)
    done;
    let m0 = st.msg_off.(i) in
    for s = 0 to st.inc_off.(i + 1) - st.inc_off.(i) - 1 do
      let b = m0 + (s * k) in
      for x = 0 to k - 1 do
        dst.%(d0 + x) <- dst.%(d0 + x) +. st.msg.%(b + x)
      done
    done;
    let g = st.gamma.(i) in
    for x = 0 to k - 1 do
      dst.%(d0 + x) <- g *. dst.%(d0 + x)
    done

  let send st i (dst : floatarray) d0 lo hi =
    let k = st.labels.(i) in
    for p = lo to hi - 1 do
      let b = st.msg_off.(i) + ((p - st.inc_off.(i)) * k) in
      for x = 0 to k - 1 do
        st.h.%(x) <- dst.%(d0 + x) -. st.msg.%(b + x)
      done;
      let code = st.inc.(p) in
      update ~pot:st.pot
        ~p0:st.pot_off.(st.etab.(code lsr 1))
        ~src_is_u:(code land 1 = 1) ~k_src:k
        ~k_out:st.labels.(st.col.(p))
        ~h:st.h ~out:st.msg ~out_off:st.out_off.(p)
    done

  (* every node's turn, in both directions *)
  let sweep_pair st n =
    for i = 0 to n - 1 do
      let hi = st.inc_off.(i + 1) in
      if st.split.(i) < hi then begin
        gather st i st.theta 0;
        send st i st.theta 0 st.split.(i) hi
      end
    done;
    for i = n - 1 downto 0 do
      let lo = st.inc_off.(i) in
      if lo < st.inc_off.(i + 1) then begin
        let d0 = st.unary_off.(i) in
        gather st i st.agg d0;
        send st i st.agg d0 lo st.split.(i)
      end
    done

  let lower_bound st n =
    let dp = st.theta and out = st.h in
    let acc = ref 0.0 in
    for c = 0 to Array.length st.chain_off - 2 do
      let code0 = st.inc.(st.chain.(st.chain_off.(c))) in
      let e0 = code0 lsr 1 in
      let first = if code0 land 1 = 1 then st.eu.(e0) else st.ev.(e0) in
      let a0 = st.unary_off.(first) in
      for x = 0 to st.labels.(first) - 1 do
        dp.%(x) <- st.agg.%(a0 + x)
      done;
      let lo = ref first in
      for q = st.chain_off.(c) to st.chain_off.(c + 1) - 1 do
        let p = st.chain.(q) in
        let code = st.inc.(p) in
        let hi = st.col.(p) in
        let k_lo = st.labels.(!lo) and k_hi = st.labels.(hi) in
        let b = st.msg_off.(!lo) + ((p - st.inc_off.(!lo)) * k_lo) in
        for x = 0 to k_lo - 1 do
          dp.%(x) <- dp.%(x) -. st.msg.%(b + x)
        done;
        reduce ~pot:st.pot
          ~p0:st.pot_off.(st.etab.(code lsr 1))
          ~src_is_u:(code land 1 = 1) ~k_src:k_lo ~k_out:k_hi ~h:dp ~out
          ~out_off:0;
        let m_hi = st.out_off.(p) and a = st.unary_off.(hi) in
        for y = 0 to k_hi - 1 do
          dp.%(y) <- (out.%(y) -. st.msg.%(m_hi + y)) +. st.agg.%(a + y)
        done;
        lo := hi
      done;
      let best = ref infinity in
      for x = 0 to st.labels.(!lo) - 1 do
        if dp.%(x) < !best then best := dp.%(x)
      done;
      acc := !acc +. !best
    done;
    for i = n - 1 downto 0 do
      if st.inc_off.(i) = st.inc_off.(i + 1) then begin
        let best = ref infinity in
        for x = 0 to st.labels.(i) - 1 do
          let c = st.unary.%(st.unary_off.(i) + x) in
          if c < !best then best := c
        done;
        acc := !acc +. !best
      end
    done;
    !acc

  let decode st n x =
    let theta = st.theta in
    for i = 0 to n - 1 do
      let k = st.labels.(i) in
      let u0 = st.unary_off.(i) in
      for xi = 0 to k - 1 do
        theta.%(xi) <- st.unary.%(u0 + xi)
      done;
      for p = st.inc_off.(i) to st.split.(i) - 1 do
        let code = st.inc.(p) in
        let j = st.col.(p) in
        let p0 = st.pot_off.(st.etab.(code lsr 1)) in
        let i_is_u = code land 1 = 1 in
        let off = if i_is_u then p0 + x.(j) else p0 + (x.(j) * k) in
        let stride = if i_is_u then st.labels.(j) else 1 in
        for xi = 0 to k - 1 do
          theta.%(xi) <- theta.%(xi) +. st.pot.(off + (xi * stride))
        done
      done;
      let b = st.msg_off.(i) + ((st.split.(i) - st.inc_off.(i)) * k) in
      for s = 0 to st.inc_off.(i + 1) - st.split.(i) - 1 do
        for xi = 0 to k - 1 do
          theta.%(xi) <- theta.%(xi) +. st.msg.%(b + (s * k) + xi)
        done
      done;
      let best = ref 0 in
      for xi = 1 to k - 1 do
        if theta.%(xi) < theta.%(!best) then best := xi
      done;
      x.(i) <- !best
    done

  (* the bound, a decode and its energy after every sweep pair *)
  let sequential ~max_iters ~interrupt mrf =
    let st = make_state mrf in
    let n = Mrf.n_nodes mrf in
    let x = Array.make n 0 in
    let best_x = Array.make n 0 in
    decode st n best_x;
    let best_energy = ref (Mrf.energy mrf best_x) in
    let prev_energy = ref !best_energy in
    let best_bound = ref neg_infinity in
    let stall = ref 0 and iters = ref 0 and converged = ref false in
    (try
       for it = 1 to max_iters do
         if interrupt () then raise Exit;
         iters := it;
         sweep_pair st n;
         let lb = lower_bound st n in
         decode st n x;
         let e = Mrf.energy mrf x in
         if e < !best_energy then begin
           best_energy := e;
           Array.blit x 0 best_x 0 n
         end;
         let bound_progress = lb -. !best_bound in
         if lb > !best_bound then best_bound := lb;
         let energy_progress = !prev_energy -. !best_energy in
         prev_energy := !best_energy;
         if bound_progress < Solver.tolerance && energy_progress < Solver.tolerance
         then incr stall
         else stall := 0;
         if !stall >= 3 || !best_energy -. !best_bound < Solver.tolerance then
         begin
           converged := true;
           raise Exit
         end
       done
     with Exit -> ());
    {
      Solver.labeling = best_x;
      energy = !best_energy;
      lower_bound = !best_bound;
      iterations = !iters;
      converged = !converged;
    }

  (* the dual decomposition over a dense zone map of [nz] zones *)
  let zoned ~max_iters ~interrupt ~zone_of ~nz mrf =
    let n = Mrf.n_nodes mrf and m = Mrf.n_edges mrf in
    let g = Mrf.Compact.arrays mrf in
    let sizes = Array.make nz 0 and local = Array.make n 0 in
    for i = 0 to n - 1 do
      local.(i) <- sizes.(zone_of.(i));
      sizes.(zone_of.(i)) <- sizes.(zone_of.(i)) + 1
    done;
    let nodes = Array.init nz (fun z -> Array.make (max 1 sizes.(z)) 0) in
    for i = 0 to n - 1 do
      nodes.(zone_of.(i)).(local.(i)) <- i
    done;
    let builders =
      Array.init nz (fun z ->
          Mrf.Builder.create
            ~label_counts:
              (Array.init sizes.(z) (fun li -> g.i_labels.(nodes.(z).(li)))))
    in
    for z = 0 to nz - 1 do
      for li = 0 to sizes.(z) - 1 do
        let gi = nodes.(z).(li) in
        Mrf.Builder.set_unary builders.(z) ~node:li
          (Array.sub g.i_unary g.i_unary_off.(gi) g.i_labels.(gi))
      done
    done;
    let boundary = ref [] in
    for e = 0 to m - 1 do
      let u = g.i_eu.(e) and v = g.i_ev.(e) in
      if zone_of.(u) = zone_of.(v) then
        Mrf.Builder.add_edge builders.(zone_of.(u)) local.(u) local.(v)
          (Mrf.edge_cost mrf e)
      else boundary := e :: !boundary
    done;
    let be = Array.of_list (List.rev !boundary) in
    let nb = Array.length be in
    let subs = Array.map Mrf.Builder.build builders in
    let base = Array.map (fun s -> (Mrf.Compact.arrays s).i_unary) subs in
    let eff = Array.map Array.copy base in
    let wrapped = Array.init nz (fun z -> Mrf.with_unaries subs.(z) eff.(z)) in
    let sub_uoff = Array.map (fun s -> (Mrf.Compact.arrays s).i_unary_off) subs in
    let lam_off = Array.make (nb + 1) 0 in
    Array.iteri
      (fun bi e ->
        lam_off.(bi + 1) <-
          lam_off.(bi) + g.i_labels.(g.i_eu.(e)) + g.i_labels.(g.i_ev.(e)))
      be;
    let lam = Array.make (max 1 lam_off.(nb)) 0.0 in
    let xhat = Array.make n 0 and best_x = Array.make n 0 in
    let best_energy = ref infinity and best_bound = ref neg_infinity in
    let iters = ref 0 and converged = ref false in
    (try
       for r = 0 to 7 do
         if r > 0 && interrupt () then raise Exit;
         Array.iteri (fun z b -> Array.blit b 0 eff.(z) 0 (Array.length b)) base;
         Array.iteri
           (fun bi e ->
             let u = g.i_eu.(e) and v = g.i_ev.(e) in
             let ku = g.i_labels.(u) and lo = lam_off.(bi) in
             let zu = zone_of.(u) and zv = zone_of.(v) in
             let uo = sub_uoff.(zu).(local.(u)) in
             let vo = sub_uoff.(zv).(local.(v)) in
             for l = 0 to ku - 1 do
               eff.(zu).(uo + l) <- eff.(zu).(uo + l) +. lam.(lo + l)
             done;
             for l = 0 to g.i_labels.(v) - 1 do
               eff.(zv).(vo + l) <- eff.(zv).(vo + l) +. lam.(lo + ku + l)
             done)
           be;
         let results =
           Array.init nz (fun z -> sequential ~max_iters ~interrupt wrapped.(z))
         in
         for z = 0 to nz - 1 do
           for li = 0 to sizes.(z) - 1 do
             xhat.(nodes.(z).(li)) <- results.(z).Solver.labeling.(li)
           done
         done;
         let zb = ref 0.0 in
         for z = 0 to nz - 1 do
           zb := !zb +. results.(z).Solver.lower_bound
         done;
         let eb = ref 0.0 and disagree = ref 0 in
         let step_r = 0.25 /. float_of_int (r + 1) in
         Array.iteri
           (fun bi e ->
             let u = g.i_eu.(e) and v = g.i_ev.(e) in
             let ku = g.i_labels.(u) and kv = g.i_labels.(v) in
             let lo = lam_off.(bi) and p0 = g.i_pot_off.(g.i_etab.(e)) in
             let best = ref infinity and bu = ref 0 and bv = ref 0 in
             for xu = 0 to ku - 1 do
               for xv = 0 to kv - 1 do
                 let c =
                   g.i_pot.(p0 + (xu * kv) + xv)
                   -. lam.(lo + xu)
                   -. lam.(lo + ku + xv)
                 in
                 if c < !best then begin
                   best := c;
                   bu := xu;
                   bv := xv
                 end
               done
             done;
             eb := !eb +. !best;
             let xu = xhat.(u) and xv = xhat.(v) in
             if xu <> !bu then begin
               incr disagree;
               lam.(lo + xu) <- lam.(lo + xu) +. step_r;
               lam.(lo + !bu) <- lam.(lo + !bu) -. step_r
             end;
             if xv <> !bv then begin
               incr disagree;
               lam.(lo + ku + xv) <- lam.(lo + ku + xv) +. step_r;
               lam.(lo + ku + !bv) <- lam.(lo + ku + !bv) -. step_r
             end)
           be;
         let lb = !zb +. !eb in
         if lb > !best_bound then best_bound := lb;
         let e = Mrf.energy mrf xhat in
         if e < !best_energy then begin
           best_energy := e;
           Array.blit xhat 0 best_x 0 n
         end;
         let zones_converged =
           Array.for_all (fun r -> r.Solver.converged) results
         in
         iters :=
           if nb = 0 then
             Array.fold_left (fun acc r -> max acc r.Solver.iterations) 0 results
           else r + 1;
         if nb = 0 then begin
           converged := zones_converged;
           raise Exit
         end;
         if
           (!disagree = 0 && zones_converged)
           || !best_energy -. !best_bound < Solver.tolerance
         then begin
           converged := true;
           raise Exit
         end
       done
     with Exit -> ());
    {
      Solver.labeling = best_x;
      energy = !best_energy;
      lower_bound = !best_bound;
      iterations = !iters;
      converged = !converged;
    }

  (* zone ids renumbered densely in order of first appearance *)
  let solve ?(max_iters = 100) ?(interrupt = fun () -> false) ?zone_of mrf =
    let n = Mrf.n_nodes mrf in
    match zone_of with
    | Some ids ->
        let dense = Array.make n 0 and id_of = Hashtbl.create 16 in
        Array.iteri
          (fun i id ->
            dense.(i) <-
              (match Hashtbl.find_opt id_of id with
              | Some d -> d
              | None ->
                  let d = Hashtbl.length id_of in
                  Hashtbl.add id_of id d;
                  d))
          ids;
        let nz = max 1 (Hashtbl.length id_of) in
        if nz > 1 then zoned ~max_iters ~interrupt ~zone_of:dense ~nz mrf
        else sequential ~max_iters ~interrupt mrf
    | None -> sequential ~max_iters ~interrupt mrf
end

(* Models whose messages may never leave zero, like the synthetic
   Table VII-IX instances: labels fall into two families, and a table
   costs nothing across families (and nothing at all on a fifth of the
   edges), so many updates write back the message they read.  Label
   counts 1..5 and parallel edges as in [tie_mrf]. *)
let family_mrf rng =
  let n = 1 + Random.State.int rng 9 in
  let labels = Array.init n (fun _ -> 1 + Random.State.int rng 5) in
  let family = Array.init 5 (fun _ -> Random.State.bool rng) in
  let b = Mrf.Builder.create ~label_counts:labels in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init labels.(i) (fun _ -> float_of_int (Random.State.int rng 3)))
  done;
  if n >= 2 then
    for _ = 1 to Random.State.int rng (3 * n) do
      let u = Random.State.int rng n in
      let v = (u + 1 + Random.State.int rng (n - 1)) mod n in
      let zero = Random.State.int rng 5 = 0 in
      Mrf.Builder.add_edge b u v
        (Array.init (labels.(u) * labels.(v)) (fun c ->
             let a = c / labels.(v) and l = c mod labels.(v) in
             if zero || family.(a) <> family.(l) then 0.0
             else Random.State.float rng 1.0))
    done;
  Mrf.Builder.build b

(* A tie-heavy or a family model, with a zone map of up to three zones
   that leaves boundary edges on most models. *)
let trws_case_gen =
  QCheck2.Gen.(
    map
      (fun (seed, family) ->
        let rng = Random.State.make [| seed |] in
        let m = if family then family_mrf rng else fst (tie_mrf rng) in
        (m, Array.init (Mrf.n_nodes m) (fun _ -> Random.State.int rng 3)))
      (pair int bool))

(* Each run as (max_iters, polls before the interrupt fires, zone map,
   jobs); the interrupted zoned runs stay at jobs 1, where the zones
   poll in index order. *)
let prop_trws_matches_reference =
  QCheck2.Test.make ~count:300
    ~name:"change-driven TRW-S = the full-sweep reference, bit for bit"
    trws_case_gen (fun (m, zones) ->
      let bits = Int64.bits_of_float in
      List.for_all
        (fun (max_iters, stop_after, zone_of, jobs) ->
          let interrupt () =
            let polls = ref 0 in
            fun () ->
              incr polls;
              !polls > stop_after
          in
          let r =
            Trws.solve ~max_iters ~interrupt:(interrupt ()) ?jobs ?zone_of m
          in
          let r' =
            Reference_trws.solve ~max_iters ~interrupt:(interrupt ()) ?zone_of
              m
          in
          r.Solver.labeling = r'.Solver.labeling
          && Int64.equal (bits r.Solver.energy) (bits r'.Solver.energy)
          && Int64.equal (bits r.Solver.lower_bound)
               (bits r'.Solver.lower_bound)
          && r.Solver.iterations = r'.Solver.iterations
          && r.Solver.converged = r'.Solver.converged)
        [
          (100, max_int, None, None);
          (1, max_int, None, None);
          (2, max_int, None, None);
          (100, 0, None, None);
          (100, 1, None, None);
          (100, 3, None, None);
          (100, max_int, Some zones, Some 1);
          (100, max_int, Some zones, Some 2);
          (3, max_int, Some zones, Some 2);
          (100, 2, Some zones, Some 1);
          (100, 9, Some zones, Some 1);
        ])

(* The polish runs after TRW-S on every default solve; its sweeps
   must not feed the minor heap.  The incident walk allocated about 20M
   words here. *)
let test_icm_allocation_free () =
  let m =
    workload_mrf { Netdiv_workload.Workload.default with hosts = 200 }
  in
  let n = Mrf.n_nodes m in
  let init = (Trws.solve m).Solver.labeling in
  let before = Gc.minor_words () in
  let r = Icm.solve ~init m in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "icm ran" true (r.Solver.iterations > 0);
  if words >= float_of_int n then
    Alcotest.failf "Icm.solve allocated %.0f minor words on %d variables"
      words n

(* SA's uphill test draws its uniform as an integer and compares it
   unboxed, and the move delta is never returned boxed, so a solve's
   minor words do not grow with its proposals: over the default 73
   stages, 16 sweeps per stage make 804,658 uphill proposals of
   1,168,000 and 1 sweep makes 49,669 of 73,000, for the same stages,
   samples and result record.  With the boxed float draw and delta the
   two solves allocated 3,374,271 and 221,493 words. *)
let test_sa_allocation_flat () =
  let m = random_mrf (rng 61) 1000 4 0.004 in
  let words sweeps_per_temp =
    let config = { Sa.default_config with sweeps_per_temp; restarts = 1 } in
    let before = Gc.minor_words () in
    let r = Sa.solve ~config m in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "sweeps run" (73 * sweeps_per_temp)
      r.Solver.iterations;
    words
  in
  let extra = words 16 -. words 1 in
  if extra >= 64.0 then
    Alcotest.failf "15 more sweeps per stage allocated %.0f more minor words"
      extra

(* The minor words of 3 TRW-S iterations: a 4-iteration solve's words
   minus a 1-iteration solve's, so the state, the workspace and the
   result cancel out. *)
let test_trws_allocation_free () =
  let m =
    workload_mrf { Netdiv_workload.Workload.default with hosts = 200 }
  in
  let n = Mrf.n_nodes m in
  let words max_iters =
    let before = Gc.minor_words () in
    let r = Trws.solve ~max_iters m in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "iterations run" max_iters r.Solver.iterations;
    words
  in
  let extra = words 4 -. words 1 in
  if extra >= float_of_int n then
    Alcotest.failf
      "3 TRW-S iterations allocated %.0f minor words on %d variables" extra
      n

(* --mem-budget's predictor covers the solve: the model plus every word
   [Trws.solve] allocates stays within the estimate, with the zone map
   (which copies every node and interior edge into zone sub-models) and
   without.  Counted on one domain; the full majors bring the major
   heap's word count up to date. *)
let test_estimate_covers_solve () =
  let m, zone_of = Lazy.force small_zoned in
  let allocated solve =
    Gc.full_major ();
    let minor, promoted, major = Gc.counters () in
    ignore (solve () : Solver.result);
    Gc.full_major ();
    let minor', promoted', major' = Gc.counters () in
    minor' -. minor +. (major' -. major) -. (promoted' -. promoted)
  in
  let model = float_of_int (Mrf.footprint m).Mrf.f_words in
  let check what est words =
    if float_of_int est < model +. words then
      Alcotest.failf "%s: estimate %d words < model %.0f + solve %.0f" what
        est model words
  in
  check "one zone"
    (Mrf.estimate_words ~nodes:(Mrf.n_nodes m) ~edges:(Mrf.n_edges m)
       ~max_labels:(Mrf.max_label_count m) ~tables:(Mrf.n_tables m)
       ~zones:1)
    (allocated (fun () -> Trws.solve ~max_iters:0 m));
  check "zone map"
    (Netdiv_workload.Workload.estimate_zoned_words small_zoned_params)
    (allocated (fun () -> Trws.solve ~max_iters:0 ~jobs:1 ~zone_of m))

(* ------------------------------------------------------------- property *)

let mrf_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 100_000 in
    let* n = 2 -- 7 in
    let* k = 2 -- 4 in
    return (random_mrf (Random.State.make [| seed |]) n k 0.5))

let prop_trws_sandwich =
  QCheck2.Test.make ~count:60
    ~name:"TRW-S: bound <= optimum <= decoded energy" mrf_gen (fun m ->
      let exact = Brute.solve m in
      let r = Trws.solve m in
      r.Solver.lower_bound <= exact.Solver.energy +. 1e-7
      && r.Solver.energy >= exact.Solver.energy -. 1e-9)

let prop_decode_valid =
  QCheck2.Test.make ~count:60 ~name:"solvers return valid labelings"
    mrf_gen (fun m ->
      List.for_all
        (fun (r : Solver.result) ->
          match Mrf.validate_labeling m r.Solver.labeling with
          | () -> abs_float (Mrf.energy m r.labeling -. r.energy) < 1e-9
          | exception Invalid_argument _ -> false)
        [ Trws.solve m; Icm.solve m ])

(* Up to 10 variables with 2-4 labels each (mixed within a model),
   edges only inside 1-3 blocks, and each node isolated with probability
   1/5: disconnected parts and isolated nodes in one generator. *)
let elim_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 100_000 in
    let* n = 1 -- 10 in
    let* blocks = 1 -- 3 in
    return
      (let rng = Random.State.make [| seed |] in
       let labels = Array.init n (fun _ -> 2 + Random.State.int rng 3) in
       let block =
         Array.init n (fun _ ->
             if Random.State.int rng 5 = 0 then -1
             else Random.State.int rng blocks)
       in
       let b = Mrf.Builder.create ~label_counts:labels in
       for i = 0 to n - 1 do
         Mrf.Builder.set_unary b ~node:i
           (Array.init labels.(i) (fun _ -> Random.State.float rng 1.0))
       done;
       for u = 0 to n - 1 do
         for v = u + 1 to n - 1 do
           if
             block.(u) >= 0
             && block.(u) = block.(v)
             && Random.State.float rng 1.0 < 0.6
           then
             Mrf.Builder.add_edge b u v
               (Array.init
                  (labels.(u) * labels.(v))
                  (fun _ -> Random.State.float rng 1.0))
         done
       done;
       Mrf.Builder.build b))

let prop_exact_matches_brute =
  QCheck2.Test.make ~count:200 ~name:"elimination = brute force" elim_gen
    (fun m ->
      match Exact.solve m with
      | None -> false
      | Some r ->
          r.Solver.converged
          && Float.equal r.Solver.lower_bound r.Solver.energy
          && Float.equal r.Solver.energy (Mrf.energy m r.Solver.labeling)
          && abs_float (r.Solver.energy -. (Brute.solve m).Solver.energy)
             <= 1e-9)

(* Component id per node: the lowest node id of its component. *)
let component_map m =
  let n = Mrf.n_nodes m in
  let adj = Array.make n [] in
  for e = 0 to Mrf.n_edges m - 1 do
    let u, v = Mrf.edge_endpoints m e in
    adj.(u) <- v :: adj.(u);
    adj.(v) <- u :: adj.(v)
  done;
  let comp = Array.make n (-1) in
  let rec visit c i =
    if comp.(i) < 0 then begin
      comp.(i) <- c;
      List.iter (visit c) adj.(i)
    end
  in
  for i = 0 to n - 1 do
    visit i i
  done;
  comp

(* Nodes scattered over 2-4 blocks with edges only inside a block, so
   components interleave in node order. *)
let disconnected_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 100_000 in
    let* n = 3 -- 12 in
    let* k = 2 -- 4 in
    let* blocks = 2 -- 4 in
    return
      (let rng = Random.State.make [| seed |] in
       let block = Array.init n (fun _ -> Random.State.int rng blocks) in
       let b = Mrf.Builder.create ~label_counts:(Array.make n k) in
       for i = 0 to n - 1 do
         Mrf.Builder.set_unary b ~node:i
           (Array.init k (fun _ -> Random.State.float rng 1.0))
       done;
       for u = 0 to n - 1 do
         for v = u + 1 to n - 1 do
           if block.(u) = block.(v) && Random.State.float rng 1.0 < 0.6 then
             Mrf.Builder.add_edge b u v
               (Array.init (k * k) (fun _ -> Random.State.float rng 1.0))
         done
       done;
       Mrf.Builder.build b))

let prop_component_split_is_zone_map =
  QCheck2.Test.make ~count:100
    ~name:"TRW-S: component split = component zone map, bit for bit"
    disconnected_gen (fun m ->
      let comp = component_map m in
      QCheck2.assume (Array.exists (fun c -> c > 0) comp);
      let zoned = Trws.solve ~zone_of:comp m in
      let split = Trws.solve ~jobs:2 m in
      let bits = Int64.bits_of_float in
      zoned.Solver.labeling = split.Solver.labeling
      && Int64.equal (bits zoned.Solver.energy) (bits split.Solver.energy)
      && Int64.equal
           (bits zoned.Solver.lower_bound)
           (bits split.Solver.lower_bound)
      && zoned.Solver.iterations = split.Solver.iterations
      && Int64.equal (bits zoned.Solver.energy)
           (bits (Mrf.energy m zoned.Solver.labeling))
      && Int64.equal (bits split.Solver.energy)
           (bits (Mrf.energy m split.Solver.labeling)))

(* Random models with isolated nodes, 1-5 labels per node and parallel
   edges in both orientations: every node's CSR slice must equal the
   reference order kept here, its incidence codes sorted by opposite
   endpoint, then code (= edge id, since a node sits on one side of an
   edge). *)
let csr_gen =
  QCheck2.Gen.(
    let* seed = 0 -- 100_000 in
    let* n = 1 -- 12 in
    let* m = 0 -- 30 in
    return
      (let rng = Random.State.make [| seed |] in
       let k = Array.init n (fun _ -> 1 + Random.State.int rng 5) in
       let b = Mrf.Builder.create ~label_counts:k in
       if n > 1 then
         for _ = 1 to m do
           let u = Random.State.int rng n in
           let v = (u + 1 + Random.State.int rng (n - 1)) mod n in
           Mrf.Builder.add_edge b u v (Array.make (k.(u) * k.(v)) 0.5)
         done;
       Mrf.Builder.build b))

let prop_csr_matches_sorted_reference =
  QCheck2.Test.make ~count:300 ~name:"CSR slices = sorted reference" csr_gen
    (fun m ->
      let c = Mrf.Compact.arrays m in
      let n = Mrf.n_nodes m in
      let opposite code =
        let u, v = Mrf.edge_endpoints m (code lsr 1) in
        if code land 1 = 1 then v else u
      in
      let reference i =
        List.init (Mrf.n_edges m) Fun.id
        |> List.concat_map (fun e ->
               let u, v = Mrf.edge_endpoints m e in
               if u = i then [ (2 * e) + 1 ] else if v = i then [ 2 * e ] else [])
        |> List.sort (fun a b -> compare (opposite a, a) (opposite b, b))
      in
      List.for_all
        (fun i ->
          let lo = c.i_inc_off.(i) and hi = c.i_inc_off.(i + 1) in
          let slice = List.init (hi - lo) (fun s -> c.i_inc.(lo + s)) in
          slice = reference i
          && List.for_all
               (fun s -> c.i_col.(lo + s) = opposite c.i_inc.(lo + s))
               (List.init (hi - lo) Fun.id))
        (List.init n Fun.id)
      && c.i_inc_off.(n) = 2 * Mrf.n_edges m)

let () =
  Alcotest.run "mrf"
    [
      ( "model",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basic;
          Alcotest.test_case "builder validation" `Quick
            test_builder_validation;
          Alcotest.test_case "energy validation" `Quick
            test_energy_validation;
          Alcotest.test_case "incidence ordering" `Quick test_incident;
          Alcotest.test_case "shared pairwise matrices" `Quick
            test_shared_matrix;
          Alcotest.test_case "interned pairwise tables" `Quick
            test_interned_tables;
          Alcotest.test_case "interning allocates nothing" `Quick
            test_interning_allocation_free;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "trws tiny exact" `Quick test_trws_tiny_exact;
          Alcotest.test_case "trws exact and tight on trees" `Quick
            test_trws_trees_exact;
          Alcotest.test_case "all solvers vs brute force" `Quick
            test_solvers_vs_brute_loopy;
          Alcotest.test_case "bound below decoded energy" `Quick
            test_trws_bound_below_decoded;
          Alcotest.test_case "icm reaches a local optimum" `Quick
            test_icm_local_optimum;
          Alcotest.test_case "icm improves its init" `Quick
            test_icm_respects_init;
          Alcotest.test_case "brute enumerates fully" `Quick
            test_brute_counts;
          Alcotest.test_case "brute respects limit" `Quick test_brute_limit;
          Alcotest.test_case "isolated nodes" `Quick test_isolated_nodes;
          Alcotest.test_case "sa vs brute force" `Quick test_sa_vs_brute;
          Alcotest.test_case "sa deterministic" `Quick test_sa_deterministic;
          Alcotest.test_case "sa improves init" `Quick test_sa_improves_init;
          Alcotest.test_case "sa config validation" `Quick
            test_sa_config_validation;
          Alcotest.test_case "sa parallel = sequential" `Quick
            test_sa_parallel_matches_sequential;
          Alcotest.test_case "sa oversubscribed domains" `Quick
            test_sa_oversubscribed;
          Alcotest.test_case "per-component trws" `Quick
            test_solve_components;
          Alcotest.test_case "exact certifies trees" `Quick test_exact_trees;
          Alcotest.test_case "exact rejects what does not fit" `Quick
            test_exact_rejects;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "golden local-search pins" `Quick
            test_golden_pins;
          Alcotest.test_case "exact case-study pins" `Quick
            test_exact_case_study_pins;
          Alcotest.test_case "golden schedule pins" `Quick
            test_schedule_pins;
          Alcotest.test_case "icm allocates fewer minor words than nodes"
            `Quick test_icm_allocation_free;
          Alcotest.test_case "sa minor words flat in its proposals" `Quick
            test_sa_allocation_flat;
          Alcotest.test_case "trws iterations allocate fewer minor words than nodes"
            `Quick test_trws_allocation_free;
        ] );
      ( "intra-component",
        [
          Alcotest.test_case "one zone with jobs = solve" `Quick
            test_trws_one_zone_jobs_matches_solve;
        ] );
      ( "zoned",
        [
          Alcotest.test_case "compact accessors agree with incident" `Quick
            test_compact_accessors;
          Alcotest.test_case "footprint accounting" `Quick test_footprint;
          Alcotest.test_case "with_unaries reparameterization" `Quick
            test_with_unaries;
          Alcotest.test_case "zoned trws, zones=1 = solve" `Quick
            test_solve_zoned_single_zone_matches_solve;
          Alcotest.test_case "zoned trws jobs-invariant" `Quick
            test_solve_zoned_jobs_invariant;
          Alcotest.test_case "zoned bound stays valid" `Quick
            test_solve_zoned_bound_valid;
          Alcotest.test_case "interrupted zoned solve keeps its energy"
            `Quick test_solve_zoned_interrupted;
          Alcotest.test_case "estimate covers building and solving" `Quick
            test_estimate_covers_solve;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_csr_matches_sorted_reference;
          QCheck_alcotest.to_alcotest prop_component_split_is_zone_map;
          QCheck_alcotest.to_alcotest prop_trws_sandwich;
          QCheck_alcotest.to_alcotest prop_decode_valid;
          QCheck_alcotest.to_alcotest prop_icm_matches_reference;
          QCheck_alcotest.to_alcotest prop_sa_matches_reference;
          QCheck_alcotest.to_alcotest prop_trws_matches_reference;
          QCheck_alcotest.to_alcotest prop_exact_matches_brute;
        ] );
    ]
