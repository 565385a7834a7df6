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

let test_compact_accessors () =
  let m = random_mrf (rng 60) 15 3 0.3 in
  for i = 0 to Mrf.n_nodes m - 1 do
    let inc = Mrf.incident m i in
    Alcotest.(check int)
      (Printf.sprintf "degree of %d" i)
      (Array.length inc) (Mrf.Compact.degree m i);
    Array.iteri
      (fun s (e, is_u) ->
        let k = Mrf.Compact.row_start m i + s in
        Alcotest.(check int) "edge id" e (Mrf.Compact.edge m k);
        Alcotest.(check bool) "orientation" is_u (Mrf.Compact.node_is_u m k);
        Alcotest.(check int) "neighbor column" (Mrf.opposite m ~edge:e i)
          (Mrf.Compact.neighbor m k))
      inc;
    Alcotest.(check int) "row extent"
      (Mrf.Compact.row_stop m i - Mrf.Compact.row_start m i)
      (Mrf.Compact.degree m i)
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
    Mrf.estimate_words ~nodes:40 ~edges:39 ~max_labels:3 ~tables:1
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

let small_zoned =
  lazy
    (Netdiv_workload.Workload.stream_zoned
       {
         Netdiv_workload.Workload.z_hosts = 300;
         z_zones = 3;
         z_degree = 4;
         z_gateway_links = 2;
         z_services = 2;
         z_products = 3;
         z_seed = 5;
       })

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

let schedule_pins =
  let c0 jobs () = Trws.solve ~jobs (Lazy.force casestudy_c0) in
  let big jobs () = Trws.solve ~jobs (Lazy.force big_connected) in
  let zoned jobs () =
    let m, zone_of = Lazy.force small_zoned in
    Trws.solve ~zone_of ~jobs m
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
          Alcotest.test_case "golden schedule pins" `Quick
            test_schedule_pins;
          Alcotest.test_case "icm allocates fewer minor words than nodes"
            `Quick test_icm_allocation_free;
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
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_component_split_is_zone_map;
          QCheck_alcotest.to_alcotest prop_trws_sandwich;
          QCheck_alcotest.to_alcotest prop_decode_valid;
          QCheck_alcotest.to_alcotest prop_icm_matches_reference;
          QCheck_alcotest.to_alcotest prop_exact_matches_brute;
        ] );
    ]
