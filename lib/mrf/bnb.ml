type config = { node_limit : int }

(* variable order: greedy max-connectivity into the already-ordered set,
   seeded by the highest-degree node *)
let connectivity_order mrf =
  let n = Mrf.n_nodes mrf in
  let order = Array.make n 0 in
  let placed = Array.make n false in
  let links_to_placed = Array.make n 0 in
  let degree = Mrf.Compact.degree mrf in
  let pick k =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if not placed.(i) then
        match !best with
        | -1 -> best := i
        | b ->
            (* lexicographic on (links into the ordered set, degree) *)
            let li = links_to_placed.(i) and lb = links_to_placed.(b) in
            if li > lb || (li = lb && degree i > degree b) then best := i
    done;
    let i = !best in
    placed.(i) <- true;
    order.(k) <- i;
    for slot = Mrf.Compact.row_start mrf i to Mrf.Compact.row_stop mrf i - 1 do
      let j = Mrf.Compact.neighbor mrf slot in
      links_to_placed.(j) <- links_to_placed.(j) + 1
    done
  in
  for k = 0 to n - 1 do
    pick k
  done;
  order

(* cost of node i at label l against its assigned neighbours: the unary,
   then each assigned incidence's pairwise term in slice order *)
let assigned_cost (a : Mrf.Compact.arrays) ~assigned x i l =
  let k = a.i_labels.(i) in
  let c = ref a.i_unary.(a.i_unary_off.(i) + l) in
  for slot = a.i_inc_off.(i) to a.i_inc_off.(i + 1) - 1 do
    let j = a.i_col.(slot) in
    if assigned.(j) then begin
      let code = a.i_inc.(slot) in
      let base = a.i_pot_off.(a.i_etab.(code lsr 1)) in
      (* as the row endpoint i reads column x_j (stride k_j), as the
         column endpoint it reads row x_j (stride 1) *)
      let i_is_u = code land 1 = 1 in
      let off = if i_is_u then base + x.(j) else base + (x.(j) * k) in
      let stride = if i_is_u then a.i_labels.(j) else 1 in
      c := !c +. a.i_pot.(off + (l * stride))
    end
  done;
  !c

let solve ?(config = { node_limit = 2_000_000 }) ?(interrupt = fun () -> false)
    mrf =
  let n = Mrf.n_nodes mrf in
  let order = connectivity_order mrf in
  (* incumbent from the approximate pipeline *)
  let warm = Trws.solve ~interrupt mrf in
  let polished = Icm.solve ~interrupt ~init:warm.Solver.labeling mrf in
  let best_x = Array.copy polished.Solver.labeling in
  let best = ref polished.Solver.energy in
  let warm_bound = warm.Solver.lower_bound in
  (* per-edge minimum over all label pairs (for fully-unassigned edges) *)
  let edge_min =
    Array.init (Mrf.n_edges mrf) (fun e ->
        Array.fold_left min infinity (Mrf.edge_cost mrf e))
  in
  let arrays = Mrf.Compact.arrays mrf in
  let x = Array.make n 0 in
  let assigned = Array.make n false in
  let nodes = ref 0 in
  let complete = ref true in
  (* admissible completion bound given the current partial assignment *)
  let remainder_bound () =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      if not assigned.(i) then begin
        (* best label of i against assigned neighbours *)
        let best_label = ref infinity in
        for l = 0 to Mrf.label_count mrf i - 1 do
          let c = assigned_cost arrays ~assigned x i l in
          if c < !best_label then best_label := c
        done;
        acc := !acc +. !best_label
      end
    done;
    (* fully-unassigned edges, counted once via their u endpoint *)
    for e = 0 to Mrf.n_edges mrf - 1 do
      let u = arrays.i_eu.(e) and v = arrays.i_ev.(e) in
      if (not assigned.(u)) && not assigned.(v) then
        acc := !acc +. edge_min.(e)
    done;
    !acc
  in
  let rec branch depth g =
    if !nodes >= config.node_limit then complete := false
    else begin
      incr nodes;
      if interrupt () then begin
        complete := false;
        raise Exit
      end;
      if depth = n then begin
        if g < !best then begin
          best := g;
          Array.blit x 0 best_x 0 n
        end
      end
      else begin
        let i = order.(depth) in
        let k = Mrf.label_count mrf i in
        (* try labels in increasing local-cost order *)
        let costs =
          Array.init k (fun l -> (assigned_cost arrays ~assigned x i l, l))
        in
        Array.sort compare costs;
        Array.iter
          (fun (cost, l) ->
            let g' = g +. cost in
            if g' < !best -. 1e-12 then begin
              x.(i) <- l;
              assigned.(i) <- true;
              let bound = g' +. remainder_bound () in
              if bound < !best -. 1e-12 then branch (depth + 1) g';
              assigned.(i) <- false
            end)
          costs
      end
    end
  in
  (try branch 0 0.0 with Exit -> ());
  {
    Solver.labeling = best_x;
    energy = !best;
    lower_bound = (if !complete then !best else warm_bound);
    iterations = !nodes;
    converged = !complete;
  }
