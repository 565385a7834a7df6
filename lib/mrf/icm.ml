
type config = { max_sweeps : int }

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

let solve ?(config = { max_sweeps = 100 }) ?(interrupt = fun () -> false)
    ?init mrf =
  let n = Mrf.n_nodes mrf in
  let x =
    match init with
    | Some x0 ->
        Mrf.validate_labeling mrf x0;
        Array.copy x0
    | None -> greedy_unary_init mrf
  in
  let {
    Mrf.Compact.i_labels = labels;
    i_unary_off = unary_off;
    i_unary = unary;
    i_etab = etab;
    i_pot_off = pot_off;
    i_pot = pot;
    i_inc_off = inc_off;
    i_inc = inc;
    i_col = col;
    _;
  } =
    Mrf.Compact.arrays mrf
  in
  (* Entry l of [cost] is node i's local energy at label l given its
     neighbours' labels: the unary first, then each incidence's
     pairwise term in slice order, so every label's sum adds the same
     terms in the same order whichever label is current. *)
  let cost = Float.Array.make (Mrf.max_label_count mrf) 0.0 in
  (* A node is stale until it is evaluated, and again once a neighbour
     moves.  A node that is not stale keeps its label in a full sweep:
     its costs are those of its last evaluation, which left it at a
     label no other label strictly beats. *)
  let stale = Bytes.make n '\001' in
  let sweeps = ref 0 in
  let converged = ref false in
  (try
     for s = 1 to config.max_sweeps do
       if interrupt () then raise Exit;
       sweeps := s;
       let changed = ref false in
       for i = 0 to n - 1 do
         if Bytes.get stale i <> '\000' then begin
           Bytes.set stale i '\000';
           let k = labels.(i) in
           let u0 = unary_off.(i) in
           for l = 0 to k - 1 do
             Float.Array.set cost l unary.(u0 + l)
           done;
           for slot = inc_off.(i) to inc_off.(i + 1) - 1 do
             let code = inc.(slot) in
             let j = col.(slot) in
             let base = pot_off.(etab.(code lsr 1)) in
             (* as the row endpoint i reads column x_j (stride k_j), as
                the column endpoint it reads row x_j (stride 1) *)
             let i_is_u = code land 1 = 1 in
             let off = if i_is_u then base + x.(j) else base + (x.(j) * k) in
             let stride = if i_is_u then labels.(j) else 1 in
             for l = 0 to k - 1 do
               Float.Array.set cost l
                 (Float.Array.get cost l +. pot.(off + (l * stride)))
             done
           done;
           (* ascending scan; only a strictly cheaper label moves i *)
           let cur = x.(i) in
           let best = ref cur in
           for l = 0 to k - 1 do
             if l <> cur && Float.Array.get cost l < Float.Array.get cost !best
             then best := l
           done;
           if !best <> cur then begin
             x.(i) <- !best;
             changed := true;
             for slot = inc_off.(i) to inc_off.(i + 1) - 1 do
               Bytes.set stale col.(slot) '\001'
             done
           end
         end
       done;
       if not !changed then begin
         converged := true;
         raise Exit
       end
     done
   with Exit -> ());
  {
    Solver.labeling = x;
    energy = Mrf.energy mrf x;
    lower_bound = neg_infinity;
    iterations = !sweeps;
    converged = !converged;
  }
