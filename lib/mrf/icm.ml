open Kernel

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
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) ?init mrf =
  let run () =
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
    (* [cost.%(l)] is node i's local energy at label l given its
       neighbours' labels: the unary first, then each incidence's
       pairwise term in slice order, so every label's sum adds the same
       terms in the same order whichever label is current. *)
    let cost = Float.Array.make (Mrf.max_label_count mrf) 0.0 in
    let sweeps = ref 0 in
    let converged = ref false in
    (try
       for s = 1 to config.max_sweeps do
         if interrupt () then raise Exit;
         sweeps := s;
         let changed = ref false in
         for i = 0 to n - 1 do
           let k = labels.(i) in
           let u0 = unary_off.(i) in
           for l = 0 to k - 1 do
             cost.%(l) <- unary.(u0 + l)
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
               cost.%(l) <- cost.%(l) +. pot.(off + (l * stride))
             done
           done;
           (* ascending scan; only a strictly cheaper label moves i *)
           let cur = x.(i) in
           let best = ref cur in
           for l = 0 to k - 1 do
             if l <> cur && cost.%(l) < cost.%(!best) then best := l
           done;
           if !best <> cur then begin
             x.(i) <- !best;
             changed := true
           end
         done;
         on_progress ~iter:s ~energy:(Mrf.energy mrf x)
           ~bound:neg_infinity;
         if not !changed then begin
           converged := true;
           raise Exit
         end
       done
     with Exit -> ());
    (x, !sweeps, !converged)
  in
  let (labeling, iterations, converged), runtime_s = Solver.timed run in
  {
    Solver.labeling;
    energy = Mrf.energy mrf labeling;
    lower_bound = neg_infinity;
    iterations;
    converged;
    runtime_s;
  }
