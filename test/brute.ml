open Netdiv_mrf

let search_space mrf =
  let acc = ref 1.0 in
  for i = 0 to Mrf.n_nodes mrf - 1 do
    acc := !acc *. float_of_int (Mrf.label_count mrf i)
  done;
  !acc

let solve ?(limit = 2_000_000) mrf =
  if search_space mrf > float_of_int limit then
    invalid_arg "Brute.solve: search space too large";
  let n = Mrf.n_nodes mrf in
  let x = Array.make n 0 in
  let best = Array.make n 0 in
  let best_energy = ref (Mrf.energy mrf x) in
  let count = ref 1 in
  (* odometer enumeration *)
  let rec next i =
    if i < 0 then false
    else if x.(i) + 1 < Mrf.label_count mrf i then begin
      x.(i) <- x.(i) + 1;
      true
    end
    else begin
      x.(i) <- 0;
      next (i - 1)
    end
  in
  while next (n - 1) do
    incr count;
    let e = Mrf.energy mrf x in
    if e < !best_energy then begin
      best_energy := e;
      Array.blit x 0 best 0 n
    end
  done;
  {
    Solver.labeling = best;
    energy = !best_energy;
    lower_bound = !best_energy;
    iterations = !count;
    converged = true;
  }
