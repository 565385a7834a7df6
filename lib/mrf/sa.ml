module Obs = Netdiv_obs.Obs

type config = {
  initial_temp : float;
  cooling : float;
  min_temp : float;
  sweeps_per_temp : int;
  restarts : int;
  seed : int;
  domains : int;
}

let default_config =
  {
    initial_temp = 2.0;
    cooling = 0.9;
    min_temp = 1e-3;
    sweeps_per_temp = 4;
    restarts = 2;
    seed = 0x5ead;
    domains = 1;
  }

(* energy delta of moving node i to label [fresh], given labeling x:
   the unary difference, then each incidence's (fresh - current)
   pairwise difference in slice order.  Inlined at its one call, so the
   delta is never returned boxed. *)
let[@inline] move_delta (a : Mrf.Compact.arrays) x i fresh =
  let current = x.(i) in
  if fresh = current then 0.0
  else begin
    let k = a.i_labels.(i) and u0 = a.i_unary_off.(i) in
    let delta = ref (a.i_unary.(u0 + fresh) -. a.i_unary.(u0 + current)) in
    for slot = a.i_inc_off.(i) to a.i_inc_off.(i + 1) - 1 do
      let code = a.i_inc.(slot) in
      let j = a.i_col.(slot) in
      let base = a.i_pot_off.(a.i_etab.(code lsr 1)) in
      (* as the row endpoint i reads column x_j (stride k_j), as the
         column endpoint it reads row x_j (stride 1) *)
      let i_is_u = code land 1 = 1 in
      let off = if i_is_u then base + x.(j) else base + (x.(j) * k) in
      let stride = if i_is_u then a.i_labels.(j) else 1 in
      delta :=
        !delta +. a.i_pot.(off + (fresh * stride))
        -. a.i_pot.(off + (current * stride))
    done;
    !delta
  end

(* The uphill test [Random.State.float rng 1.0 < r] without boxing the
   draw: the stdlib's float is n * 2^-53 for n the top 53 bits of one
   [bits64] output, drawn again while zero, and [draw] returns that n
   from the same outputs (as Netdiv_sim.Engine's attempts do).  Only the
   redraw is recursive, so the first draw inlines at the test. *)
let rec redraw rng =
  let n =
    Int64.to_int (Int64.shift_right_logical (Random.State.bits64 rng) 11)
  in
  if n <> 0 then n else redraw rng

let[@inline] draw rng =
  let n =
    Int64.to_int (Int64.shift_right_logical (Random.State.bits64 rng) 11)
  in
  if n <> 0 then n else redraw rng

let greedy_unary_init mrf =
  Array.init (Mrf.n_nodes mrf) (fun i ->
      let k = Mrf.label_count mrf i in
      let best = ref 0 in
      for l = 1 to k - 1 do
        if
          Mrf.unary mrf ~node:i ~label:l < Mrf.unary mrf ~node:i ~label:!best
        then best := l
      done;
      !best)

let solve ?(config = default_config) ?(interrupt = fun () -> false) ?init mrf
    =
  if not (config.cooling > 0.0 && config.cooling < 1.0) then
    invalid_arg "Sa.solve: cooling must lie in (0,1)";
  let sequential = config.domains <= 1 || config.restarts <= 1 in
  let run () =
    let n = Mrf.n_nodes mrf in
    let arrays = Mrf.Compact.arrays mrf in
    let labels = arrays.Mrf.Compact.i_labels in
    let start =
      match init with
      | Some x0 ->
          Mrf.validate_labeling mrf x0;
          Array.copy x0
      | None -> greedy_unary_init mrf
    in
    (* one independent annealing run; deterministic in its restart index *)
    let one_restart restart =
      let rng = Random.State.make [| config.seed; restart |] in
      let x = Array.copy start in
      let energy = ref (Mrf.energy mrf x) in
      let local_best = Array.copy start in
      let local_best_energy = ref !energy in
      (* The best labeling is x with the moves accepted since the last
         new best undone: [log_node]/[log_prev] hold each move's node
         and previous label, oldest first.  A log of n entries is
         written out to [local_best] instead ([saved]), which then holds
         the best until the next new best, so memory stays O(n). *)
      let log_node = Array.make n 0 and log_prev = Array.make n 0 in
      let log_len = ref 0 and saved = ref false in
      let rebuild () =
        Array.blit x 0 local_best 0 n;
        for j = !log_len - 1 downto 0 do
          local_best.(log_node.(j)) <- log_prev.(j)
        done
      in
      let sweeps = ref 0 in
      let stopped = ref false in
      let temp = ref config.initial_temp in
      let proposals = ref 0 in
      let accepts = ref 0 in
      (try
         while !temp > config.min_temp do
           for _ = 1 to config.sweeps_per_temp do
             if interrupt () then begin
               stopped := true;
               raise Exit
             end;
             incr sweeps;
             for i = 0 to n - 1 do
               let k = labels.(i) in
               if k > 1 then begin
                 let fresh = Random.State.int rng k in
                 let delta = move_delta arrays x i fresh in
                 incr proposals;
                 if
                   delta <= 0.0
                   || float_of_int (draw rng) *. 0x1p-53
                      < exp (-.delta /. !temp)
                 then begin
                   incr accepts;
                   if not !saved then begin
                     if !log_len = n then begin
                       rebuild ();
                       saved := true
                     end
                     else begin
                       log_node.(!log_len) <- i;
                       log_prev.(!log_len) <- x.(i);
                       incr log_len
                     end
                   end;
                   x.(i) <- fresh;
                   energy := !energy +. delta;
                   if !energy < !local_best_energy then begin
                     local_best_energy := !energy;
                     log_len := 0;
                     saved := false
                   end
                 end
               end
             done
           done;
           Obs.sample ~name:"sa.iter" (float_of_int !sweeps);
           Obs.sample ~name:"sa.energy" !local_best_energy;
           temp := !temp *. config.cooling
         done
       with Exit -> ());
      if not !saved then rebuild ();
      (* acceptance telemetry: tallied in plain local ints, so the flip
         loop carries no instrumentation, and sampled once per restart *)
      Obs.sample ~name:"sa.proposals" (float_of_int !proposals);
      Obs.sample ~name:"sa.accepts" (float_of_int !accepts);
      (local_best, !local_best_energy, !sweeps, !stopped)
    in
    let results =
      if sequential then List.init config.restarts one_restart
      else
        (* each restart owns its rng (seeded by restart index) and the
           pool returns results in restart order, so the outcome is
           identical for any domain count — including the sequential
           path above *)
        (* granularity hint: temperature steps × sweeps × per-sweep
           flip cost (one move_delta over each node's incident edges) *)
        let temps =
          int_of_float
            (Float.max 1.0
               (ceil
                  (log (config.min_temp /. config.initial_temp)
                  /. log config.cooling)))
        in
        let per_sweep = n + (8 * Mrf.n_edges mrf) in
        let cost = temps * config.sweeps_per_temp * per_sweep in
        Array.to_list
          (Netdiv_par.Pool.map_range ~jobs:config.domains ~cost ~lo:0
             ~hi:config.restarts one_restart)
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
      results;
    {
      Solver.labeling = best;
      (* guard against float drift in the incremental energy *)
      energy = Mrf.energy mrf best;
      lower_bound = neg_infinity;
      iterations = !sweeps;
      converged = not !stopped;
    }
  in
  Obs.span ~name:"sa.solve" run
