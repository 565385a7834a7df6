type result = {
  labeling : int array;
  energy : float;
  lower_bound : float;
  iterations : int;
  converged : bool;
}

let optimality_gap r =
  if Float.is_nan r.energy || Float.is_nan r.lower_bound then infinity
  else if not (Float.is_finite r.lower_bound) then infinity
  else if not (Float.is_finite r.energy) then infinity
  else r.energy -. r.lower_bound

(* render non-finite floats as words so nan/-inf never leak into reports *)
let pp_float ppf v =
  if Float.is_nan v then Format.pp_print_string ppf "undefined"
  else if Float.equal v neg_infinity then Format.pp_print_string ppf "none"
  else if Float.equal v infinity then Format.pp_print_string ppf "unbounded"
  else Format.fprintf ppf "%.6f" v

let pp_result ppf r =
  Format.fprintf ppf "energy %a, bound %a, %d iters, %s" pp_float r.energy
    pp_float r.lower_bound r.iterations
    (if r.converged then "converged" else "iteration cap")

(* One count, computed once per solve: each sweep recomputes both
   directed messages of every edge once, so the per-message hot path
   carries no instrumentation at all.  The report's throughput row sums
   these samples. *)
let sample_messages mrf ~sweeps =
  Netdiv_obs.Obs.sample ~name:"mrf.messages"
    (float_of_int (2 * Mrf.n_edges mrf * sweeps))
