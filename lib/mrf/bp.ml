module Obs = Netdiv_obs.Obs
module Pool = Netdiv_par.Pool
open Kernel

type config = {
  max_iters : int;
  tolerance : float;
  damping : float;
  init_noise : float;
}

let default_config =
  { max_iters = 100; tolerance = 1e-7; damping = 0.3; init_noise = 1e-4 }

(* Message slabs and shared read-only topology; per-worker mutable
   scratch lives in {!workspace}.  [delta] holds each node's largest
   absolute message change of the current sweep — a per-node slot
   instead of a running maximum so parallel schedules can write
   disjointly and reduce afterwards (max is exact, so the reduction
   order never shows). *)
type state = {
  labels : int array;
  unary_off : int array;
  unary : floatarray;  (* unboxed copy of the model's unaries *)
  eu : int array;
  ev : int array;
  etab : int array;
  pot_off : int array;
  pot : float array;
  inc_off : int array;
  inc : int array;
  fw_off : int array;
  bw_off : int array;
  fw : floatarray;  (* message into v of each edge *)
  bw : floatarray;  (* message into u of each edge *)
  delta : floatarray;  (* per-node max message change, this sweep *)
}

type workspace = { theta : floatarray; ks : Kernel.scratch }

let make_state mrf =
  let {
    Mrf.Compact.i_labels = labels;
    i_unary_off = unary_off;
    i_unary = unary;
    i_eu = eu;
    i_ev = ev;
    i_etab = etab;
    i_pot_off = pot_off;
    i_pot = pot;
    i_inc_off = inc_off;
    i_inc = inc;
    i_col = _;
  } =
    Mrf.Compact.arrays mrf
  in
  let n = Array.length labels and m = Array.length eu in
  let fw_off = Array.make (m + 1) 0 and bw_off = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    fw_off.(e + 1) <- fw_off.(e) + labels.(ev.(e));
    bw_off.(e + 1) <- bw_off.(e) + labels.(eu.(e))
  done;
  {
    labels;
    unary_off;
    unary = Float.Array.init unary_off.(n) (fun k -> unary.(k));
    eu;
    ev;
    etab;
    pot_off;
    pot;
    inc_off;
    inc;
    fw_off;
    bw_off;
    fw = Float.Array.make fw_off.(m) 0.0;
    bw = Float.Array.make bw_off.(m) 0.0;
    delta = Float.Array.make (max 1 n) 0.0;
  }

let make_workspace st =
  let kmax = Array.fold_left max 1 st.labels in
  {
    theta = Float.Array.make kmax 0.0;
    ks = Kernel.make_scratch ~max_labels:kmax;
  }

(* break ties deterministically: symmetric models otherwise sit on the
   all-zero-message fixed point and decode to a mono labeling *)
let init_messages st config =
  if config.init_noise > 0.0 then begin
    let rng = Random.State.make [| 0x5bf0 |] in
    for i = 0 to Float.Array.length st.fw - 1 do
      st.fw.%(i) <- Random.State.float rng config.init_noise
    done;
    for i = 0 to Float.Array.length st.bw - 1 do
      st.bw.%(i) <- Random.State.float rng config.init_noise
    done
  end

let aggregate st i (theta : floatarray) =
  let k = st.labels.(i) in
  let u0 = st.unary_off.(i) in
  for x = 0 to k - 1 do
    theta.%(x) <- st.unary.%(u0 + x)
  done;
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let code = st.inc.(p) in
    let e = code / 2 in
    let bwd = code land 1 = 1 in
    let off = if bwd then st.bw_off.(e) else st.fw_off.(e) in
    let msg = if bwd then st.bw else st.fw in
    for x = 0 to k - 1 do
      theta.%(x) <- theta.%(x) +. msg.%(off + x)
    done
  done

(* Update every directed message out of node [i] and record the node's
   largest absolute change in the [delta] slab.  Writes touch only
   [i]'s outgoing message slots and [delta.(i)], so two non-adjacent
   nodes can run concurrently — the invariant the chromatic schedule is
   built on. *)
let update_node st ws damping i =
  let theta = ws.theta in
  aggregate st i theta;
  let k = st.labels.(i) in
  let dmax = ref 0.0 in
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let code = st.inc.(p) in
    let e = code / 2 in
    let i_is_u = code land 1 = 1 in
    let j = if i_is_u then st.ev.(e) else st.eu.(e) in
    let kj = st.labels.(j) in
    let p0 = st.pot_off.(st.etab.(e)) in
    let in_off = if i_is_u then st.bw_off.(e) else st.fw_off.(e) in
    let in_msg = if i_is_u then st.bw else st.fw in
    let out_off = if i_is_u then st.fw_off.(e) else st.bw_off.(e) in
    let out_msg = if i_is_u then st.fw else st.bw in
    (* reduction input, precomputed once per message; the update stages
       its raw output in the preallocated [scratch.fresh] buffer (no
       per-message allocation) so the damping blend below can mix it
       with the previous message value. *)
    let h = ws.ks.Kernel.h in
    for xi = 0 to k - 1 do
      h.%(xi) <- theta.%(xi) -. in_msg.%(in_off + xi)
    done;
    let fresh = ws.ks.Kernel.fresh in
    let vmin =
      Kernel.update ~pot:st.pot ~p0 ~src_is_u:i_is_u ~k_src:k ~k_out:kj
        ~scratch:ws.ks ~out:fresh ~out_off:0
    in
    for xj = 0 to kj - 1 do
      let updated =
        ((1.0 -. damping) *. (fresh.%(xj) -. vmin))
        +. (damping *. out_msg.%(out_off + xj))
      in
      let change = abs_float (updated -. out_msg.%(out_off + xj)) in
      if change > !dmax then dmax := change;
      out_msg.%(out_off + xj) <- updated
    done
  done;
  (* slab slot [i] is outside the schedule's loop-index space (color
     classes iterate class indices), so route through the pool's
     overlap-checked slab store *)
  Pool.write_slab st.delta i !dmax

(* One sequential sweep updating every directed message once; returns the
   largest absolute message change. *)
let sweep st ws n damping =
  for i = 0 to n - 1 do
    update_node st ws damping i
  done;
  let d = ref 0.0 in
  for i = 0 to n - 1 do
    if st.delta.%(i) > !d then d := st.delta.%(i)
  done;
  !d

(* plain store, not {!Pool.write}: node indices are not the loop-index
   space when a solve nests inside a sanitized per-component region, and
   the slot is tied to the loop index structurally anyway *)
let decode_node st ws x i =
  let theta = ws.theta in
  aggregate st i theta;
  let best = ref 0 in
  for xi = 1 to st.labels.(i) - 1 do
    if theta.%(xi) < theta.%(!best) then best := xi
  done;
  x.(i) <- !best

let decode st ws n x =
  for i = 0 to n - 1 do
    decode_node st ws x i
  done

(* Shared iteration loop; the sequential and chromatic schedules differ
   only in how one sweep and one decode pass execute. *)
let run_loop ~config ~interrupt mrf n ~sweep_once ~decode_all =
  let x = Array.make n 0 in
  let best_x = Array.make n 0 in
  decode_all best_x;
  let best_energy = ref (Mrf.energy mrf best_x) in
  let iters = ref 0 in
  let converged = ref false in
  (try
     for it = 1 to config.max_iters do
       if interrupt () then raise Exit;
       iters := it;
       Obs.begin_span "bp.sweep";
       let delta = sweep_once () in
       decode_all x;
       Obs.end_span "bp.sweep";
       let e = Mrf.energy mrf x in
       if e < !best_energy then begin
         best_energy := e;
         Array.blit x 0 best_x 0 n
       end;
       Obs.sample ~name:"bp.iter" (float_of_int it);
       Obs.sample ~name:"bp.energy" !best_energy;
       Obs.sample ~name:"bp.delta" delta;
       if delta < config.tolerance then begin
         converged := true;
         raise Exit
       end
     done
   with Exit -> ());
  (* every node sends along each incident edge once per sweep *)
  if Obs.enabled () then Solver.sample_messages mrf ~sweeps:!iters;
  {
    Solver.labeling = best_x;
    energy = !best_energy;
    lower_bound = neg_infinity;
    iterations = !iters;
    converged = !converged;
  }

let sequential ~config ~interrupt mrf st n =
  let ws = make_workspace st in
  run_loop ~config ~interrupt mrf n
    ~sweep_once:(fun () -> sweep st ws n config.damping)
    ~decode_all:(fun x -> decode st ws n x)

let chromatic ~config ~interrupt ?jobs mrf st n =
  (* color classes as a CSR over nodes sorted by (color, id): one
     parallel region per class and sweep.  Nodes of one class are
     pairwise non-adjacent, so within a class every node's update reads
     only messages no class member writes — the sweep result is
     independent even of chunk boundaries, and therefore of jobs. *)
  let color, ncolors = Mrf.greedy_coloring mrf in
  let class_off = Array.make (ncolors + 1) 0 in
  for i = 0 to n - 1 do
    class_off.(color.(i) + 1) <- class_off.(color.(i) + 1) + 1
  done;
  for c = 0 to ncolors - 1 do
    class_off.(c + 1) <- class_off.(c + 1) + class_off.(c)
  done;
  let class_nodes = Array.make (max 1 n) 0 in
  let cursor = Array.copy class_off in
  for i = 0 to n - 1 do
    class_nodes.(cursor.(color.(i))) <- i;
    cursor.(color.(i)) <- cursor.(color.(i)) + 1
  done;
  let team = Pool.Team.create ?jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.Team.stop team)
    (fun () ->
      let sz = Pool.Team.size team in
      let cap = max 1 (4 * sz) in
      let wss = Array.init cap (fun _ -> make_workspace st) in
      (* coarse chunks: claiming costs a CAS, so aim for a few chunks
         per worker and run small classes inline *)
      let chunks_for csize =
        if sz = 1 then 1 else min (4 * sz) (max 1 (csize / 32))
      in
      let sweep_once () =
        for c = 0 to ncolors - 1 do
          let lo = class_off.(c) and hi = class_off.(c + 1) in
          Pool.Team.run team
            ~chunks:(chunks_for (hi - lo))
            ~lo ~hi
            (fun ch clo chi ->
              let ws = wss.(ch) in
              for p = clo to chi - 1 do
                update_node st ws config.damping class_nodes.(p)
              done)
        done;
        let d = ref 0.0 in
        for i = 0 to n - 1 do
          if st.delta.%(i) > !d then d := st.delta.%(i)
        done;
        !d
      in
      let decode_all x =
        Pool.Team.run team ~chunks:(chunks_for n) ~lo:0 ~hi:n
          (fun ch clo chi ->
            let ws = wss.(ch) in
            for i = clo to chi - 1 do
              decode_node st ws x i
            done)
      in
      run_loop ~config ~interrupt mrf n ~sweep_once ~decode_all)

let solve ?(config = default_config) ?(interrupt = fun () -> false) ?jobs mrf =
  let run () =
    let st = make_state mrf in
    init_messages st config;
    let n = Mrf.n_nodes mrf in
    match jobs with
    | None -> sequential ~config ~interrupt mrf st n
    | Some _ -> chromatic ~config ~interrupt ?jobs mrf st n
  in
  Obs.span ~name:"bp.solve" run
