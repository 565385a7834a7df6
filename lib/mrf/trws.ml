module Obs = Netdiv_obs.Obs
module Pool = Netdiv_par.Pool
open Kernel

type config = {
  max_iters : int;
  tolerance : float;
  patience : int;
  bound_every : int;
}

let default_config =
  { max_iters = 100; tolerance = 1e-7; patience = 3; bound_every = 1 }

(* Message state: for edge e = (u,v), [fw] holds the message into v
   (length labels.(v)) and [bw] the message into u (length labels.(u)),
   stored flat with per-edge offsets.  Messages, unaries and the bound
   aggregation scratch live on unboxed [floatarray] slabs so the message
   update streams over contiguous doubles; everything here is immutable
   topology or slab storage shared by all workers — per-worker mutable
   scratch lives in {!workspace}. *)
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
  fw : floatarray;
  bw : floatarray;
  lb_agg : floatarray;  (* lower_bound slab: gamma-weighted unaries *)
  chain_best : floatarray;  (* lower_bound slab: per-chain DP minimum *)
  gamma : float array;
  chains : int array array;
      (* monotonic chain decomposition: each chain is the sequence of its
         edge ids, traversed from lower to higher node order.  Every edge
         belongs to exactly one chain; node [i] lies on
         [max(#lower, #higher)] chains. *)
  isolated : int list;  (* nodes with no incident edges *)
}

(* Per-worker scratch: one per parallel chunk so partitioned sweeps never
   share a theta buffer or update scratch across domains.  Allocated per
   solve, reused across all messages, so the hot path never allocates
   (minor GCs are stop-the-world across ALL domains). *)
type workspace = {
  theta : floatarray;
  ks : Kernel.scratch;
  dp : floatarray;  (* lower_bound chain DP, current *)
  dp' : floatarray;  (* lower_bound chain DP, next *)
}

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
    i_col = col;
  } =
    Mrf.Compact.arrays mrf
  in
  let n = Array.length labels and m = Array.length eu in
  let fw_off = Array.make (m + 1) 0 and bw_off = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    fw_off.(e + 1) <- fw_off.(e) + labels.(ev.(e));
    bw_off.(e + 1) <- bw_off.(e) + labels.(eu.(e))
  done;
  let gamma = Array.make n 1.0 in
  let backward = Array.make n [] and forward = Array.make n [] in
  for i = 0 to n - 1 do
    let lower = ref 0 and higher = ref 0 in
    (* walk the incidence slice backwards so the per-node edge lists come
       out sorted by opposite endpoint *)
    for k = inc_off.(i + 1) - 1 downto inc_off.(i) do
      let e = inc.(k) lsr 1 in
      let j = col.(k) in
      if j < i then begin
        incr lower;
        backward.(i) <- e :: backward.(i)
      end
      else begin
        incr higher;
        forward.(i) <- e :: forward.(i)
      end
    done;
    gamma.(i) <- 1.0 /. float_of_int (max 1 (max !lower !higher))
  done;
  (* Monotonic chain decomposition (Kolmogorov): at each node, pair its k-th
     lower edge with its k-th higher edge; unpaired higher edges start
     chains, unpaired lower edges end them. *)
  let succ = Array.make m (-1) in
  let has_pred = Array.make m false in
  for i = 0 to n - 1 do
    let rec pair lows highs =
      match (lows, highs) with
      | e :: lows', e' :: highs' ->
          succ.(e) <- e';
          has_pred.(e') <- true;
          pair lows' highs'
      | _ -> ()
    in
    pair backward.(i) forward.(i)
  done;
  let chains = ref [] in
  for e = 0 to m - 1 do
    if not has_pred.(e) then begin
      let rec walk e acc =
        let acc = e :: acc in
        if succ.(e) >= 0 then walk succ.(e) acc else acc
      in
      chains := Array.of_list (List.rev (walk e [])) :: !chains
    end
  done;
  let chains = Array.of_list !chains in
  let isolated = ref [] in
  for i = 0 to n - 1 do
    if inc_off.(i + 1) = inc_off.(i) then isolated := i :: !isolated
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
    (* per-iteration bound scratch lives in the state: allocating it in
       [lower_bound] made every iteration churn the minor heap, and
       minor collections are stop-the-world across ALL domains — the
       per-zone solves then serialized on the GC barrier *)
    lb_agg = Float.Array.make unary_off.(n) 0.0;
    chain_best = Float.Array.make (Array.length chains) 0.0;
    gamma;
    chains;
    isolated = !isolated;
  }

let make_workspace st =
  let kmax = Array.fold_left max 1 st.labels in
  {
    theta = Float.Array.make kmax 0.0;
    ks = Kernel.make_scratch ~max_labels:kmax;
    dp = Float.Array.make kmax 0.0;
    dp' = Float.Array.make kmax 0.0;
  }

(* Aggregate node i's unary plus all incoming messages into [theta]. *)
let aggregate st i (theta : floatarray) =
  let k = st.labels.(i) in
  let u0 = st.unary_off.(i) in
  for x = 0 to k - 1 do
    theta.%(x) <- st.unary.%(u0 + x)
  done;
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let code = st.inc.(p) in
    let e = code / 2 in
    (* two scalar ifs, not a destructured tuple: this runs per incident
       edge per node per sweep, and the tuple would be a fresh minor
       allocation each time (minor GCs are global barriers under
       domains) *)
    let bwd = code land 1 = 1 in
    let off = if bwd then st.bw_off.(e) else st.fw_off.(e) in
    let msg = if bwd then st.bw else st.fw in
    for x = 0 to k - 1 do
      theta.%(x) <- theta.%(x) +. msg.%(off + x)
    done
  done

(* Update node [i]'s outgoing messages in direction [forward] (toward
   higher neighbours when [forward], lower otherwise), restricted to
   neighbours [j] with [(plo <= j < phi) = inside].  The sequential
   sweep passes the full range with [inside:true] (no restriction); the
   partitioned schedule runs the [inside:true] case per partition in
   parallel — all written messages then lie strictly inside the caller's
   partition, so distinct chunks never touch the same slab slot — and
   the [inside:false] case sequentially as the boundary-merge pass. *)
let process_node st ws ~forward ~inside ~plo ~phi i =
  let theta = ws.theta in
  aggregate st i theta;
  let k = st.labels.(i) in
  let g = st.gamma.(i) in
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let code = st.inc.(p) in
    let e = code / 2 in
    let i_is_u = code land 1 = 1 in
    let j = if i_is_u then st.ev.(e) else st.eu.(e) in
    if
      (if forward then j > i else j < i)
      && (j >= plo && j < phi) = inside
    then begin
      let kj = st.labels.(j) in
      let p0 = st.pot_off.(st.etab.(e)) in
      (* message into i along e (to be subtracted) and out of i (to
         be written); scalar ifs keep this allocation-free *)
      let in_off = if i_is_u then st.bw_off.(e) else st.fw_off.(e) in
      let in_msg = if i_is_u then st.bw else st.fw in
      let out_off = if i_is_u then st.fw_off.(e) else st.bw_off.(e) in
      let out_msg = if i_is_u then st.fw else st.bw in
      (* reduction input: reparameterized node cost minus the reverse
         message.  Precomputed once so the O(L²) scan reads it O(L)
         times instead of recomputing it O(L²) times. *)
      let h = ws.ks.Kernel.h in
      for xi = 0 to k - 1 do
        h.%(xi) <- (g *. theta.%(xi)) -. in_msg.%(in_off + xi)
      done;
      let vmin =
        Kernel.update ~pot:st.pot ~p0 ~src_is_u:i_is_u ~k_src:k ~k_out:kj
          ~scratch:ws.ks ~out:out_msg ~out_off
      in
      (* normalize so the smallest entry is zero *)
      for xj = 0 to kj - 1 do
        out_msg.%(out_off + xj) <- out_msg.%(out_off + xj) -. vmin
      done
    end
  done

(* One sequential sweep.  [forward] selects direction: process nodes in
   increasing order updating messages to higher neighbours, or the
   mirror image. *)
let sweep st ws n forward =
  if forward then
    for i = 0 to n - 1 do
      process_node st ws ~forward:true ~inside:true ~plo:0 ~phi:n i
    done
  else
    for i = n - 1 downto 0 do
      process_node st ws ~forward:false ~inside:true ~plo:0 ~phi:n i
    done

(* TRW dual bound for the monotonic-chain decomposition: the energy is
   split as E(x) = sum_C E_C(x_C) with per-chain node costs gamma_i *
   theta_hat_i and reparameterized edge costs; the bound is the sum of the
   chains' independent minima, computed by dynamic programming along each
   chain.  Valid for any message state (each chain min <= the chain's value
   at the true optimum), and tight at TRW-S fixed points on trees.

   Split into three passes so the partitioned schedule can parallelize
   the first two: [fill_agg] writes node [i]'s gamma-weighted aggregate
   (slots disjoint per node), [chain_dp] writes chain [ci]'s minimum into
   the [chain_best] slab (slots disjoint per chain), and [lb_sum] folds
   the per-chain minima in chain order — so the bound is bitwise
   identical whatever the chunking. *)
let fill_agg st ws i =
  aggregate st i ws.theta;
  let off = st.unary_off.(i) in
  for x = 0 to st.labels.(i) - 1 do
    st.lb_agg.%(off + x) <- st.gamma.(i) *. ws.theta.%(x)
  done

let chain_dp st ws ci =
  let chain = st.chains.(ci) in
  let agg = st.lb_agg in
  let dp = ws.dp in
  let dp' = ws.dp' in
  let e0 = chain.(0) in
  let first = if st.eu.(e0) < st.ev.(e0) then st.eu.(e0) else st.ev.(e0) in
  let k0 = st.labels.(first) in
  for x = 0 to k0 - 1 do
    dp.%(x) <- agg.%(st.unary_off.(first) + x)
  done;
  let prev_k = ref k0 in
  (* The per-edge DP transition is written out inline with the running
     minimum accumulated directly in the [dp'] slab: a local
     float-returning closure (boxed return per call without flambda) or
     a [float ref] minimum (boxed store per assignment) here made every
     bound evaluation allocate ~10^5 minor words, and under multicore
     the resulting minor collections are stop-the-world barriers that
     serialize otherwise independent per-zone solves.  The
     reparameterized cost, oriented low node -> high node, is
       pot[xu,xv] - fw[xv] - bw[xu]
     with (xu, xv) = (x, y) when u < v and (y, x) otherwise. *)
  Array.iter
    (fun e ->
      let u = st.eu.(e) and v = st.ev.(e) in
      let kv = st.labels.(v) in
      let pbase = st.pot_off.(st.etab.(e)) in
      let fw0 = st.fw_off.(e) and bw0 = st.bw_off.(e) in
      let hi = if u < v then v else u in
      let kh = st.labels.(hi) in
      for y = 0 to kh - 1 do
        dp'.%(y) <- infinity
      done;
      if u < v then
        for x = 0 to !prev_k - 1 do
          let base = dp.%(x) -. st.bw.%(bw0 + x) in
          let prow = pbase + (x * kv) in
          for y = 0 to kh - 1 do
            let c = base +. st.pot.(prow + y) -. st.fw.%(fw0 + y) in
            if c < dp'.%(y) then dp'.%(y) <- c
          done
        done
      else
        for x = 0 to !prev_k - 1 do
          let base = dp.%(x) -. st.fw.%(fw0 + x) in
          for y = 0 to kh - 1 do
            let c =
              base +. st.pot.(pbase + (y * kv) + x) -. st.bw.%(bw0 + y)
            in
            if c < dp'.%(y) then dp'.%(y) <- c
          done
        done;
      let hoff = st.unary_off.(hi) in
      for y = 0 to kh - 1 do
        dp'.%(y) <- dp'.%(y) +. agg.%(hoff + y)
      done;
      Float.Array.blit dp' 0 dp 0 kh;
      prev_k := kh)
    chain;
  let best = ref infinity in
  for x = 0 to !prev_k - 1 do
    if dp.%(x) < !best then best := dp.%(x)
  done;
  (* routed through the pool so a sanitized region catches two chunks
     claiming the same chain *)
  Pool.write_slab st.chain_best ci !best

let lb_sum st =
  let acc = ref 0.0 in
  for ci = 0 to Array.length st.chains - 1 do
    acc := !acc +. st.chain_best.%(ci)
  done;
  List.iter
    (fun i ->
      let best = ref infinity in
      for x = 0 to st.labels.(i) - 1 do
        let c = st.unary.%(st.unary_off.(i) + x) in
        if c < !best then best := c
      done;
      acc := !acc +. !best)
    st.isolated;
  !acc

let lower_bound st ws n =
  for i = 0 to n - 1 do
    fill_agg st ws i
  done;
  for ci = 0 to Array.length st.chains - 1 do
    chain_dp st ws ci
  done;
  lb_sum st

(* Greedy decoding in node order: condition on already decoded lower
   neighbours, use incoming messages from undecoded higher ones. *)
let decode st ws n x =
  let theta = ws.theta in
  for i = 0 to n - 1 do
    let k = st.labels.(i) in
    let u0 = st.unary_off.(i) in
    for xi = 0 to k - 1 do
      theta.%(xi) <- st.unary.%(u0 + xi)
    done;
    for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
      let code = st.inc.(p) in
      let e = code / 2 in
      let i_is_u = code land 1 = 1 in
      let j = if i_is_u then st.ev.(e) else st.eu.(e) in
      if j < i then begin
        let p0 = st.pot_off.(st.etab.(e)) in
        let kj = st.labels.(j) in
        for xi = 0 to k - 1 do
          let pair =
            if i_is_u then st.pot.(p0 + (xi * kj) + x.(j))
            else st.pot.(p0 + (x.(j) * k) + xi)
          in
          theta.%(xi) <- theta.%(xi) +. pair
        done
      end
      else begin
        let off = if i_is_u then st.bw_off.(e) else st.fw_off.(e) in
        let msg = if i_is_u then st.bw else st.fw in
        for xi = 0 to k - 1 do
          theta.%(xi) <- theta.%(xi) +. msg.%(off + xi)
        done
      end
    done;
    let best = ref 0 in
    for xi = 1 to k - 1 do
      if theta.%(xi) < theta.%(!best) then best := xi
    done;
    x.(i) <- !best
  done

(* Shared iteration loop: sweeps, convergence bookkeeping, telemetry.
   [sweep_pair] performs one forward+backward iteration; [bound]
   computes the dual bound for the current messages.  The sequential and
   partitioned schedules differ only in these two callbacks, so the
   stopping logic — and therefore the iteration count for identical
   message trajectories — is shared by construction. *)
let run_loop ~config ~interrupt mrf st ws n ~sweep_pair ~bound =
  let x = Array.make n 0 in
  let best_x = Array.make n 0 in
  decode st ws n best_x;
  let best_energy = ref (Mrf.energy mrf best_x) in
  let prev_energy = ref !best_energy in
  let best_bound = ref neg_infinity in
  let stall = ref 0 in
  let iters = ref 0 in
  let converged = ref false in
  (try
     for it = 1 to config.max_iters do
       if interrupt () then raise Exit;
       iters := it;
       Obs.begin_span "trws.sweep";
       sweep_pair ();
       Obs.end_span "trws.sweep";
       if it mod config.bound_every = 0 || it = config.max_iters then begin
         Obs.begin_span "trws.bound";
         let lb = bound () in
         decode st ws n x;
         Obs.end_span "trws.bound";
         let e = Mrf.energy mrf x in
         if e < !best_energy then begin
           best_energy := e;
           Array.blit x 0 best_x 0 n
         end;
         let bound_progress = lb -. !best_bound in
         if lb > !best_bound then best_bound := lb;
         let energy_progress = !prev_energy -. !best_energy in
         prev_energy := !best_energy;
         Obs.sample ~name:"trws.iter" (float_of_int it);
         Obs.sample ~name:"trws.energy" !best_energy;
         Obs.sample ~name:"trws.lower_bound" !best_bound;
         if
           bound_progress < config.tolerance
           && energy_progress < config.tolerance
         then incr stall
         else stall := 0;
         if
           !stall >= config.patience
           || !best_energy -. !best_bound < config.tolerance
         then begin
           converged := true;
           raise Exit
         end
       end
     done
   with Exit -> ());
  (* each iteration (forward + backward sweep) recomputes both directed
     messages of every edge once *)
  if Obs.enabled () then Solver.sample_messages mrf ~sweeps:!iters;
  {
    Solver.labeling = best_x;
    energy = !best_energy;
    lower_bound = !best_bound;
    iterations = !iters;
    converged = !converged;
  }

let sequential_on ~config ~interrupt mrf st ws () =
  let n = Mrf.n_nodes mrf in
  run_loop ~config ~interrupt mrf st ws n
    ~sweep_pair:(fun () ->
      sweep st ws n true;
      sweep st ws n false)
    ~bound:(fun () -> lower_bound st ws n)

let sequential ~config ~interrupt mrf () =
  let st = make_state mrf in
  sequential_on ~config ~interrupt mrf st (make_workspace st) ()

(* Return [st] to the state [make_state mrf] builds for a model of the
   same structure: unaries re-read from [mrf], messages zero.  The bound
   slabs and the workspace are written before they are read, so a solve
   from a reset state is bit for bit a solve from a fresh one. *)
let reset_state st mrf =
  let unary = (Mrf.Compact.arrays mrf).Mrf.Compact.i_unary in
  for k = 0 to Array.length unary - 1 do
    st.unary.%(k) <- unary.(k)
  done;
  Float.Array.fill st.fw 0 (Float.Array.length st.fw) 0.0;
  Float.Array.fill st.bw 0 (Float.Array.length st.bw) 0.0

(* The partitioned schedule runs on models of at least [partition_min]
   nodes, split into [parts] contiguous partitions: a function of the
   model size only — never of the job count — so results are job-count
   invariant by construction (partition boundaries play the role the
   pool's chunk boundaries play elsewhere).  Below the threshold the
   boundary pass is pure overhead. *)
let partition_min = 4096
let parts = 16

let partitioned ~config ~interrupt ?jobs mrf () =
  let n = Mrf.n_nodes mrf in
  let st = make_state mrf in
  let team = Pool.Team.create ?jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.Team.stop team)
    (fun () ->
      let wss = Array.init parts (fun _ -> make_workspace st) in
      let ws0 = wss.(0) in
      (* partition bounds: mirror of the pool's chunk_span (even split,
         remainder over the first partitions), so the bounds Team.run
         hands each chunk are exactly these *)
      let part_off = Array.make (parts + 1) 0 in
      let q = n / parts and r = n mod parts in
      for p = 0 to parts - 1 do
        part_off.(p + 1) <- part_off.(p) + q + (if p < r then 1 else 0)
      done;
      let part_of = Array.make n 0 in
      for p = 0 to parts - 1 do
        for i = part_off.(p) to part_off.(p + 1) - 1 do
          part_of.(i) <- p
        done
      done;
      (* nodes with at least one cross-partition edge, ascending: the
         boundary-merge pass walks exactly these *)
      let is_cross i =
        let plo = part_off.(part_of.(i))
        and phi = part_off.(part_of.(i) + 1) in
        let c = ref false in
        for k = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
          let code = st.inc.(k) in
          let e = code / 2 in
          let j = if code land 1 = 1 then st.ev.(e) else st.eu.(e) in
          if j < plo || j >= phi then c := true
        done;
        !c
      in
      let ncross = ref 0 in
      for i = 0 to n - 1 do
        if is_cross i then incr ncross
      done;
      let cross = Array.make (max 1 !ncross) 0 in
      let cur = ref 0 in
      for i = 0 to n - 1 do
        if is_cross i then begin
          cross.(!cur) <- i;
          incr cur
        end
      done;
      let ncross = !ncross in
      (* One half-sweep: all partitions run their intra-partition node
         updates in parallel (each chunk's writes stay inside its own
         slab stripe), then the sequential boundary pass recomputes every
         cross-partition message in global node order.  Both phases
         depend only on [parts], never on the job count. *)
      let half forward =
        Pool.Team.run team ~chunks:parts ~lo:0 ~hi:n (fun c clo chi ->
            let ws = wss.(c) in
            if forward then
              for i = clo to chi - 1 do
                process_node st ws ~forward:true ~inside:true ~plo:clo ~phi:chi
                  i
              done
            else
              for i = chi - 1 downto clo do
                process_node st ws ~forward:false ~inside:true ~plo:clo
                  ~phi:chi i
              done);
        Obs.begin_span "trws.boundary";
        if forward then
          for k = 0 to ncross - 1 do
            let i = cross.(k) in
            let p = part_of.(i) in
            process_node st ws0 ~forward:true ~inside:false ~plo:part_off.(p)
              ~phi:part_off.(p + 1)
              i
          done
        else
          for k = ncross - 1 downto 0 do
            let i = cross.(k) in
            let p = part_of.(i) in
            process_node st ws0 ~forward:false ~inside:false ~plo:part_off.(p)
              ~phi:part_off.(p + 1)
              i
          done;
        Obs.end_span "trws.boundary"
      in
      let bound () =
        Pool.Team.run team ~chunks:parts ~lo:0 ~hi:n (fun c clo chi ->
            let ws = wss.(c) in
            for i = clo to chi - 1 do
              fill_agg st ws i
            done);
        let nch = Array.length st.chains in
        Pool.Team.run team ~chunks:parts ~lo:0 ~hi:nch (fun c clo chi ->
            let ws = wss.(c) in
            for ci = clo to chi - 1 do
              chain_dp st ws ci
            done);
        lb_sum st
      in
      run_loop ~config ~interrupt mrf st ws0 n
        ~sweep_pair:(fun () ->
          half true;
          half false)
        ~bound)

(* ---- block-coordinate zone decomposition ------------------------------- *)

let zone_rounds = 8
let zone_step = 0.25

(* Dense ids in order of first appearance, and their count. *)
let densify ids n =
  let dense = Array.make (max 1 n) 0 in
  let id_of = Hashtbl.create 16 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    dense.(i) <-
      (match Hashtbl.find_opt id_of ids.(i) with
      | Some id -> id
      | None ->
          let id = !next in
          incr next;
          Hashtbl.add id_of ids.(i) id;
          id)
  done;
  (dense, max 1 !next)

(* Root of every node's connected component (union-find with path
   compression; the smaller root wins).  No message ever crosses between
   components, so as a zone map they have no boundary edges. *)
let component_roots mrf =
  let n = Mrf.n_nodes mrf in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  for e = 0 to Mrf.n_edges mrf - 1 do
    let u, v = Mrf.edge_endpoints mrf e in
    let ru = find u and rv = find v in
    if ru <> rv then if ru < rv then parent.(rv) <- ru else parent.(ru) <- rv
  done;
  Array.init n find

(* The caller's zone map, else the components when [jobs] asks for
   parallel work, else none (one zone). *)
let zone_map ?jobs ?zone_of mrf =
  let n = Mrf.n_nodes mrf in
  match (zone_of, jobs) with
  | Some z, _ ->
      if Array.length z <> n then
        invalid_arg "Trws.solve: zone_of has wrong length";
      if Array.exists (fun id -> id < 0) z then
        invalid_arg "Trws.solve: negative zone id";
      Some (densify z n)
  | None, Some _ -> Some (densify (component_roots mrf) n)
  | None, None -> None

(* Lagrangian (dual) decomposition over zones.  Zone slaves own their
   interior edges and unaries plus the running boundary penalties; each
   boundary edge (u, v) is its own two-variable slave
   min_{xu, xv} [ pot(xu, xv) - lam_u(xu) - lam_v(xv) ], so for any
   labeling the slave objectives sum exactly to E and

     sum_z bound(zone slave) + sum_boundary min(edge slave)  <=  min E

   is a valid global lower bound even though each zone bound is itself a
   TRW-S dual bound rather than an exact minimum.  After each round the
   multipliers move one subgradient step toward agreement between the
   zone argmin and the edge-slave argmin, in global boundary-edge order
   with a deterministic diminishing step — so the trajectory is a
   function of the zone map only, never of the job count, and rounds
   stop early when every boundary edge agrees.  A map without boundary
   edges (the component split) is done after one round: nothing couples
   its zones. *)
let zoned ~config ~interrupt ?jobs ~zone_of ~nz mrf () =
  let n = Mrf.n_nodes mrf and m = Mrf.n_edges mrf in
  let {
    Mrf.Compact.i_labels = g_labels;
    i_eu = g_eu;
    i_ev = g_ev;
    i_etab = g_etab;
    i_pot_off = g_pot_off;
    i_pot = g_pot;
    _;
  } =
    Mrf.Compact.arrays mrf
  in
  (* zone membership, local indices, per-zone node lists in global node
     order *)
  let sizes = Array.make nz 0 in
  let local = Array.make n 0 in
  for i = 0 to n - 1 do
    let z = zone_of.(i) in
    local.(i) <- sizes.(z);
    sizes.(z) <- sizes.(z) + 1
  done;
  let nodes = Array.init nz (fun z -> Array.make (max 1 sizes.(z)) 0) in
  for i = 0 to n - 1 do
    nodes.(zone_of.(i)).(local.(i)) <- i
  done;
  let builders =
    Array.init nz (fun z ->
        Mrf.Builder.create
          ~label_counts:
            (Array.init sizes.(z) (fun li -> g_labels.(nodes.(z).(li)))))
  in
  Array.iteri
    (fun z ns ->
      if sizes.(z) > 0 then
        Array.iteri
          (fun li gi ->
            let k = g_labels.(gi) in
            Mrf.Builder.set_unary builders.(z) ~node:li
              (Array.init k (fun label -> Mrf.unary mrf ~node:gi ~label)))
          ns)
    nodes;
  (* first pass: count interior edges per zone and boundary edges *)
  let interior = Array.make nz 0 in
  let nb = ref 0 in
  for e = 0 to m - 1 do
    let zu = zone_of.(g_eu.(e)) and zv = zone_of.(g_ev.(e)) in
    if zu = zv then interior.(zu) <- interior.(zu) + 1 else incr nb
  done;
  let nb = !nb in
  Array.iteri (fun z c -> Mrf.Builder.reserve_edges builders.(z) c) interior;
  (* second pass: interior edges stream into their zone builder in global
     edge order (interned tables pass through shared, so sub-model
     interning is cheap); boundary edges are recorded in global edge
     order — the order every multiplier update uses *)
  let be = Array.make (max 1 nb) 0 in
  let cur = ref 0 in
  for e = 0 to m - 1 do
    let u = g_eu.(e) and v = g_ev.(e) in
    if zone_of.(u) = zone_of.(v) then
      Mrf.Builder.add_edge builders.(zone_of.(u)) local.(u) local.(v)
        (Mrf.edge_cost mrf e)
    else begin
      be.(!cur) <- e;
      incr cur
    end
  done;
  let subs = Array.map Mrf.Builder.build builders in
  (* per-zone effective unary slabs: base copy + running penalties; each
     zone model is wrapped once and re-reads the slab every round *)
  let base =
    Array.map (fun s -> (Mrf.Compact.arrays s).Mrf.Compact.i_unary) subs
  in
  let eff = Array.map Array.copy base in
  let wrapped = Array.init nz (fun z -> Mrf.with_unaries subs.(z) eff.(z)) in
  let sub_uoff =
    Array.map (fun s -> (Mrf.Compact.arrays s).Mrf.Compact.i_unary_off) subs
  in
  (* boundary-edge metadata, flat in boundary order *)
  let b_u = Array.make (max 1 nb) 0 and b_v = Array.make (max 1 nb) 0 in
  let b_ku = Array.make (max 1 nb) 0 and b_kv = Array.make (max 1 nb) 0 in
  let b_uoff = Array.make (max 1 nb) 0 in
  let b_voff = Array.make (max 1 nb) 0 in
  let b_p0 = Array.make (max 1 nb) 0 in
  let lam_off = Array.make (nb + 1) 0 in
  for bi = 0 to nb - 1 do
    let e = be.(bi) in
    let u = g_eu.(e) and v = g_ev.(e) in
    b_u.(bi) <- u;
    b_v.(bi) <- v;
    b_ku.(bi) <- g_labels.(u);
    b_kv.(bi) <- g_labels.(v);
    b_uoff.(bi) <- sub_uoff.(zone_of.(u)).(local.(u));
    b_voff.(bi) <- sub_uoff.(zone_of.(v)).(local.(v));
    b_p0.(bi) <- g_pot_off.(g_etab.(e));
    lam_off.(bi + 1) <- lam_off.(bi) + g_labels.(u) + g_labels.(v)
  done;
  let lam = Array.make (max 1 lam_off.(nb)) 0.0 in
  (* Granularity hint for the pool: estimated message work of one zone
     solve, averaged over zones.  Each TRW-S iteration updates both
     directed messages of every edge once, an O(ku·kv) scan each.  Small
     splits land below the pool's sequential cutoff and run inline
     instead of paying domain spawns. *)
  let sweep_cost = ref 0 in
  for e = 0 to m - 1 do
    sweep_cost := !sweep_cost + (2 * g_labels.(g_eu.(e)) * g_labels.(g_ev.(e)))
  done;
  let cost = max 1 (min config.max_iters 24 * 2 * !sweep_cost / nz) in
  let dummy =
    {
      Solver.labeling = [||];
      energy = infinity;
      lower_bound = neg_infinity;
      iterations = 0;
      converged = false;
    }
  in
  let results = Array.make nz dummy in
  (* Each zone's solver state is built once, here on the calling domain,
     and reset at the start of every round: only the unaries change
     between rounds.  States rebuilt per round on whichever domain
     claimed the zone leave garbage on the major heap (about 14M words
     in a 4000-host, 8-zone solve), and the heap's peak then moves with
     the claim order.  The workspace is allocated per solve by the domain
     that runs it, so that no two domains write the small buffers of two
     zones in one cache line on every message update. *)
  let states = Array.map make_state wrapped in
  let solve_zone z =
    let st = states.(z) in
    reset_state st wrapped.(z);
    Pool.write results z
      (Obs.span ~name:"trws.solve"
         (sequential_on ~config ~interrupt wrapped.(z) st (make_workspace st)))
  in
  let xhat = Array.make n 0 in
  let best_x = Array.make n 0 in
  let best_energy = ref infinity in
  let best_bound = ref neg_infinity in
  let iters = ref 0 in
  let converged = ref false in
  (* per-zone sample names, built once per solve and only when an
     event would be recorded *)
  let zone_names =
    lazy
      (Array.init nz (fun z ->
           let name field = Printf.sprintf "trws.zone.%d.%s" z field in
           (name "energy", name "bound", name "converged")))
  in
  (* scalar scratch for the edge-slave argmin, hoisted out of the round
     loop *)
  let sl_best = ref 0.0 in
  let sl_bu = ref 0 and sl_bv = ref 0 in
  (try
     for r = 0 to zone_rounds - 1 do
       (* round 1 always runs: the zone solves are anytime and poll
          [interrupt] themselves, so it yields a scored labeling *)
       if r > 0 && interrupt () then raise Exit;
       (* refresh effective unaries: base + current penalties *)
       Array.iteri (fun z b -> Array.blit b 0 eff.(z) 0 (Array.length b)) base;
       for bi = 0 to nb - 1 do
         let lo = lam_off.(bi) in
         let ku = b_ku.(bi) and kv = b_kv.(bi) in
         let zu = zone_of.(b_u.(bi)) and zv = zone_of.(b_v.(bi)) in
         let uo = b_uoff.(bi) and vo = b_voff.(bi) in
         for l = 0 to ku - 1 do
           eff.(zu).(uo + l) <- eff.(zu).(uo + l) +. lam.(lo + l)
         done;
         for l = 0 to kv - 1 do
           eff.(zv).(vo + l) <- eff.(zv).(vo + l) +. lam.(lo + ku + l)
         done
       done;
       (* zone-interior solves in parallel; each chunk is one zone and
          writes only its own result slot.  Zone solves claim chunks
          dynamically, so the pool keeps them out of the flight recorder:
          the round samples below are its deterministic record *)
       Obs.begin_span "trws.zones";
       Pool.parallel_for ?jobs ~chunks:nz ~cost ~lo:0 ~hi:nz solve_zone;
       Obs.end_span "trws.zones";
       for z = 0 to nz - 1 do
         let ns = nodes.(z) and res = results.(z) in
         for li = 0 to sizes.(z) - 1 do
           xhat.(ns.(li)) <- res.Solver.labeling.(li)
         done
       done;
       (* boundary reconciliation: edge-slave minima complete the dual
          bound; disagreeing multipliers take one diminishing subgradient
          step, in global order *)
       Obs.begin_span "trws.boundary";
       let zb = ref 0.0 in
       for z = 0 to nz - 1 do
         zb := !zb +. results.(z).Solver.lower_bound
       done;
       let eb = ref 0.0 in
       let disagree = ref 0 in
       let step_r = zone_step /. float_of_int (r + 1) in
       for bi = 0 to nb - 1 do
         let lo = lam_off.(bi) in
         let ku = b_ku.(bi) and kv = b_kv.(bi) in
         let p0 = b_p0.(bi) in
         sl_best := infinity;
         sl_bu := 0;
         sl_bv := 0;
         for xu = 0 to ku - 1 do
           for xv = 0 to kv - 1 do
             let c =
               g_pot.(p0 + (xu * kv) + xv)
               -. lam.(lo + xu)
               -. lam.(lo + ku + xv)
             in
             if c < !sl_best then begin
               sl_best := c;
               sl_bu := xu;
               sl_bv := xv
             end
           done
         done;
         eb := !eb +. !sl_best;
         let xu = xhat.(b_u.(bi)) and xv = xhat.(b_v.(bi)) in
         if xu <> !sl_bu then begin
           incr disagree;
           lam.(lo + xu) <- lam.(lo + xu) +. step_r;
           lam.(lo + !sl_bu) <- lam.(lo + !sl_bu) -. step_r
         end;
         if xv <> !sl_bv then begin
           incr disagree;
           lam.(lo + ku + xv) <- lam.(lo + ku + xv) +. step_r;
           lam.(lo + ku + !sl_bv) <- lam.(lo + ku + !sl_bv) -. step_r
         end
       done;
       Obs.end_span "trws.boundary";
       let lb = !zb +. !eb in
       if lb > !best_bound then best_bound := lb;
       (* the concatenated zone labelings are always a feasible primal
          point of the full model *)
       let e = Mrf.energy mrf xhat in
       if e < !best_energy then begin
         best_energy := e;
         Array.blit xhat 0 best_x 0 n
       end;
       let zones_converged =
         Array.for_all (fun r -> r.Solver.converged) results
       in
       (* without boundary edges the round count means nothing: report
          the zone solves' largest sweep count *)
       let iter =
         if nb = 0 then
           Array.fold_left (fun acc r -> max acc r.Solver.iterations) 0 results
         else r + 1
       in
       iters := iter;
       (* per-round record, orchestrator-side and after the parallel
          region, so it is a function of the zone map only *)
       Obs.sample ~name:"trws.zoned.round" (float_of_int (r + 1));
       if Obs.recording () then
         Array.iteri
           (fun z (energy, bound, converged) ->
             let res = results.(z) in
             Obs.sample ~name:energy res.Solver.energy;
             Obs.sample ~name:bound res.Solver.lower_bound;
             Obs.sample ~name:converged
               (if res.Solver.converged then 1.0 else 0.0))
           (Lazy.force zone_names);
       Obs.sample ~name:"trws.boundary.disagree" (float_of_int !disagree);
       Obs.sample ~name:"trws.boundary.zone_bound" !zb;
       Obs.sample ~name:"trws.boundary.edge_bound" !eb;
       Obs.sample ~name:"trws.boundary.step" step_r;
       Obs.sample ~name:"trws.zoned.energy" !best_energy;
       Obs.sample ~name:"trws.zoned.lower_bound" !best_bound;
       if nb = 0 then begin
         (* nothing couples the zones: another round would re-solve
            identical zone models *)
         converged := zones_converged;
         raise Exit
       end;
       if
         (!disagree = 0 && zones_converged)
         || !best_energy -. !best_bound < config.tolerance
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

let solve ?(config = default_config) ?(interrupt = fun () -> false) ?jobs
    ?zone_of mrf =
  match zone_map ?jobs ?zone_of mrf with
  | Some (zone_of, nz) when nz > 1 ->
      Obs.span ~name:"trws.zoned"
        (zoned ~config ~interrupt ?jobs ~zone_of ~nz mrf)
  | _ when Option.is_some jobs && Mrf.n_nodes mrf >= partition_min ->
      Obs.span ~name:"trws.solve" (partitioned ~config ~interrupt ?jobs mrf)
  | _ -> Obs.span ~name:"trws.solve" (sequential ~config ~interrupt mrf)

let solve_zoned = solve
