module Obs = Netdiv_obs.Obs
module Pool = Netdiv_par.Pool

(* Bounds-checked unboxed access to the [floatarray] slabs below. *)
external ( .%() ) : floatarray -> int -> float = "%floatarray_safe_get"

external ( .%()<- ) : floatarray -> int -> float -> unit
  = "%floatarray_safe_set"

(* Stopping rule: a solve converges once the gap between the best
   energy and the best bound falls under [tolerance], or once neither
   has improved by [tolerance] for [patience] consecutive iterations. *)
let tolerance = Solver.tolerance
let patience = 3

(* Message state on one slab.  Node i's incoming messages form one
   block of [msg], k_i floats per incidence slot in slice order, from
   [msg_off.(i)]; since the slice is sorted by neighbour, the slots
   [inc_off.(i) .. split.(i) - 1] come from lower neighbours and the
   rest from higher ones.  [out_off.(p)] is where the message out of
   slot p's node along p's edge lives, in the neighbour's block.
   Messages, unaries and the bound's aggregates are unboxed [floatarray]
   slabs so the updates stream over contiguous doubles.  One solve owns
   a state at a time; its small per-node buffers live in {!workspace}.

   [due] holds two bits per node, [fwd_due] and [bwd_due]: both are set
   when a message into the node changes, and each is cleared at the
   node's turn in that direction.  A turn reads only the node's unary
   and incoming messages and writes only its outgoing messages (and,
   backward, its aggregate), which no other turn writes, so a turn
   whose bit is clear would store the bits already stored: the sweeps
   skip it. *)
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
  col : int array;
  split : int array;  (* per node: its first slot to a higher neighbour *)
  msg_off : int array;  (* n+1 prefix sums: each node's incoming block *)
  out_off : int array;  (* per slot: the outgoing message's offset *)
  msg : floatarray;
  agg : floatarray;
      (* gamma-weighted aggregates, written by the backward sweep and
         read by the bound *)
  gamma : float array;
  chain_off : int array;
  chain : int array;
      (* monotonic chain decomposition, flat: chain c is the slots
         [chain.(chain_off.(c)) .. chain.(chain_off.(c + 1) - 1)], each
         its edge's slot at the lower endpoint, traversed from lower to
         higher node order.  Every edge belongs to exactly one chain;
         node [i] lies on [max(#lower, #higher)] chains.  Chains run in
         descending order of their first edge's id. *)
  due : Bytes.t;  (* per node: [fwd_due] lor [bwd_due] bits *)
}

let fwd_due = 1
let bwd_due = 2

(* Per-solve scratch, allocated by the domain that runs the solve and
   reused across all messages, so the hot path never allocates (minor
   GCs are stop-the-world across ALL domains).  The bound's chain DP
   reuses [theta] and [h].  [changed] is the iteration's "a message
   moved" flag and [updates] the solve's count of computed message
   updates; they live here rather than in the state because the zone
   states are allocated back to back by the calling domain, and a flag
   written on every change beside another zone's would share its cache
   line. *)
type workspace = {
  theta : floatarray;  (* a node's cost: forward sweep, decode *)
  h : floatarray;  (* the message update's reduction input *)
  fresh : floatarray;  (* the update's result, before it is stored *)
  mutable changed : bool;
  mutable updates : int;
}

(* Load [mrf]'s unaries into [st], zero its messages and mark every node
   due in both directions: the state [make_state mrf] returns, for any
   model of [st]'s structure.  The aggregates and the workspace are
   written before they are read, so a solve from a reset state is bit
   for bit a solve from a fresh one. *)
let reset_state st mrf =
  let unary = (Mrf.Compact.arrays mrf).Mrf.Compact.i_unary in
  for k = 0 to Array.length unary - 1 do
    st.unary.%(k) <- unary.(k)
  done;
  Float.Array.fill st.msg 0 (Float.Array.length st.msg) 0.0;
  Bytes.fill st.due 0 (Bytes.length st.due) (Char.chr (fwd_due lor bwd_due))

let make_state mrf =
  let {
    Mrf.Compact.i_labels = labels;
    i_unary_off = unary_off;
    i_eu = eu;
    i_ev = ev;
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
  let n = Array.length labels and m = Array.length eu in
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
    (* each unpaired higher slot starts a chain *)
    n_chains := !n_chains + max 0 (higher - lower)
  done;
  (* Slot p of node i sends along its edge to j = col.(p), into j's
     block at j's slot of the same edge.  Slices are sorted by
     neighbour, then edge, and this loop visits the slots in node
     order, then slice order, so the slots that point at j arrive in
     j's slice order: one cursor per node finds every reverse slot. *)
  let out_off = Array.make inc_off.(n) 0 in
  let cursor = Array.sub inc_off 0 n in
  for p = 0 to inc_off.(n) - 1 do
    let j = col.(p) in
    out_off.(p) <- msg_off.(j) + ((cursor.(j) - inc_off.(j)) * labels.(j));
    cursor.(j) <- cursor.(j) + 1
  done;
  (* Monotonic chain decomposition (Kolmogorov): at each node, pair its
     k-th lower slot with its k-th higher slot; unpaired higher slots
     start chains, unpaired lower slots end them.  [start.(e)] is the
     first slot of the chain edge e starts, or -1. *)
  let start = Array.make m (-1) in
  for i = 0 to n - 1 do
    for p = split.(i) + (split.(i) - inc_off.(i)) to inc_off.(i + 1) - 1 do
      start.(inc.(p) lsr 1) <- p
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
        (* the edge's slot at its higher end j is a lower slot of j,
           whose rank among j's slots (read off the message offset) is
           the rank of the higher slot it pairs with *)
        let j = col.(!p) in
        let next = split.(j) + ((out_off.(!p) - msg_off.(j)) / labels.(j)) in
        p := if next < inc_off.(j + 1) then next else -1
      done;
      incr c;
      chain_off.(!c) <- !len
    end
  done;
  let st =
    {
      labels;
      unary_off;
      unary = Float.Array.create unary_off.(n);
      eu;
      ev;
      etab;
      pot_off;
      pot;
      inc_off;
      inc;
      col;
      split;
      msg_off;
      out_off;
      msg = Float.Array.create msg_off.(n);
      (* in the state, not per iteration: per-iteration slabs would
         churn the minor heap, and minor collections are stop-the-world
         across ALL domains, so the per-zone solves would serialize on
         the GC barrier *)
      agg = Float.Array.create unary_off.(n);
      gamma;
      chain_off;
      chain;
      due = Bytes.create n;
    }
  in
  reset_state st mrf;
  st

let make_workspace st =
  let kmax = Array.fold_left max 1 st.labels in
  {
    theta = Float.Array.make kmax 0.0;
    h = Float.Array.make kmax 0.0;
    fresh = Float.Array.make kmax 0.0;
    changed = false;
    updates = 0;
  }

(* The min-sum reduction over edge table V, stored flat at [pot.(p0 ..)]
   and row-major by the u endpoint's label ([src_is_u] gives the
   orientation): [out.(out_off + x_o) <- min_{x_s} h.(x_s) + V(x_s, x_o)]
   for every output label, and the smallest of these, taken in output
   order.  O(L²) per call; it reads the caller's precomputed [h] instead
   of recomputing it per inner iteration.  Both calls force it inline,
   so the returned minimum is never boxed and nothing is allocated. *)
let[@inline] reduce ~pot ~p0 ~src_is_u ~k_src ~k_out ~h ~out ~out_off =
  let vmin = ref infinity in
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
    out.%(out_off + xo) <- !best;
    if !best < !vmin then vmin := !best
  done;
  !vmin

(* The message update along slot p into node j: the reduction into
   [ws.fresh], less its minimum so the message's smallest entry is zero,
   stored over the old message where the bits differ (so -0.0 against
   0.0 and nan count as changes).  The test is on floats:
   [Int64.bits_of_float] is a C call, two per entry.  A changed message
   marks j due in both directions and the iteration as changed. *)
let update st ws ~p ~k_src ~j =
  let code = st.inc.(p) in
  let k_out = st.labels.(j) in
  let fresh = ws.fresh in
  let vmin =
    (reduce [@inlined]) ~pot:st.pot
      ~p0:st.pot_off.(st.etab.(code lsr 1))
      ~src_is_u:(code land 1 = 1) ~k_src ~k_out ~h:ws.h ~out:fresh ~out_off:0
  in
  let o = st.out_off.(p) in
  let moved = ref false in
  for xo = 0 to k_out - 1 do
    let v = fresh.%(xo) -. vmin and old = st.msg.%(o + xo) in
    (* the same bits: equal, and of one sign when zero (1/±0 is ±inf);
       nan equals nothing, so it always counts as a change *)
    if not (v = old && 1.0 /. v = 1.0 /. old) then begin
      st.msg.%(o + xo) <- v;
      moved := true
    end
  done;
  if !moved then begin
    Bytes.set_uint8 st.due j (fwd_due lor bwd_due);
    ws.changed <- true
  end

(* Node i's weighted cost into [dst.(d0 ..)]: gamma_i times its unary
   plus every incoming message, added in slice order. *)
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

(* Update node i's outgoing messages along slots [lo .. hi - 1] from its
   weighted cost at [dst.(d0 ..)]. *)
let send st ws i (dst : floatarray) d0 lo hi =
  let k = st.labels.(i) in
  let h = ws.h in
  ws.updates <- ws.updates + (hi - lo);
  for p = lo to hi - 1 do
    (* reduction input: the weighted cost minus the message coming back
       along the same edge *)
    let b = st.msg_off.(i) + ((p - st.inc_off.(i)) * k) in
    for x = 0 to k - 1 do
      h.%(x) <- dst.%(d0 + x) -. st.msg.%(b + x)
    done;
    update st ws ~p ~k_src:k ~j:st.col.(p)
  done

(* One forward and one backward sweep over the due nodes.  Forward,
   nodes in increasing order update their messages to higher
   neighbours; backward mirrors it, and writes each node's weighted cost
   to [agg] on the way: no message into node i changes after i's turn in
   the backward sweep, so that is the aggregate the bound reads.  A
   message that changes reaches a node whose turn in the same direction
   is still to come, so every change is answered within the sweep. *)
let sweep_pair st ws n =
  for i = 0 to n - 1 do
    let d = Bytes.get_uint8 st.due i in
    if d land fwd_due <> 0 then begin
      Bytes.set_uint8 st.due i (d land bwd_due);
      let hi = st.inc_off.(i + 1) in
      if st.split.(i) < hi then begin
        gather st i ws.theta 0;
        send st ws i ws.theta 0 st.split.(i) hi
      end
    end
  done;
  for i = n - 1 downto 0 do
    let d = Bytes.get_uint8 st.due i in
    if d land bwd_due <> 0 then begin
      Bytes.set_uint8 st.due i (d land fwd_due);
      let lo = st.inc_off.(i) in
      if lo < st.inc_off.(i + 1) then begin
        let d0 = st.unary_off.(i) in
        gather st i st.agg d0;
        send st ws i st.agg d0 lo st.split.(i)
      end
    end
  done

(* TRW dual bound for the monotonic-chain decomposition: the energy is
   split as E(x) = sum_C E_C(x_C) with per-chain node costs gamma_i *
   theta_hat_i (the backward sweep's [agg]) and reparameterized edge
   costs; the bound is the sum of the chains' independent minima,
   computed by dynamic programming along each chain and summed in chain
   order, plus each node without edges' unary minimum, in descending
   node order.  Valid for any message state (each chain min <= the
   chain's value at the true optimum), and tight at TRW-S fixed points
   on trees.

   A DP step along edge (lo, hi) is the message update's reduction over
   [dp - m_lo], the low end's cost minus the message into it, followed
   by [- m_hi + agg_hi].  Subtracting the message into the high end
   after the minimum gives the same bits as inside it, because rounding
   is monotone.  Plain loops with local accumulators: a closure over
   the chain or a float-returning helper would box, and under
   multicore the resulting minor collections are stop-the-world
   barriers that serialize otherwise independent per-zone solves. *)
let lower_bound st ws n =
  let dp = ws.theta and out = ws.h in
  let acc = ref 0.0 in
  for c = 0 to Array.length st.chain_off - 2 do
    (* the chain's first node: the low end of its first edge *)
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
      ignore
        ((reduce [@inlined]) ~pot:st.pot
           ~p0:st.pot_off.(st.etab.(code lsr 1))
           ~src_is_u:(code land 1 = 1) ~k_src:k_lo ~k_out:k_hi ~h:dp ~out
           ~out_off:0
          : float);
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

(* Greedy decoding in node order: condition on already decoded lower
   neighbours, use incoming messages from undecoded higher ones.  The
   lower slots come first in the slice, so theta adds the unary and
   then every slot's term in slice order. *)
let decode st ws n x =
  let theta = ws.theta in
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
      (* as the row endpoint i reads column x_j (stride k_j), as the
         column endpoint it reads row x_j (stride 1) *)
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

(* The iteration loop on a given state and workspace: sweeps,
   convergence bookkeeping, telemetry.  An iteration whose sweeps change
   no message leaves every aggregate as it was too (a backward turn runs
   only after a message into its node changed), so its bound, decode
   and energy would repeat the last ones bit for bit: they are reused.
   The decode before the loop counts as the last decode for iteration
   1; iteration 1 always computes the bound. *)
let sequential_on ~max_iters ~interrupt mrf st ws () =
  let n = Mrf.n_nodes mrf in
  let x = Array.make n 0 in
  let best_x = Array.make n 0 in
  decode st ws n best_x;
  let best_energy = ref (Mrf.energy mrf best_x) in
  let prev_energy = ref !best_energy in
  let best_bound = ref neg_infinity in
  (* the last bound, and the energy of the last decode *)
  let lb = ref neg_infinity and e = ref !best_energy in
  let stall = ref 0 in
  let iters = ref 0 in
  let converged = ref false in
  (try
     for it = 1 to max_iters do
       if interrupt () then raise Exit;
       iters := it;
       ws.changed <- false;
       Obs.begin_span "trws.sweep";
       sweep_pair st ws n;
       Obs.end_span "trws.sweep";
       Obs.begin_span "trws.bound";
       if ws.changed || it = 1 then lb := lower_bound st ws n;
       if ws.changed then decode st ws n x;
       Obs.end_span "trws.bound";
       if ws.changed then e := Mrf.energy mrf x;
       if !e < !best_energy then begin
         best_energy := !e;
         Array.blit x 0 best_x 0 n
       end;
       let bound_progress = !lb -. !best_bound in
       if !lb > !best_bound then best_bound := !lb;
       let energy_progress = !prev_energy -. !best_energy in
       prev_energy := !best_energy;
       Obs.sample ~name:"trws.iter" (float_of_int it);
       Obs.sample ~name:"trws.energy" !best_energy;
       Obs.sample ~name:"trws.lower_bound" !best_bound;
       if bound_progress < tolerance && energy_progress < tolerance then
         incr stall
       else stall := 0;
       if !stall >= patience || !best_energy -. !best_bound < tolerance
       then begin
         converged := true;
         raise Exit
       end
     done
   with Exit -> ());
  (* the message updates the sweeps computed, skipped turns excluded:
     one count per solve keeps the per-message hot path free of
     instrumentation.  The report's throughput row sums these samples. *)
  if Obs.enabled () then
    Obs.sample ~name:"mrf.messages" (float_of_int ws.updates);
  {
    Solver.labeling = best_x;
    energy = !best_energy;
    lower_bound = !best_bound;
    iterations = !iters;
    converged = !converged;
  }

let sequential ~max_iters ~interrupt mrf () =
  let st = make_state mrf in
  sequential_on ~max_iters ~interrupt mrf st (make_workspace st) ()

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
let zoned ~max_iters ~interrupt ?jobs ~zone_of ~nz mrf () =
  let n = Mrf.n_nodes mrf and m = Mrf.n_edges mrf in
  let {
    Mrf.Compact.i_labels = g_labels;
    i_unary_off = g_unary_off;
    i_unary = g_unary;
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
            Mrf.Builder.set_unary builders.(z) ~node:li
              (Array.sub g_unary g_unary_off.(gi) g_labels.(gi)))
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
  let cost = max 1 (min max_iters 24 * 2 * !sweep_cost / nz) in
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
         (sequential_on ~max_iters ~interrupt wrapped.(z) st
            (make_workspace st)))
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
         || !best_energy -. !best_bound < tolerance
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

let solve ?(max_iters = 100) ?(interrupt = fun () -> false) ?jobs ?zone_of
    mrf =
  match zone_map ?jobs ?zone_of mrf with
  | Some (zone_of, nz) when nz > 1 ->
      Obs.span ~name:"trws.zoned"
        (zoned ~max_iters ~interrupt ?jobs ~zone_of ~nz mrf)
  | _ -> Obs.span ~name:"trws.solve" (sequential ~max_iters ~interrupt mrf)

let solve_zoned = solve
