(** Loopy min-sum belief propagation (baseline).

    The paper discusses BP as the common alternative to graph-cuts but
    prefers TRW-S because BP "might not converge" on loopy graphs
    (Section V-C).  This damped, sequential min-sum implementation serves
    as that baseline: it provides no dual bound and no convergence
    guarantee, which the ablation benches demonstrate. *)

type config = {
  max_iters : int;
  tolerance : float;   (** stop when no message changes more than this *)
  damping : float;     (** new = (1-d)*update + d*old; 0 = undamped *)
  init_noise : float;
      (** deterministic initial message jitter in [0,noise); breaks the
          symmetric all-zero fixed point on label-symmetric models *)
}

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?on_progress:(iter:int -> energy:float -> bound:float -> unit) ->
  ?jobs:int ->
  Mrf.t ->
  Solver.result
(** [config] defaults to 100 iterations, tolerance 1e-7, damping 0.3
    and noise 1e-4.  Without [jobs], one sequential (Gauss-Seidel) sweep
    in node order per iteration.  With [jobs], the chromatic schedule:
    the node graph is greedy-colored once ({!Mrf.greedy_coloring}) and
    every sweep runs one parallel region per color class on a
    persistent {!Netdiv_par.Pool.Team}.  Nodes of one class are pairwise
    non-adjacent, so a class member's update reads only messages no
    other member writes — within a class the result is independent even
    of chunk boundaries, which makes the solve bitwise identical across
    job counts (a Jacobi-within-class schedule, so its trajectory
    differs from the sequential sweep's; both are deterministic).
    Decoding parallelizes the same way.  [jobs] resolves via
    {!Netdiv_par.Pool.resolve_jobs}.

    [interrupt] is polled once per sweep; on [true] the best decoded
    labeling so far is returned.  [on_progress] fires after each sweep
    with [bound = neg_infinity] (BP provides no dual bound). *)
