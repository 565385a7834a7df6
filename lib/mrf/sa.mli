(** Simulated annealing (stochastic baseline).

    Metropolis dynamics over single-variable moves with geometric
    cooling and optional restarts.  Slower than TRW-S but immune to the
    message-passing failure modes on frustrated instances; used by the
    solver-ablation bench and, in the test suite, as an independent
    check that TRW-S+ICM is not leaving large energy gains behind.
    Deterministic for a fixed [seed]. *)

type config = {
  initial_temp : float;    (** starting temperature *)
  cooling : float;         (** geometric factor per stage, in (0,1) *)
  min_temp : float;        (** stop cooling here *)
  sweeps_per_temp : int;   (** full variable sweeps per stage *)
  restarts : int;          (** independent runs; best labeling wins *)
  seed : int;
  domains : int;
      (** OCaml domains to spread restarts over (default 1); the result
          is identical for any domain count because each restart owns
          its generator *)
}

val default_config : config
(** temp 2.0 → 1e-3, cooling 0.9, 4 sweeps per stage, 2 restarts,
    1 domain. *)

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?init:int array ->
  Mrf.t ->
  Solver.result
(** Runs annealing from [init] (default: unary-greedy) and returns the
    best labeling seen across all restarts.  [iterations] counts full
    sweeps; no dual bound is produced.

    [interrupt] is polled once per sweep in every restart and must be
    safe to call from spawned domains (wall-clock reads are); on [true]
    each restart stops and the best labeling across restarts is still
    returned, with [converged = false]. *)
