(** The case-study experiments of Section VII.

    Computes the five assignments the paper evaluates —

    - [optimal] (α̂): unconstrained optimal diversification,
    - [host_constrained] (α̂C1): optimal under the C1 host policies,
    - [product_constrained] (α̂C2): optimal under C1 plus the C2
      undesirable-combination constraints,
    - [random] (αr): uniform random diversification,
    - [mono] (αm): the homogeneous worst case —

    and reproduces Table V (the BN diversity metric [d_bn] with entry c4
    and target t5) and Table VI (MTTC from the five entry points). *)

type assignments = {
  optimal : Netdiv_core.Assignment.t;
  host_constrained : Netdiv_core.Assignment.t;
  product_constrained : Netdiv_core.Assignment.t;
  random : Netdiv_core.Assignment.t;
  mono : Netdiv_core.Assignment.t;
}

val compute_assignments :
  ?seed:int ->
  ?budget:float ->
  ?jobs:int ->
  Netdiv_core.Network.t ->
  assignments
(** Runs the optimizer for the three optimal variants and builds the two
    baselines.  αr and αm respect the C1 [Fix] policies (the paper applies
    baselines to "non-constrained hosts" only).  Deterministic in
    [seed].  [budget] is a {e per-run} allowance in wall-clock seconds,
    applied to each of the three optimizer calls; each still fails if
    the budgeted answer violates its constraint set.  [jobs]
    parallelizes the solver as in {!Netdiv_core.Optimize.run}; the
    assignments do not depend on its value. *)

val labelled : assignments -> (string * Netdiv_core.Assignment.t) list
(** [("optimal", α̂); ("host-constr", α̂C1); ("product-constr", α̂C2);
    ("random", αr); ("mono", αm)] — Table V's row order. *)

type diversity_row = {
  label : string;
  log_p_ref : float;   (** log10 P′(t5) — flat-rate reference *)
  log_p_sim : float;   (** log10 P(t5) — similarity-aware *)
  d_bn : float;        (** P′/P, Definition 6 *)
}

val diversity_table :
  ?p_avg:float -> assignments -> diversity_row list
(** Table V: entry c4, target t5. *)

type mttc_row = {
  label : string;
  per_entry : (string * Netdiv_sim.Engine.mttc_stats) list;
      (** entry host name → MTTC statistics *)
}

val mttc_table :
  ?seed:int -> ?runs:int -> assignments -> mttc_row list
(** Table VI: MTTC of α̂, α̂C1, α̂C2 and αm from entries c1, c4, e3, r4 and
    v1 (1,000 runs each by default), with the reconnaissance attacker. *)
