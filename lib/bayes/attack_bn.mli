(** Attack Bayesian networks and the diversity metric [d_bn] (Section VI).

    Given a diversified network and an attacker entry host, the undirected
    host graph is oriented into a BFS DAG rooted at the entry; each host
    becomes a boolean "compromised" node whose parents are its predecessor
    hosts, combined by a noisy-OR of per-edge infection rates.

    The per-edge rate models the attacker's choice among the zero-day
    exploits feasible on that edge — one per service the two hosts share:
    exploiting service [s] succeeds with the vulnerability similarity of
    the products assigned at the two ends (1.0 when they run the very same
    product).  The paper's metric assumes the attacker "evenly chooses one"
    ({!Uniform_choice}); a reconnaissance attacker takes the best
    ({!Best_choice}); the similarity-free reference uses a flat average
    zero-day rate ({!Fixed}). *)

type exploit_model =
  | Uniform_choice  (** mean similarity over the shared services *)
  | Best_choice     (** max similarity over the shared services *)
  | Fixed of float  (** flat per-edge rate [P_avg], ignoring products *)

val edge_rate :
  ?base_rate:float ->
  ?sim_floor:float ->
  Netdiv_core.Assignment.t ->
  model:exploit_model ->
  int ->
  int ->
  float
(** Infection rate from one host to a connected neighbour: [base_rate *
    choice(max(sim, sim_floor))] for the similarity models, the flat rate
    itself for [Fixed]. *)

val build :
  ?base_rate:float ->
  ?sim_floor:float ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  ?prior:float ->
  model:exploit_model ->
  unit ->
  Bn.t * int array
(** [build a ~entry ~model ()] constructs the attack BN and the host→node
    id map (hosts unreachable from [entry] map to [-1]).  [prior] is the
    entry host's compromise probability (default 1.0). *)

val p_compromise_explicit :
  ?base_rate:float ->
  ?sim_floor:float ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  model:exploit_model ->
  float
(** Target compromise probability through the explicit Section-VI
    construction and exact multi-valued variable elimination.  Per
    directed attack edge the construction has a multi-valued
    attacker-choice node (one state per exploitable shared service, plus
    "silent"), per host a boolean compromise node whose CPT combines the
    chosen exploits' success rates.  Marginally equivalent to {!build}
    (verified in the test suite); exponentially bigger, so use it as the
    executable specification, not the production path. *)

val p_compromise :
  ?base_rate:float ->
  ?sim_floor:float ->
  ?samples:int ->
  ?rng:Random.State.t ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  model:exploit_model ->
  float
(** Probability of the target host being compromised.  Uses exact variable
    elimination ({!Infer.exact_marginal}) over the target's ancestors in
    the attack DAG when its planned width fits a factor, otherwise falls
    back to forward sampling with [samples] draws (default 200,000).
    Every query on the 256-host scaled ICS (scale 8) is exact; on the
    1000-host default workload the width check rejects elimination within
    milliseconds and the sampler answers.  Returns 0 when the target is
    unreachable from the entry. *)

val host_marginals :
  ?base_rate:float ->
  ?sim_floor:float ->
  ?samples:int ->
  ?rng:Random.State.t ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  model:exploit_model ->
  (int * float) array
(** Estimated compromise probability of {e every} host (by forward
    sampling of the attack BN; default 50,000 draws) — the risk ranking a
    defender uses to decide which hosts to upgrade first.  Hosts
    unreachable from the entry score 0. *)

val default_p_avg : float
(** The average zero-day propagation rate used for the similarity-free
    reference P′ (0.065; calibration in EXPERIMENTS.md). *)

val diversity :
  ?base_rate:float ->
  ?sim_floor:float ->
  ?samples:int ->
  ?rng:Random.State.t ->
  ?p_avg:float ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  float
(** The network diversity metric of Definition 6,
    [d_bn = P'(target) / P(target)], where [P'] uses [Fixed p_avg]
    (default {!default_p_avg}) and [P] uses {!Uniform_choice}.  Larger is
    more diverse; at most 1 when the assignment is no better than the
    flat-rate reference. *)
