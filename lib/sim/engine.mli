(** Agent-based malware propagation (the paper's NetLogo substitute).

    Discrete-tick simulation of a Stuxnet-like worm (Section VII-C2): the
    entry host starts compromised; every tick, each infected host attacks
    each of its susceptible neighbours once.  The attacker picks a zero-day
    exploit among the services the two hosts share — the paper's
    "sophisticated attacker" performs reconnaissance and always picks the
    exploit with the highest success rate — and the attempt succeeds with
    probability equal to the vulnerability similarity of the two assigned
    products (1.0 for identical products).

    All randomness comes from the caller's [Random.State.t], so runs are
    reproducible, and the order of the draws is part of the contract (the
    golden stream pins in [test/test_sim.ml] hold it bit for bit):
    - each tick, the newest infected host attacks first; hosts infected
      in the same tick attack in the order of their last hit;
    - a host attacks its neighbours still susceptible at the start of
      the tick, in adjacency order;
    - each attempt costs one [Random.State.float], preceded under
      [Uniform_exploit] by one [Random.State.int] that picks the exploit;
    - an edge with a zero rate (no shared service under
      [Uniform_exploit]) never draws.

    The defended runs attack in host-id order instead, then draw one
    float per infected host for detection.

    Every entry point raises [Invalid_argument] on an [entry] or
    [target] outside the network, and the MTTC batches on [runs < 1]. *)

type strategy =
  | Best_exploit     (** reconnaissance attacker: max-similarity service *)
  | Uniform_exploit  (** picks a shared service uniformly each attempt *)
  | Arsenal_exploit
      (** a static worm: it carries one zero-day per service, forged for
          the {e entry} host's products (the paper's "three unique
          zero-day exploits"), and cannot adapt en route — each hop
          succeeds with the similarity between the arsenal's product and
          the victim's.  The weakest of the attacker-capability levels. *)

type mttc_stats = {
  runs : int;            (** simulations performed *)
  successes : int;       (** runs in which the target was compromised *)
  mean_ticks : float;    (** mean compromise time over successful runs *)
  max_ticks : int;       (** per-run tick cap *)
}

val run :
  rng:Random.State.t ->
  ?strategy:strategy ->
  ?attempt_scale:float ->
  ?sim_floor:float ->
  ?max_ticks:int ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  int option
(** One simulation; [Some t] if the target fell at tick [t] (the entry
    itself gives [Some 0]), [None] if it survived [max_ticks] (default
    10,000) ticks. *)

val mttc :
  rng:Random.State.t ->
  ?strategy:strategy ->
  ?attempt_scale:float ->
  ?sim_floor:float ->
  ?max_ticks:int ->
  runs:int ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  mttc_stats
(** Mean-time-to-compromise over repeated runs (the paper uses 1,000). *)

val mttc_samples :
  rng:Random.State.t ->
  ?strategy:strategy ->
  ?attempt_scale:float ->
  ?sim_floor:float ->
  ?max_ticks:int ->
  runs:int ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  int array
(** Raw compromise times of the successful runs, in run order. *)

val mttc_summary :
  rng:Random.State.t ->
  ?strategy:strategy ->
  ?attempt_scale:float ->
  ?sim_floor:float ->
  ?max_ticks:int ->
  runs:int ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  mttc_stats * Stat.summary option
(** {!mttc} plus a full distribution summary ([None] when no run reached
    the target). *)

val mttc_parallel :
  ?domains:int ->
  seed:int ->
  ?strategy:strategy ->
  ?attempt_scale:float ->
  ?sim_floor:float ->
  ?max_ticks:int ->
  runs:int ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  unit ->
  mttc_stats
(** Multicore {!mttc}: runs are distributed over [domains] (default 4)
    OCaml domains; each run seeds its own generator from [(seed, index)],
    so the result is identical for every domain count. *)

val epidemic_curve :
  rng:Random.State.t ->
  ?strategy:strategy ->
  ?attempt_scale:float ->
  ?sim_floor:float ->
  ?max_ticks:int ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  int array
(** Number of infected hosts after each tick of a single run, until the
    infection stops spreading or the cap is reached.  Index 0 is the state
    after tick 1. *)

(** {1 Detection and response}

    Diversity buys {e time}; a defender converts that time into containment.
    The defended simulation adds a per-tick detection probability: detected
    hosts are reimaged (and optionally immunized), and the worm dies out if
    it ever loses every foothold. *)

type defense = {
  detect_rate : float;  (** per-tick detection probability per infected host *)
  immunize : bool;      (** reimaged hosts cannot be reinfected *)
}

val run_defended :
  rng:Random.State.t ->
  ?strategy:strategy ->
  ?attempt_scale:float ->
  ?sim_floor:float ->
  ?max_ticks:int ->
  defense:defense ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  int option
(** One defended run: [Some t] when the target fell at tick [t], [None]
    when the worm was contained (or timed out).
    @raise Invalid_argument when [detect_rate] is outside [0,1]. *)

val mttc_defended :
  rng:Random.State.t ->
  ?strategy:strategy ->
  ?attempt_scale:float ->
  ?sim_floor:float ->
  ?max_ticks:int ->
  defense:defense ->
  runs:int ->
  Netdiv_core.Assignment.t ->
  entry:int ->
  target:int ->
  mttc_stats
(** Repeated defended runs; [successes/runs] is the probability the
    target is compromised despite the defender. *)

val pp_mttc : Format.formatter -> mttc_stats -> unit
