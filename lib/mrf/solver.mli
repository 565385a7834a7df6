(** Common result type and helpers shared by the MAP solvers. *)

type result = {
  labeling : int array;    (** best labeling found *)
  energy : float;          (** E(labeling) *)
  lower_bound : float;     (** best dual bound; [neg_infinity] if none *)
  iterations : int;        (** sweeps performed *)
  converged : bool;        (** stopping criterion met before the cap *)
}

val optimality_gap : result -> float
(** [energy - lower_bound]; [infinity] when no bound is available or
    either quantity is non-finite (no [nan]/[-inf] arithmetic). *)

val tolerance : float
(** 1e-7: a gap under it closes, in TRW-S's stopping rule and in
    {!certified}. *)

val certified : result -> bool
(** [optimality_gap r < tolerance]: the bound proves the energy optimal.
    A TRW-S stall, a solver without a bound and a non-finite result are
    not certified. *)

val pp_float : Format.formatter -> float -> unit
(** [%.6f] for finite values; ["none"] for [neg_infinity], ["unbounded"]
    for [infinity], ["undefined"] for NaN. *)

val pp_result : Format.formatter -> result -> unit
(** Renders non-finite energies and bounds via {!pp_float}. *)
