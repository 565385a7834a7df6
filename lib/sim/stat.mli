(** Small descriptive-statistics toolkit for simulation outputs.

    MTTC distributions are skewed, so the mean of Table VI hides a lot;
    this module summarizes sample arrays with robust quantiles and a
    normal-approximation confidence interval for the mean. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;         (** sample standard deviation (n-1) *)
  min : float;
  max : float;
  median : float;
  p90 : float;            (** 90th percentile *)
  ci95 : float * float;   (** 95% CI for the mean (normal approximation) *)
}

val mean : float array -> float
val variance : float array -> float
(** Sample variance (n-1 denominator; 0 for fewer than two samples),
    computed with Welford's online algorithm for numerical stability. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [0,1], by linear interpolation between
    order statistics.
    @raise Invalid_argument on an empty array or [p] outside [0,1]. *)

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array. *)

val of_ints : int array -> float array

val pp : Format.formatter -> summary -> unit
