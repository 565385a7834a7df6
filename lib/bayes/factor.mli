(** Factors over boolean variables, the workhorse of exact BN inference.

    A factor maps assignments of a sorted variable set to non-negative
    reals, stored as a dense table of size [2^k]: the bit of [vars.(i)] in
    the table index is bit [i] (so [vars.(0)] is the least significant). *)

type t

val vars : t -> int array
(** Sorted variable ids (do not mutate). *)

val of_fun : vars:int array -> (bool array -> float) -> t
(** [of_fun ~vars f] tabulates [f], which receives values aligned with the
    sorted [vars].
    @raise Invalid_argument on duplicate variables or more than 25 of
    them. *)

val product : t -> t -> t
(** Pointwise product over the union of the variable sets. *)

val sum_out : t -> int -> t
(** Marginalizes one variable away (no-op if absent). *)

val restrict : t -> int -> bool -> t
(** Conditions on a variable's value, dropping it (no-op if absent). *)

val value : t -> (int * bool) list -> float
(** Looks up the entry for a full assignment of the factor's variables.
    @raise Invalid_argument if a variable is missing. *)

val total : t -> float
(** Sum of all entries. *)

val equal : ?eps:float -> t -> t -> bool
