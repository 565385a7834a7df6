(** Factors over multi-valued discrete variables.

    Generalizes {!Factor} (boolean) to arbitrary finite cardinalities,
    which the explicit attack BN of Section VI needs: its attacker-choice
    nodes range over "which product to exploit, or stay silent".
    Assignments are indexed mixed-radix: the first (lowest-id) variable
    varies fastest. *)

type t

val vars : t -> (int * int) array
(** (variable id, cardinality) pairs, sorted by id; do not mutate. *)

(* netdiv-lint: allow unused-export — read via Elim.Make (Mfactor) *)
val max_entries : int
(** The table-size guard, 2^24 entries. *)

val of_fun : vars:(int * int) array -> (int array -> float) -> t
(** [of_fun ~vars f] tabulates [f], which receives one value per sorted
    variable.
    @raise Invalid_argument on duplicate ids, cardinality < 1, or a
    table above 2^24 entries. *)

val constant : float -> t

val product : t -> t -> t
(** Pointwise product over the union of the variable sets.
    @raise Invalid_argument when a shared variable disagrees on
    cardinality or the result would exceed 2^24 entries. *)

val sum_out : t -> int -> t
(** Marginalizes one variable (no-op if absent). *)

val restrict : t -> int -> int -> t
(** Conditions on [var = value], dropping the variable.
    @raise Invalid_argument if the value is out of range. *)

val value : t -> (int * int) list -> float
(** Entry for a full assignment of the factor's variables. *)

val total : t -> float

val equal : ?eps:float -> t -> t -> bool
