(** Bucket elimination (Dechter, "Bucket elimination: a unifying
    framework for reasoning", AIJ 1999) along an order from
    {!Elim_order.plan}: the one engine behind min-sum MAP
    ([Netdiv_mrf.Exact]) and sum-product marginals ([Netdiv_bayes.Elim]).

    A factor is a scope plus strides into a float array, so a model's own
    tables, or a CPT with its observed parents fixed by an offset, are
    factors without a copy.  Each bucket is reduced by one odometer over
    the message's scope that reads every factor through its own strides:
    no joined table is built, and only the message (and in min-sum the
    argmin table) is allocated. *)

type factor = {
  vars : int array;  (** the scope, variable ids *)
  strides : int array;  (** the step into [table] per state of each *)
  table : float array;
  off : int;  (** the entry of the labeling with every variable at 0 *)
}
(** The value of labeling [x] is [table.(index f x)].  A variable listed
    twice reads the table's diagonal. *)

val index : factor -> int array -> int
(** [index f x] is [off + Σ_j x.(vars.(j)) * strides.(j)]. *)

type semiring =
  | Min_sum  (** a bucket adds its factors and minimizes over the variable *)
  | Sum_product  (** a bucket multiplies its factors and sums the variable out *)

type step = {
  var : int;  (** the eliminated variable *)
  message : factor;
      (** over the bucket's other variables, ascending, last fastest *)
  argmin : int array;
      (** [var]'s lowest minimizing label per entry of [message] *)
}

val eliminate :
  ?interrupt:(unit -> bool) ->
  semiring ->
  card:(int -> int) ->
  n:int ->
  int list ->
  factor list ->
  (step list * factor list) option
(** [eliminate semiring ~card ~n order factors] eliminates the variables
    of [order] (ids in [0 .. n-1], variable [v] with [card v] states)
    from [factors].  Each factor, and each message once computed, waits
    in the bucket of its earliest variable in [order]; a bucket combines
    its factors latest filed first, so the factors given come last, in
    reverse.  Each entry combines from the operation's identity, in that
    order: min-sum adds from 0.0, keeping the first label that reaches
    the minimum; sum-product multiplies from 1.0 and sums the states from
    the first upward.

    Returns the steps, latest first, and the factors over no variable of
    [order] (those over variables outside it, and constant messages),
    latest filed first.  Only [Min_sum] keeps its steps, for a traceback:
    in [Sum_product] the list is empty and each message is dropped once
    its bucket is reduced.  [None] when [interrupt], polled once per
    variable, returns [true]. *)
