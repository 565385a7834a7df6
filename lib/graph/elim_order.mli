(** Greedy elimination orders: the planner behind both exact engines,
    sum-product marginals ([Netdiv_bayes.Elim]) and min-sum MAP
    ([Netdiv_mrf.Exact]).  It fixes the whole order on the interaction
    graph of the factor scopes before any table is allocated, so a model
    that does not fit costs only its planning. *)

val plan :
  ?keep:int ->
  ?interrupt:(unit -> bool) ->
  n:int ->
  card:(int -> int) ->
  max_entries:int ->
  max_total:int ->
  int array ->
  int list list ->
  int list option
(** [plan ?keep ~n ~card ~max_entries ~max_total vars scopes] orders the
    variables [vars] (distinct ids in [0 .. n-1], ascending), all of them
    but [keep], on the graph of [scopes] (lists of ids from [vars]) with
    fill-in.  The greedy rule: next is the variable whose table — itself
    and its live neighbours, [card] states each — is smallest, ties to
    the lowest id.  Eliminating a variable joins its live neighbours into
    a clique.  A priority queue keyed on (planned size, id) yields the
    next variable, so planning costs O((n + fill) log n) up to the
    adjacency updates.

    [None] when a planned table holds more than [max_entries] entries,
    when the planned tables summed hold more than [max_total], or when
    [interrupt] (polled once per variable ordered) returns [true]. *)
