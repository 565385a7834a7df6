(** Transitive effect summaries over the {!Symbols} call graph.

    Each top-level binding gets a summary in the four-point powerset
    lattice {nondet-clock, nondet-random, spawns-domain,
    mutates-toplevel}.  Base effects come from the expressions of the
    binding's own body; the fixpoint then closes them over the
    over-approximate call graph, so a solver entry point three calls
    away from [Unix.gettimeofday] carries [Clock] even though no
    forbidden identifier appears in its body.  [Clock] and [Random] feed
    the nondet-taint rule; [Spawn] and [Mutate] feed
    impure-in-parallel-region.

    Suppressions act as trust boundaries: a source whose line carries a
    reasoned [netdiv-lint] suppression for the matching surface rule
    does {e not} contribute its base effect, so e.g. the sanctioned
    clock shim in [lib/obs] (suppressed at the [Unix.gettimeofday] read)
    stops clock taint from flooding every instrumented caller.  The
    [barrier] callback supplies that judgement, keeping this module free
    of suppression-parsing logic.

    Every effect an analysis reports is backed by a witness — either
    the source itself or the call edge it arrived through — so a
    finding can be explained as a concrete call chain.  Witness chains
    are acyclic by construction: an edge witness is only recorded the
    first time an effect reaches a binding, and at that moment the
    callee's own chain was already complete. *)

type eff =
  | Clock  (** [Unix.gettimeofday] / [Sys.time] *)
  | Random  (** global-state [Random.*] (anything but [Random.State]) *)
  | Spawn  (** [Domain.spawn] *)
  | Mutate
      (** [:=], [<-], or an imperative [Hashtbl]/[Atomic] update of a
          module-toplevel binding *)

val eff_name : eff -> string
(** ["nondet-clock"], ["nondet-random"], ["spawns-domain"],
    ["mutates-toplevel"]. *)

type source = { s_eff : eff; s_line : int; s_descr : string }
(** A base-effect occurrence, e.g.
    [{ s_eff = Clock; s_line = 12; s_descr = "Unix.gettimeofday" }]. *)

type witness =
  | Direct of source
  | Via of { callee : int; call_line : int }
      (** the effect arrived through a call to binding [callee],
          referenced at [call_line] of this binding's file *)

type summary = {
  effs : eff list;  (** sorted, duplicate-free *)
  wit : (eff * witness) list;  (** one witness per present effect *)
}

type t = {
  repo : Symbols.repo;
  summaries : summary array;  (** indexed by binding id *)
}

val analyze :
  barrier:(path:string -> line:int -> rule:string -> bool) ->
  Symbols.repo ->
  t
(** Computes base effects and runs the fixpoint.  [barrier ~path ~line
    ~rule] must return [true] when a reasoned suppression for [rule]
    covers [line] of [path]; such sources are certified and dropped. *)

val has : t -> int -> eff -> bool

val summary : t -> int -> summary

val direct_sources :
  barrier:(path:string -> line:int -> rule:string -> bool) ->
  ?scope:Symbols.scope ->
  Symbols.repo ->
  Symbols.file_syms ->
  Parsetree.expression ->
  source list
(** The base-effect occurrences of one expression of the file,
    barrier-filtered, with [scope] the locals in scope at it; used by the
    parallel-region rule to check inline closures without re-running the
    whole analysis. *)

type chain_step = { c_name : string; c_file : string; c_line : int }

val chain : t -> int -> eff -> chain_step list
(** The witness chain for an effect of a binding: the binding itself
    (at its definition line), each intermediate callee, and finally the
    source spelled as its description ([Unix.gettimeofday], ...) at the
    line it occurs.  Empty when the binding lacks the effect. *)
