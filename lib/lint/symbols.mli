(** Symbol tables and an over-approximate call graph for netdiv-lint's
    interprocedural passes, read off the OCaml compiler's own parse tree
    ([compiler-libs.common]; the Parsetree is the 5.1 compiler's).

    Per repository this module answers two questions:

    - which top-level [let]-bindings (and [external]s) does each file
      define, at any [struct] depth, under which module path, and with
      which body;
    - which other bindings may each body reference (an over-approximate
      call graph: every identifier that resolves is an edge).  Names
      bound by a pattern inside the body ([let], [fun], [function],
      [match], [try], [for], [let*]) are locals, not references, within
      their scope; stdlib names resolve to nothing.

    Everything downstream treats the result as an over-approximation:
    spurious edges are harmless (they widen effect summaries, never
    shrink them). *)

exception Parse_error of string * int * string
(** [(file, line, message)]: the OCaml parser rejected a source. *)

val parse :
  (Lexing.lexbuf -> 'a) -> path:string -> string ->
  'a * (string * Location.t) list
(** [parse Parse.implementation ~path src] parses [src] (as the file
    [path]) and returns the tree with the source's comments, each
    comment's text without its delimiters.  Compiler warnings are not
    printed.  @raise Parse_error when the source does not parse. *)

type binding = {
  b_id : int;  (** global index once {!build} has run; -1 before *)
  b_file : string;
  b_module : string list;
      (** module path inside the file, starting with the file's own
          module name, e.g. [["Obs"; "Clock"]] for [Obs.Clock.now] *)
  b_name : string;
      (** value name; operator definitions are spelled as their symbol,
          e.g. [".%()"] or ["let*"]; a binding that names nothing
          ([let () = ...], a toplevel expression) is ["(init)"] *)
  b_line : int;  (** line of its [let]/[and]/[external] *)
  b_body : Parsetree.expression option;  (** [None] for an [external] *)
  b_func : bool;
      (** has parameters or a [fun]/[function]/[lazy] body — a call-time
          binding; [false] means a value evaluated once at module
          init, through which per-call effects must not propagate *)
}

type reference = {
  r_path : string list;  (** module qualifiers, [[]] for a bare name *)
  r_name : string;
  r_line : int;
}

type mli_val = {
  v_name : string;
  v_module : string list;  (** like {!binding.b_module} *)
  v_line : int;
  v_operator : bool;  (** declared as [val ( op ) : ...] *)
}

type file_syms = {
  f_path : string;
  f_modname : string;  (** capitalized basename, ["Pool"] for pool.ml *)
  f_bindings : binding array;
  f_refs : reference array array;  (** per binding, same indexing *)
  f_opens : string list list;  (** [open M] and [include M] items *)
  f_aliases : (string * string list) list;
      (** [module X = P.Q] and functor applications [module X = F (A)],
          recorded as X -> head path *)
  f_mli : mli_val list;  (** exports, when a sibling .mli was supplied *)
}

type repo = {
  files : file_syms array;
  bindings : binding array;  (** all bindings, indexed by [b_id] *)
  file_of : int array;  (** binding id -> index into [files] *)
  by_suffix : (string, int list) Hashtbl.t;
      (** resolution index: ["Mod.Sub.name"] suffix keys -> binding ids *)
}

val module_name_of_path : string -> string
(** ["lib/par/pool.ml"] -> ["Pool"]. *)

val of_structure :
  path:string -> ?mli:Parsetree.signature -> Parsetree.structure -> file_syms
(** The symbol table of one parsed file; [mli] is its parsed interface. *)

val parse_file : path:string -> ?mli:string -> string -> file_syms
(** [parse_file ~path src] parses and builds; [mli] is the interface
    source text if one exists.  @raise Parse_error *)

(** {2 Scopes} *)

type scope
(** The pattern-bound names visible at a point of an expression. *)

val walk :
  ?scope:scope -> (scope -> Parsetree.expression -> unit) ->
  Parsetree.expression -> unit
(** [walk f e] calls [f] on [e] and on each of its subexpressions, with
    the locals in scope there; [scope] (default: none) is what is in
    scope at [e]. *)

val references : ?scope:scope -> Parsetree.expression -> reference list
(** The value identifiers of an expression that are not locals, in
    source order. *)

(** {2 Resolution} *)

val build : file_syms list -> repo
(** Assigns global binding ids and freezes the resolution index. *)

val resolve : repo -> file_syms -> reference -> int list
(** All binding ids the reference may denote, [[]] when it resolves to
    nothing the repository defines (stdlib, unknown modules).
    Qualified paths are matched by module-path suffix after expanding
    file-local aliases and dropping [Netdiv_*]/[Stdlib] wrapper
    components; bare names resolve within the defining file (latest
    definition at or above the use line, i.e. shadow-aware) and through
    that file's [open]s. *)

val qualified_name : binding -> string
(** ["Obs.Clock.now"] — module path and name joined with dots. *)

val normalize_path : file_syms -> string list -> string list
(** Expands a file-local module alias at the head and drops
    [Netdiv_*]/[Stdlib] library-wrapper components, so
    [["Obs"; "Clock"]] comes back for a use spelled through
    [module Obs = Netdiv_obs.Obs]. *)
