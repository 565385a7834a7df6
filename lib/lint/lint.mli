(** netdiv-lint: a concurrency/determinism checker for this repository's
    own OCaml sources, with no dependencies outside the repository
    (no ppx, no compiler-libs; JSON goes through {!Netdiv_vuln.Json}).

    The paper's reported numbers (optimal assignments, d_bn, MTTC) are
    reproducible only while every solver path stays deterministic under
    any domain count.  The type system cannot express that contract, so
    this module enforces the mechanically checkable part of it: a
    comment/string-aware surface lexer ({!Lexer}) feeds a small rule
    engine, and each rule reports findings as [file:line] pairs.  On top
    of the per-line rules, {!analyze_paths} runs the interprocedural
    passes ({!Symbols} call graph, {!Effects} fixpoint) whose rules see
    through call chains.

    {2 Surface rules}

    - [spawn-outside-pool]: [Domain.spawn] anywhere but [lib/par/pool.ml].
    - [toplevel-mutable-state]: module-toplevel [ref] / [Hashtbl.create] /
      [Array.make] bindings in parallel-reachable libraries ([lib/mrf],
      [lib/sim], [lib/par], [lib/core]).
    - [nondeterminism-source]: [Random.self_init], [Sys.time] or
      [Unix.gettimeofday] in solver/sim code.
    - [direct-clock-in-instrumented-code]: [Unix.gettimeofday] or
      [Sys.time] in the layers wired with Netdiv_obs telemetry but
      outside the solver/sim scope ([lib/obs], [lib/core], [bin/]);
      timestamps must go through [Netdiv_obs.Obs.Clock] so spans and
      reported timings share one monotone time base.
    - [list-nth-in-loop]: [List.nth]/[List.nth_opt] inside a [for]/[while]
      loop.
    - [alloc-in-loop]: [Array.make]/[Array.init]/[Array.copy] inside a
      [for]/[while] body in the measured hot directories ([lib/mrf],
      [lib/bayes], [lib/sim]); per-iteration allocation there is GC
      pressure the bench pays for directly — hoist a scratch buffer.
      [Mrf.incident] in such a body is flagged too: every call builds a
      fresh array of boxed [(edge, i_is_u)] pairs, where the node's
      [Mrf.Compact] slice is already flat.  Also flags a
      tuple or record literal built around [Mrf.Compact] accessor calls
      inside such a loop: packing [Compact.neighbor]/[Compact.edge]
      reads into a boxed value re-creates, per iteration, exactly the
      per-edge records the CSR layout removed — keep the fields in
      scalar [let]s.
    - [missing-mli]: a [lib/] module with no interface file.
    - [printf-in-lib]: stdout printing from library code.
    - [bad-suppression]: a malformed suppression comment.
    - [float-equality-in-kernel]: [=]/[<>] with a float literal (or
      [infinity]/[nan]/...) operand in [lib/mrf]; computed energies must
      compare through an epsilon or an intentional [Float.equal].

    {2 Interprocedural rules} (only via {!analyze_paths}/{!analyze_sources})

    - [nondet-taint]: a [lib/mrf]/[lib/sim]/[lib/core] binding whose
      transitive call closure reaches a clock read or global [Random]
      use.  Only transitive reaches are reported (a direct source is
      already a surface finding); each finding carries the witness call
      chain, printable with [--explain].
    - [impure-in-parallel-region]: a callee passed into
      [Pool.parallel_for]/[map_range]/[map_reduce] whose summary mutates
      module-toplevel state or spawns a domain, or an inline closure
      body doing so directly.
    - [unused-export]: an [.mli]-declared value never referenced from
      outside its module, counting reference roots ([test/], [bench/],
      [examples/], [tools/], [perfbench/]) as consumers.

    Suppressions double as effect {e barriers}: a reasoned suppression
    at a source line certifies it, so the sanctioned clock shim in
    [lib/obs] does not taint every instrumented caller.

    {2 Suppressions}

    A finding is silenced by a comment on the same line, the line before,
    or (for [allow-file]) anywhere in the file:

    {v (* netdiv-lint: allow <rule> — <reason> *) v}
    {v (* netdiv-lint: allow-file <rule> — <reason> *) v}

    The reason is mandatory: a suppression without one is itself reported
    under [bad-suppression]. *)

type chain_step = { c_name : string; c_file : string; c_line : int }

type finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
  symbol : string option;
      (** qualified binding name, for interprocedural findings *)
  chain : chain_step list;
      (** witness call chain (tainted binding first, source last);
          empty for surface findings *)
}

val pp_finding : Format.formatter -> finding -> unit
(** Renders as [file:line: [rule] message]. *)

val pp_chain : Format.formatter -> chain_step list -> unit
(** Renders a witness chain one step per line, indented with [->]. *)

val rules : (string * string) list
(** Shipped rule ids with a one-line description each. *)

val lint_source : path:string -> ?has_mli:bool -> string -> finding list
(** [lint_source ~path src] lints the source text [src] as though it
    lived at [path]; the path decides which rules apply (library vs
    binary, parallel-reachable directory, the pool exemption).  The
    [missing-mli] rule only runs when [has_mli] is supplied, since the
    text alone cannot know its siblings.  Findings are sorted by line. *)

(** {2 Whole-repo analysis} *)

type report = {
  r_findings : finding list;
      (** suppression-filtered, sorted by (file, line, rule) *)
  r_files : int;  (** analyzed files, reference roots excluded *)
  r_bindings : int;  (** bindings in the symbol graph *)
}

val analyze_sources :
  ?refs:(string * string) list ->
  (string * string * string option) list ->
  report
(** [analyze_sources files] runs surface and interprocedural rules over
    in-memory sources; each file is [(path, source, mli_source)].
    [refs] are reference-only roots: they join the symbol graph so their
    uses count for [unused-export], but no rule reports on them.  A file
    given without an [.mli] source is treated as having none (so
    [missing-mli] applies to lib modules; pass [Some ""] to model an
    interface that exports nothing). *)

val analyze_paths : ?ref_paths:string list -> string list -> report
(** Disk-backed {!analyze_sources}: collects [.ml] files under [paths]
    with their sibling [.mli]s, and reference files under [ref_paths]. *)

val default_ref_paths : string list -> string list
(** The conventional reference roots for a repository checkout: the
    [test]/[bench]/[examples]/[tools]/[perfbench] siblings of the first path's
    parent directory, filtered to those that exist. *)

val explain : report -> string -> finding list
(** Findings carrying a witness chain whose symbol matches the given
    name exactly or by [.]-suffix ([explain r "solve"] matches
    ["Trws.solve"]). *)

(** {2 JSON output} *)

val report_to_json : report -> string
(** Machine-readable report: [{"version", "files", "bindings",
    "findings"}]. *)
