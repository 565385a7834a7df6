(* netdiv-lint rule engine.  See lint.mli for the contract and DESIGN.md
   ("Concurrency discipline") for the rationale behind each rule. *)

type chain_step = Effects.chain_step = {
  c_name : string;
  c_file : string;
  c_line : int;
}

type finding = {
  file : string;
  line : int;
  rule : string;
  message : string;
  symbol : string option;
      (* qualified binding name for interprocedural findings *)
  chain : chain_step list;  (* taint call chain, source last *)
}

let mk ~file ~line ~rule ~message =
  { file; line; rule; message; symbol = None; chain = [] }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.message

let pp_chain ppf steps =
  List.iteri
    (fun i (s : chain_step) ->
      Format.fprintf ppf "%s%s (%s:%d)@\n"
        (if i = 0 then "" else String.make (2 * i) ' ' ^ "-> ")
        s.c_name s.c_file s.c_line)
    steps

let rules =
  [
    ( "spawn-outside-pool",
      "Domain.spawn anywhere but lib/par/pool.ml; all parallelism must go \
       through Netdiv_par.Pool so job-count invariance holds" );
    ( "toplevel-mutable-state",
      "module-toplevel ref / Hashtbl.create / Array.make binding in a \
       parallel-reachable library (lib/mrf, lib/sim, lib/par, lib/core)" );
    ( "nondeterminism-source",
      "Random.self_init, Sys.time or Unix.gettimeofday in solver/sim code; \
       results must depend only on explicit seeds and budgets" );
    ( "direct-clock-in-instrumented-code",
      "Unix.gettimeofday or Sys.time in code wired with Netdiv_obs \
       telemetry (lib/obs, lib/core, bin); timestamps must go through \
       Netdiv_obs.Obs.Clock so spans and reported timings share one \
       monotone time base" );
    ( "list-nth-in-loop",
      "List.nth inside a for/while loop: O(n) per access turns the loop \
       quadratic (the exact class fixed in lib/sim/engine.ml)" );
    ( "alloc-in-loop",
      "Array.make/Array.init/Array.copy, Float.Array.create/make or \
       Mrf.incident inside a for/while body in hot solver, inference and \
       simulator code (lib/mrf, lib/bayes, lib/graph, lib/sim), or a \
       tuple/record built from Mrf.Compact accessor results there; \
       allocate scratch (including message slabs) once outside the loop, \
       walk the Mrf.Compact CSR slice instead of incidence lists, and \
       keep accessor reads in scalar lets instead of re-boxing them" );
    ( "missing-mli",
      "library module without an interface file; every lib/ module must \
       state its exported surface" );
    ( "printf-in-lib",
      "stdout printing from library code; libraries format via a caller's \
       formatter, only bin/ may print" );
    ( "swallowed-exception",
      "try ... with _ -> () discards a failure without logging, counting \
       or re-raising; match the specific exception or suppress with the \
       reason the discard is safe" );
    ( "bad-suppression",
      "malformed netdiv-lint suppression: unknown rule id or missing \
       written reason" );
    ( "float-equality-in-kernel",
      "= or <> applied to float operands in lib/mrf kernel code; energies \
       and bounds must compare via an explicit epsilon or Float.equal \
       with a suppression reason" );
    ( "nondet-taint",
      "a lib/mrf, lib/sim or lib/core binding transitively reaches a \
       nondeterminism source (clock or global Random) through the call \
       graph; run with --explain SYMBOL for the chain" );
    ( "impure-in-parallel-region",
      "a function passed into Pool.parallel_for/map_range/map_reduce \
       mutates module-toplevel state or spawns its own domain; chunk \
       workers must only write their own slices" );
    ( "unused-export",
      ".mli-declared value never referenced outside its module (including \
       test/, bench/, examples/ and tools/); drop it from the interface \
       or suppress with the reason it is public API" );
  ]

let rule_ids = List.map fst rules

(* ------------------------------------------------------ classification *)

type ctx = {
  path : string;
  in_lib : bool;
  lib_dir : string option;
  is_pool : bool;
}

let split_path path =
  String.split_on_char '/' (String.map (fun c -> if c = '\\' then '/' else c) path)

let classify path =
  let segs = List.filter (fun s -> s <> "" && s <> ".") (split_path path) in
  let rec find_lib = function
    | "lib" :: rest -> Some rest
    | _ :: rest -> find_lib rest
    | [] -> None
  in
  let after_lib = find_lib segs in
  let in_lib = after_lib <> None in
  let lib_dir =
    match after_lib with
    | Some (d :: _ :: _) -> Some d (* lib/<dir>/.../file *)
    | _ -> None
  in
  let base = match List.rev segs with b :: _ -> b | [] -> path in
  let is_pool = lib_dir = Some "par" && base = "pool.ml" in
  { path; in_lib; lib_dir; is_pool }

let parallel_reachable ctx =
  match ctx.lib_dir with
  | Some ("mrf" | "sim" | "par" | "core") -> true
  | _ -> false

let solver_sim ctx =
  match ctx.lib_dir with Some ("mrf" | "sim" | "par") -> true | _ -> false

(* Layers that carry Netdiv_obs spans/metrics but sit outside the
   solver/sim scope (where nondeterminism-source already polices clock
   reads): the observability library itself, the optimizer pipeline and
   the executables.  The split keeps the two rules disjoint, so a stray
   clock read gets exactly one finding. *)
let instrumented_non_solver ctx =
  (not (solver_sim ctx))
  &&
  match ctx.lib_dir with
  | Some ("obs" | "core") -> true
  | Some _ -> false
  | None -> not ctx.in_lib

(* Directories whose inner loops are the measured hot path: a
   per-iteration allocation there shows up directly in BENCH.json. *)
let hot_path ctx =
  match ctx.lib_dir with
  | Some ("mrf" | "bayes" | "graph" | "sim") -> true
  | _ -> false

(* -------------------------------------------------------- suppressions *)

type suppression = {
  s_rule : string;
  s_lo : int;
  s_hi : int;  (* a suppression covers its comment's lines plus one *)
  s_file_wide : bool;
}

let directive_prefix = "netdiv-lint:"

(* A reason must contain at least one alphanumeric character, so a bare
   dash or em-dash does not count as one. *)
let is_reason_text s =
  String.exists
    (fun c ->
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))
    s

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let split_first_ws s =
  let n = String.length s in
  let rec go i = if i < n && not (is_ws s.[i]) then go (i + 1) else i in
  let i = go 0 in
  (String.sub s 0 i, String.sub s i (n - i))

let parse_directive ~path ~line body =
  (* [body] is everything between the directive marker and the comment
     closer; expected shape: allow[-file] <rule> <separator> <reason> *)
  let body = String.trim body in
  let word, rest = split_first_ws body in
  let bad message = Error (mk ~file:path ~line ~rule:"bad-suppression" ~message) in
  let file_wide =
    match word with
    | "allow" -> Some false
    | "allow-file" -> Some true
    | _ -> None
  in
  match file_wide with
  | None ->
      bad
        (Printf.sprintf
           "expected 'allow <rule>' or 'allow-file <rule>', got %S" word)
  | Some s_file_wide -> (
      let rule, reason = split_first_ws (String.trim rest) in
      match List.mem rule rule_ids with
      | false -> bad (Printf.sprintf "unknown rule id %S" rule)
      | true ->
          if not (is_reason_text reason) then
            bad
              (Printf.sprintf
                 "suppression of %s has no written reason; say why the \
                  violation is acceptable"
                 rule)
          else Ok (rule, s_file_wide))

(* A directive must open the comment ("(* netdiv-lint: ..."); mentioning
   the marker mid-prose, as this very comment does, is not a directive.
   The comments come from the compiler's lexer, without their
   delimiters. *)
let parse_suppressions ~path comments =
  let sups = ref [] and bad = ref [] in
  List.iter
    (fun (text, (loc : Location.t)) ->
      let body = String.trim text in
      let plen = String.length directive_prefix in
      if String.starts_with ~prefix:directive_prefix body then
        let line = loc.loc_start.pos_lnum in
        match
          parse_directive ~path ~line
            (String.sub body plen (String.length body - plen))
        with
        | Ok (s_rule, s_file_wide) ->
            sups :=
              { s_rule; s_lo = line; s_hi = loc.loc_end.pos_lnum + 1;
                s_file_wide }
              :: !sups
        | Error f -> bad := f :: !bad)
    comments;
  (!sups, !bad)

let suppressed sups (f : finding) =
  List.exists
    (fun s ->
      s.s_rule = f.rule && (s.s_file_wide || (f.line >= s.s_lo && f.line <= s.s_hi)))
    sups

(* ------------------------------------------------------- surface rules *)

open Parsetree

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

(* Does an expression call into [Mrf.Compact] (an accessor, or a field
   read through a [Compact]-qualified label)? *)
let mentions_compact e =
  let found = ref false in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } | Pexp_field (_, { txt; _ }) ->
        if List.mem "Compact" (Longident.flatten txt) then found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let float_constants =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float" ]

(* A float literal, possibly negated, or one of the well-known float
   constants bare or through [Float]/[Stdlib].  An unannotated [a = b]
   stays silent, which keeps the rule precise at the cost of recall: in
   this codebase energies are compared against literals or
   [infinity]. *)
let rec float_operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | [ n ] | [ ("Float" | "Stdlib"); n ] -> List.mem n float_constants
      | _ -> false)
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-" | "~-."); _ };
          _ },
        [ (_, e) ] )
  | Pexp_constraint (e, _) ->
      float_operand e
  | _ -> false

(* One pass over the parse tree for the expression rules.  [loops]
   counts the enclosing [for] bodies and [while] loops (condition and
   body, both evaluated per iteration). *)
let scan_exprs ctx str =
  let out = ref [] in
  let add line rule message =
    out := mk ~file:ctx.path ~line ~rule ~message :: !out
  in
  let loops = ref 0 in
  let in_loop k =
    incr loops;
    k ();
    decr loops
  in
  let ident line path =
    let rpath = List.rev path in
    (match rpath with
    | "spawn" :: "Domain" :: _ when not ctx.is_pool ->
        add line "spawn-outside-pool"
          "Domain.spawn outside lib/par/pool.ml; use Netdiv_par.Pool \
           combinators instead"
    | _ -> ());
    if solver_sim ctx then begin
      match rpath with
      | "self_init" :: "Random" :: _ ->
          add line "nondeterminism-source"
            "Random.self_init makes results irreproducible; derive seeds \
             with Pool.split_seed"
      | "time" :: "Sys" :: _ ->
          add line "nondeterminism-source"
            "Sys.time in solver/sim code; wall-clock reads belong in the \
             anytime harness only"
      | "gettimeofday" :: "Unix" :: _ ->
          add line "nondeterminism-source"
            "Unix.gettimeofday in solver/sim code; wall-clock reads belong \
             in the anytime harness only"
      | _ -> ()
    end;
    if instrumented_non_solver ctx then begin
      match rpath with
      | "gettimeofday" :: "Unix" :: _ ->
          add line "direct-clock-in-instrumented-code"
            "direct Unix.gettimeofday in instrumented code; read the clock \
             through Netdiv_obs.Obs.Clock.now so spans and timings share \
             one time base"
      | "time" :: "Sys" :: _ ->
          add line "direct-clock-in-instrumented-code"
            "direct Sys.time in instrumented code; read the clock through \
             Netdiv_obs.Obs.Clock.now so spans and timings share one time \
             base"
      | _ -> ()
    end;
    if !loops > 0 then begin
      (match rpath with
      | ("nth" | "nth_opt") :: "List" :: _ ->
          add line "list-nth-in-loop"
            "List.nth inside a loop is O(n) per access; index an array or \
             restructure the traversal"
      | _ -> ());
      if hot_path ctx then
        match rpath with
        | (("create" | "make" | "init" | "copy") as f)
          :: "Array" :: "Float" :: _ ->
            add line "alloc-in-loop"
              (Printf.sprintf
                 "Float.Array.%s inside a loop body allocates an unboxed slab \
                  per iteration; hoist it out of the sweep and reuse it"
                 f)
        | (("make" | "init" | "copy") as f) :: "Array" :: _ ->
            add line "alloc-in-loop"
              (Printf.sprintf
                 "Array.%s inside a loop body allocates per iteration; hoist a \
                  scratch buffer out of the loop, as the TRW-S workspace holds \
                  the message update's reduction input"
                 f)
        | "incident" :: "Mrf" :: _ ->
            add line "alloc-in-loop"
              "Mrf.incident inside a loop body builds a fresh array of (edge, \
               i_is_u) tuples per call; walk the node's Mrf.Compact CSR slice \
               (i_inc_off, i_inc, i_col) instead"
        | _ -> ()
    end;
    if ctx.in_lib then
      match rpath with
      | "printf" :: ("Printf" | "Format") :: _
      | [ ( "print_endline" | "print_string" | "print_newline" | "print_int"
          | "print_float" | "print_char" ) ]
      | [ ( "print_endline" | "print_string" | "print_newline" | "print_int"
          | "print_float" | "print_char" );
          "Stdlib" ] ->
          add line "printf-in-lib"
            "library code must not print to stdout; take a Format formatter \
             from the caller"
      | _ -> ()
  in
  let check e =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> ident (line_of loc) (Longident.flatten txt)
    | Pexp_tuple _ when hot_path ctx && !loops > 0 && mentions_compact e ->
        add (line_of e.pexp_loc) "alloc-in-loop"
          "tuple of Compact accessor results inside a loop body boxes \
           what the CSR layout keeps flat; keep the fields in scalar \
           lets"
    | Pexp_record _ when hot_path ctx && !loops > 0 && mentions_compact e ->
        add (line_of e.pexp_loc) "alloc-in-loop"
          "record built from Compact accessor results inside a loop \
           body re-boxes the compact representation; keep the fields \
           in scalar lets"
    | Pexp_try (_, cases) ->
        (* a catch-all arm whose whole body is [()]: the failure
           vanishes with no log line, no counter and no re-raise, which
           is how a fault-injection run silently passes *)
        List.iter
          (fun c ->
            match (c.pc_lhs.ppat_desc, c.pc_guard, c.pc_rhs.pexp_desc) with
            | ( Ppat_any, None,
                Pexp_construct ({ txt = Longident.Lident "()"; _ }, None) ) ->
                add (line_of c.pc_lhs.ppat_loc) "swallowed-exception"
                  "catch-all handler [_ -> ()] discards the exception and \
                   does nothing; match the specific exception, record the \
                   failure, or re-raise"
            | _ -> ())
          cases
    | Pexp_apply
        ( { pexp_desc =
              Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); loc };
            _ },
          [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] )
      when ctx.lib_dir = Some "mrf" && (float_operand a || float_operand b) ->
        add (line_of loc) "float-equality-in-kernel"
          (Printf.sprintf
             "float %s comparison in kernel code; exact equality on \
              computed energies is representation-dependent — use \
              Float.equal for intentional bitwise tests or an explicit \
              epsilon"
             op)
    | _ -> ()
  in
  let expr self e =
    check e;
    let sub = self.Ast_iterator.expr self in
    match e.pexp_desc with
    | Pexp_for (_, lo, hi, _, body) ->
        sub lo;
        sub hi;
        in_loop (fun () -> sub body)
    | Pexp_while (cond, body) ->
        in_loop (fun () ->
            sub cond;
            sub body)
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  !out

(* Module-toplevel bindings (at any [struct] depth) whose right-hand
   side constructs mutable state.  A constructor under a [fun] or
   [function] builds per-call state and is not flagged. *)
let scan_toplevel_mutable ctx (fs : Symbols.file_syms) =
  if not (parallel_reachable ctx) then []
  else begin
    let out = ref [] in
    Array.iter
      (fun (b : Symbols.binding) ->
        let flag message =
          out :=
            mk ~file:ctx.path ~line:b.b_line ~rule:"toplevel-mutable-state"
              ~message
            :: !out
        in
        let expr self e =
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | _ ->
              (match e.pexp_desc with
              | Pexp_ident { txt; _ } -> (
                  match List.rev (Longident.flatten txt) with
                  | [ "ref" ] | [ "ref"; "Stdlib" ] ->
                      flag
                        (Printf.sprintf
                           "toplevel binding %S holds a ref shared by every \
                            domain; make it per-call or suppress with a \
                            documented guard"
                           b.b_name)
                  | (("create" as f) :: ("Hashtbl" as m) :: _)
                  | (("make" as f) :: ("Array" as m) :: _) ->
                      flag
                        (Printf.sprintf
                           "toplevel binding %S allocates shared mutable \
                            state (%s.%s); make it per-call or suppress with \
                            a documented guard"
                           b.b_name m f)
                  | _ -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr self e
        in
        let it = { Ast_iterator.default_iterator with expr } in
        match b.b_body with
        | Some e when b.b_name <> "(init)" -> it.expr it e
        | _ -> ())
      fs.Symbols.f_bindings;
    !out
  end

(* -------------------------------------------------------------- driver *)

let surface ctx fs str = scan_exprs ctx str @ scan_toplevel_mutable ctx fs

let missing_mli ctx =
  if
    ctx.in_lib
    && Filename.check_suffix ctx.path ".ml"
    && not (Filename.check_suffix ctx.path ".pp.ml")
  then
    [ mk ~file:ctx.path ~line:1 ~rule:"missing-mli"
        ~message:
          "library module has no .mli; state the exported surface (add an \
           interface file)" ]
  else []

exception Parse_error = Symbols.Parse_error

let lint_source ~path ?has_mli src =
  let ctx = classify path in
  let str, comments = Symbols.parse Parse.implementation ~path src in
  let sups, bad = parse_suppressions ~path comments in
  let findings =
    surface ctx (Symbols.of_structure ~path str) str
    @ if has_mli = Some false then missing_mli ctx else []
  in
  let kept = List.filter (fun f -> not (suppressed sups f)) findings in
  List.sort
    (fun a b -> if a.line = b.line then compare a.rule b.rule else compare a.line b.line)
    (kept @ bad)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec collect_ml path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc name ->
        if name = "" || name.[0] = '.' || name.[0] = '_' then acc
        else collect_ml (Filename.concat path name) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort compare entries;
       entries)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* ----------------------------------- interprocedural analysis (ISSUE 8) *)

type report = {
  r_findings : finding list;
  r_files : int;  (* analyzed files (reference roots excluded) *)
  r_bindings : int;  (* total bindings in the symbol graph *)
}

(* Layers whose results the paper reports as bitwise-reproducible; a
   transitive clock/Random reach here breaks the --jobs invariance gates
   even when the source token sits in another directory. *)
let taint_dirs = [ "mrf"; "sim"; "core" ]

let par_combinators = [ "parallel_for"; "map_range"; "map_reduce" ]

let qname (b : Symbols.binding) = Symbols.qualified_name b

(* nondet-taint: only [Via] witnesses are reported — a direct source in
   the binding's own body is already a call-site finding of the surface
   rules, and reporting it twice would force double suppressions. *)
let taint_findings (eff : Effects.t) analyzed_paths =
  let repo = eff.Effects.repo in
  let out = ref [] in
  Array.iter
    (fun (b : Symbols.binding) ->
      let ctx = classify b.Symbols.b_file in
      let in_scope =
        Hashtbl.mem analyzed_paths b.Symbols.b_file
        && match ctx.lib_dir with
           | Some d -> List.mem d taint_dirs
           | None -> false
      in
      if in_scope then
        List.iter
          (fun e ->
            let s = Effects.summary eff b.Symbols.b_id in
            match List.assoc_opt e s.Effects.wit with
            | Some (Effects.Via _) ->
                let steps = Effects.chain eff b.Symbols.b_id e in
                let source_descr =
                  match List.rev steps with
                  | last :: _ -> last.c_name
                  | [] -> Effects.eff_name e
                in
                let hops = max 1 (List.length steps - 2) in
                out :=
                  {
                    file = b.Symbols.b_file;
                    line = b.Symbols.b_line;
                    rule = "nondet-taint";
                    message =
                      Printf.sprintf
                        "%s transitively reaches %s (%s, %d call%s deep); \
                         results must depend only on explicit seeds — \
                         break the chain or suppress at the source \
                         (netdiv lint --explain %s)"
                        (qname b) source_descr (Effects.eff_name e) hops
                        (if hops = 1 then "" else "s")
                        (qname b);
                    symbol = Some (qname b);
                    chain = steps;
                  }
                  :: !out
            | _ -> ())
          [ Effects.Clock; Effects.Random ])
    repo.Symbols.bindings;
  !out

(* impure-in-parallel-region: in the arguments of a Pool combinator
   call, any resolved callee whose summary carries Mutate or Spawn, plus
   direct mutations in inline closure bodies. *)
let region_findings ~barrier (eff : Effects.t) analyzed_paths =
  let repo = eff.Effects.repo in
  let out = ref [] in
  let is_combinator e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match List.rev (Longident.flatten txt) with
        | [ f ] | f :: ("Pool" | "Netdiv_par") :: _ ->
            List.mem f par_combinators
        | _ -> false)
    | _ -> false
  in
  let region (fs : Symbols.file_syms) (b : Symbols.binding) scope args =
    let seen = Hashtbl.create 8 in
    let callee (r : Symbols.reference) id =
      let cb = repo.Symbols.bindings.(id) in
      (* a non-function binding referenced in the region is a read of
         an already-evaluated value, not a call *)
      if (not (classify cb.Symbols.b_file).is_pool) && cb.Symbols.b_func then
        List.iter
          (fun (e, verb) ->
            if Effects.has eff id e && not (Hashtbl.mem seen (id, verb))
            then begin
              Hashtbl.replace seen (id, verb) ();
              out :=
                {
                  file = fs.Symbols.f_path;
                  line = r.Symbols.r_line;
                  rule = "impure-in-parallel-region";
                  message =
                    Printf.sprintf
                      "%s, passed into a parallel region, %s; chunk workers \
                       must only write their own slices (netdiv lint \
                       --explain %s)"
                      (qname cb) verb (qname cb);
                  symbol = Some (qname cb);
                  chain = Effects.chain eff id e;
                }
                :: !out
            end)
          [
            (Effects.Mutate, "mutates module-toplevel state");
            (Effects.Spawn, "spawns its own domain");
          ]
    in
    List.iter
      (fun (_, arg) ->
        List.iter
          (fun r -> List.iter (callee r) (Symbols.resolve repo fs r))
          (Symbols.references ~scope arg);
        List.iter
          (fun (s : Effects.source) ->
            if s.Effects.s_eff = Effects.Mutate then
              out :=
                {
                  file = fs.Symbols.f_path;
                  line = s.Effects.s_line;
                  rule = "impure-in-parallel-region";
                  message =
                    Printf.sprintf
                      "parallel-region closure %s; chunk workers must only \
                       write their own slices"
                      s.Effects.s_descr;
                  symbol = Some (qname b);
                  chain = [];
                }
                :: !out)
          (Effects.direct_sources ~barrier ~scope repo fs arg))
      args
  in
  Array.iter
    (fun (fs : Symbols.file_syms) ->
      if
        Hashtbl.mem analyzed_paths fs.Symbols.f_path
        && not (classify fs.Symbols.f_path).is_pool
      then
        Array.iter
          (fun (b : Symbols.binding) ->
            Option.iter
              (Symbols.walk (fun scope e ->
                   match e.pexp_desc with
                   | Pexp_apply (f, args) when is_combinator f ->
                       region fs b scope args
                   | _ -> ()))
              b.Symbols.b_body)
          fs.Symbols.f_bindings)
    repo.Symbols.files;
  !out

(* unused-export: an .mli-declared value with no reference from any other
   file.  Primary evidence is resolution-based (a reference in another
   file resolving to the backing binding); the fallback matches
   (last-module, name) pairs for references that resolve to nothing,
   which keeps misses of the resolver from producing false findings.
   Operator exports are skipped — a binding operator's use site
   ([let* x = ...]) is not an identifier the references record. *)
let unused_export_findings (repo : Symbols.repo) analyzed =
  let used_ids = Hashtbl.create 256 in
  let used_pairs = Hashtbl.create 256 in
  Array.iter
    (fun (fs : Symbols.file_syms) ->
      Array.iter
        (fun refs ->
          Array.iter
            (fun (r : Symbols.reference) ->
              match Symbols.resolve repo fs r with
              | [] -> (
                  match List.rev (Symbols.normalize_path fs r.Symbols.r_path) with
                  | last :: _ ->
                      Hashtbl.replace used_pairs (last, r.Symbols.r_name) ()
                  | [] ->
                      List.iter
                        (fun o ->
                          match List.rev (Symbols.normalize_path fs o) with
                          | last :: _ ->
                              Hashtbl.replace used_pairs
                                (last, r.Symbols.r_name) ()
                          | [] -> ())
                        fs.Symbols.f_opens)
              | ids ->
                  List.iter
                    (fun id ->
                      let b = repo.Symbols.bindings.(id) in
                      if b.Symbols.b_file <> fs.Symbols.f_path then
                        Hashtbl.replace used_ids id ())
                    ids)
            refs)
        fs.Symbols.f_refs)
    repo.Symbols.files;
  let out = ref [] in
  List.iter
    (fun (fs : Symbols.file_syms) ->
      let mli_path = fs.Symbols.f_path ^ "i" in
      List.iter
        (fun (v : Symbols.mli_val) ->
          if not v.Symbols.v_operator then begin
            let by_id =
              Array.exists
                (fun (b : Symbols.binding) ->
                  b.Symbols.b_name = v.Symbols.v_name
                  && b.Symbols.b_module = v.Symbols.v_module
                  && b.Symbols.b_id >= 0
                  && Hashtbl.mem used_ids b.Symbols.b_id)
                fs.Symbols.f_bindings
            in
            let by_pair =
              match List.rev v.Symbols.v_module with
              | last :: _ -> Hashtbl.mem used_pairs (last, v.Symbols.v_name)
              | [] -> false
            in
            if not (by_id || by_pair) then
              let q =
                String.concat "." (v.Symbols.v_module @ [ v.Symbols.v_name ])
              in
              out :=
                {
                  file = mli_path;
                  line = v.Symbols.v_line;
                  rule = "unused-export";
                  message =
                    Printf.sprintf
                      "%s is exported but never referenced outside its \
                       module; drop it from the interface or suppress \
                       with the reason it is public API"
                      q;
                  symbol = Some q;
                  chain = [];
                }
                :: !out
          end)
        fs.Symbols.f_mli)
    analyzed;
  !out

let compare_findings a b =
  compare
    (a.file, a.line, a.rule, a.message, a.symbol)
    (b.file, b.line, b.rule, b.message, b.symbol)

let analyze_sources ?(refs = []) files =
  let sup_tbl = Hashtbl.create 32 in
  let bad = ref [] in
  let parse parser ~path src =
    let tree, comments = Symbols.parse parser ~path src in
    let sups, b = parse_suppressions ~path comments in
    let prev = Option.value (Hashtbl.find_opt sup_tbl path) ~default:[] in
    Hashtbl.replace sup_tbl path (sups @ prev);
    bad := b @ !bad;
    tree
  in
  let parsed =
    List.map
      (fun (path, src, mli) ->
        let str = parse Parse.implementation ~path src in
        let mli = Option.map (parse Parse.interface ~path:(path ^ "i")) mli in
        (str, Symbols.of_structure ~path ?mli str, mli <> None))
      files
  in
  let analyzed = List.map (fun (_, fs, _) -> fs) parsed in
  let ref_syms =
    List.map (fun (path, src) -> Symbols.parse_file ~path src) refs
  in
  (* reference roots join the symbol graph (their uses resolve, keeping
     unused-export honest about test/bench consumers) but no rule scans
     them: [analyzed_paths] gates every reporting pass *)
  let repo = Symbols.build (analyzed @ ref_syms) in
  let analyzed_paths = Hashtbl.create 32 in
  List.iter
    (fun (fs : Symbols.file_syms) ->
      Hashtbl.replace analyzed_paths fs.Symbols.f_path ())
    analyzed;
  let barrier ~path ~line ~rule =
    match Hashtbl.find_opt sup_tbl path with
    | None -> false
    | Some sups -> suppressed sups (mk ~file:path ~line ~rule ~message:"")
  in
  let eff = Effects.analyze ~barrier repo in
  let surface =
    List.concat_map
      (fun (str, (fs : Symbols.file_syms), has_mli) ->
        let ctx = classify fs.Symbols.f_path in
        surface ctx fs str @ if has_mli then [] else missing_mli ctx)
      parsed
  in
  let inter =
    taint_findings eff analyzed_paths
    @ region_findings ~barrier eff analyzed_paths
    @ unused_export_findings repo analyzed
  in
  let kept =
    List.filter
      (fun f ->
        match Hashtbl.find_opt sup_tbl f.file with
        | None -> true
        | Some sups -> not (suppressed sups f))
      (surface @ inter)
  in
  {
    r_findings = List.sort_uniq compare_findings (kept @ !bad);
    r_files = List.length files;
    r_bindings = Array.length repo.Symbols.bindings;
  }

let default_ref_paths paths =
  match paths with
  | [] -> []
  | first :: _ ->
      let parent = Filename.dirname first in
      List.filter
        (fun p -> Sys.file_exists p && Sys.is_directory p)
        (List.map
           (Filename.concat parent)
           [ "test"; "bench"; "examples"; "tools"; "perfbench" ])

let analyze_paths ?(ref_paths = []) paths =
  let files =
    List.rev (List.fold_left (fun acc p -> collect_ml p acc) [] paths)
  in
  let load path =
    let mli =
      if Sys.file_exists (path ^ "i") then Some (read_file (path ^ "i"))
      else None
    in
    (path, read_file path, mli)
  in
  let refs =
    List.concat_map
      (fun root ->
        List.rev_map
          (fun p -> (p, read_file p))
          (collect_ml root []))
      ref_paths
  in
  analyze_sources ~refs (List.map load files)

let explain report sym =
  List.filter
    (fun f ->
      f.chain <> []
      &&
      match f.symbol with
      | Some s -> s = sym || String.ends_with ~suffix:("." ^ sym) s
      | None -> false)
    report.r_findings

(* ------------------------------------------------------- JSON output *)

module J = Netdiv_vuln.Json

let finding_to_json f =
  let base =
    [
      ("file", J.String f.file);
      ("line", J.Number (float_of_int f.line));
      ("rule", J.String f.rule);
      ("message", J.String f.message);
    ]
  in
  let sym = match f.symbol with Some s -> [ ("symbol", J.String s) ] | None -> [] in
  let chain =
    match f.chain with
    | [] -> []
    | steps ->
        [
          ( "chain",
            J.List
              (List.map
                 (fun s ->
                   J.Object
                     [
                       ("name", J.String s.c_name);
                       ("file", J.String s.c_file);
                       ("line", J.Number (float_of_int s.c_line));
                     ])
                 steps) );
        ]
  in
  J.Object (base @ sym @ chain)

let report_to_json report =
  J.to_string ~pretty:true
    (J.Object
       [
         ("version", J.Number 1.);
         ("files", J.Number (float_of_int report.r_files));
         ("bindings", J.Number (float_of_int report.r_bindings));
         ("findings", J.List (List.map finding_to_json report.r_findings));
       ])
  ^ "\n"
