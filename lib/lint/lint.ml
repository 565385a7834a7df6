(* netdiv-lint rule engine.  See lint.mli for the contract and DESIGN.md
   ("Concurrency discipline") for the rationale behind each rule. *)

type chain_step = { c_name : string; c_file : string; c_line : int }

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
       Mrf.incident inside a for/while body in hot solver and simulator \
       code (lib/mrf, lib/bayes, lib/sim), or a tuple/record built from \
       Mrf.Compact accessor results there; allocate scratch (including \
       message slabs) once outside the loop, walk the Mrf.Compact CSR \
       slice instead of incidence lists, and keep accessor reads in \
       scalar lets instead of re-boxing them" );
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
      "a function passed into Pool.parallel_for/map_range/map_reduce or \
       Team.run mutates module-toplevel state or spawns its own domain; \
       chunk workers must only write their own slices" );
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
  match ctx.lib_dir with Some ("mrf" | "bayes" | "sim") -> true | _ -> false

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
   the marker mid-prose, as this very comment does, is not a directive. *)
let parse_suppressions ~path (comments : Lexer.comment array) =
  let sups = ref [] and bad = ref [] in
  Array.iter
    (fun (c : Lexer.comment) ->
      (* strip the comment opener and leading whitespace *)
      let text = c.ctext in
      let i = ref 0 in
      let len = String.length text in
      if len >= 2 && String.sub text 0 2 = "(*" then i := 2;
      while !i < len && (text.[!i] = ' ' || text.[!i] = '\t' || text.[!i] = '\n')
      do
        incr i
      done;
      let plen = String.length directive_prefix in
      if !i + plen <= len && String.sub text !i plen = directive_prefix then begin
        let start = !i + plen in
        let body = String.sub text start (len - start) in
        (* drop the comment closer before parsing *)
        let body =
          if String.length body >= 2
             && String.sub body (String.length body - 2) 2 = "*)"
          then String.sub body 0 (String.length body - 2)
          else body
        in
        match parse_directive ~path ~line:c.cline body with
        | Ok (s_rule, s_file_wide) ->
            sups :=
              { s_rule; s_lo = c.cline; s_hi = c.cline_end + 1; s_file_wide }
              :: !sups
        | Error f -> bad := f :: !bad
      end)
    comments;
  (!sups, !bad)

let suppressed sups (f : finding) =
  List.exists
    (fun s ->
      s.s_rule = f.rule && (s.s_file_wide || (f.line >= s.s_lo && f.line <= s.s_hi)))
    sups

(* ------------------------------------------------------- token helpers *)

let tok (toks : Lexer.token array) i =
  if i >= 0 && i < Array.length toks then toks.(i).Lexer.text else ""

let seq2 toks i a b = tok toks i = a && tok toks (i + 1) = b

let seq3 toks i a b c = seq2 toks i a b && tok toks (i + 2) = c

(* --------------------------------------------------------- token rules *)

let finding ctx (t : Lexer.token) rule message =
  mk ~file:ctx.path ~line:t.Lexer.line ~rule ~message

(* Paren/brace frame for the boxed-construction extension of
   alloc-in-loop: each open [(] or [{] remembers whether it opened
   inside a loop, whether a [Compact] accessor is called inside it, and
   (for parens) whether it holds a top-level tuple comma.  A paren frame
   closing with both marks is a boxed tuple of accessor results; a brace
   frame closing with the Compact mark is a boxed record of them.  The
   Compact mark propagates outward on pop, so the accessor may sit
   inside a nested call's own parentheses. *)
type frame = {
  fr_tok : Lexer.token;
  fr_brace : bool;
  fr_in_loop : bool;
  mutable fr_compact : bool;
  mutable fr_comma : bool;
}

(* Single forward pass for the sequence-matching rules; [loop_depth]
   tracks for/while nesting for list-nth-in-loop. *)
let scan_tokens ctx (toks : Lexer.token array) =
  let out = ref [] in
  let add t rule msg = out := finding ctx t rule msg :: !out in
  let loop_depth = ref 0 in
  let frames = ref [] in
  let push t ~brace =
    frames :=
      { fr_tok = t; fr_brace = brace; fr_in_loop = !loop_depth > 0;
        fr_compact = false; fr_comma = false }
      :: !frames
  in
  let pop ~brace =
    match !frames with
    | f :: rest when f.fr_brace = brace ->
        frames := rest;
        if f.fr_compact then
          (match rest with parent :: _ -> parent.fr_compact <- true | [] -> ());
        Some f
    | _ -> None
  in
  let n = Array.length toks in
  for i = 0 to n - 1 do
    let t = toks.(i) in
    (match t.Lexer.text with
    | "for" | "while" -> incr loop_depth
    | "done" -> if !loop_depth > 0 then decr loop_depth
    | "(" -> push t ~brace:false
    | "{" -> push t ~brace:true
    | "," -> (
        match !frames with
        | f :: _ when not f.fr_brace -> f.fr_comma <- true
        | _ -> ())
    | "Compact" -> (
        if tok toks (i + 1) = "." then
          match !frames with f :: _ -> f.fr_compact <- true | [] -> ())
    | ")" -> (
        match pop ~brace:false with
        | Some f when hot_path ctx && f.fr_in_loop && f.fr_compact && f.fr_comma
          ->
            add f.fr_tok "alloc-in-loop"
              "tuple of Compact accessor results inside a loop body boxes \
               what the CSR layout keeps flat; keep the fields in scalar \
               lets"
        | _ -> ())
    | "}" -> (
        match pop ~brace:true with
        | Some f when hot_path ctx && f.fr_in_loop && f.fr_compact ->
            add f.fr_tok "alloc-in-loop"
              "record built from Compact accessor results inside a loop \
               body re-boxes the compact representation; keep the fields \
               in scalar lets"
        | _ -> ())
    | _ -> ());
    if (not ctx.is_pool) && seq3 toks i "Domain" "." "spawn" then
      add t "spawn-outside-pool"
        "Domain.spawn outside lib/par/pool.ml; use Netdiv_par.Pool \
         combinators instead";
    if solver_sim ctx then begin
      if seq3 toks i "Random" "." "self_init" then
        add t "nondeterminism-source"
          "Random.self_init makes results irreproducible; derive seeds \
           with Pool.split_seed";
      if seq3 toks i "Sys" "." "time" then
        add t "nondeterminism-source"
          "Sys.time in solver/sim code; wall-clock reads belong in the \
           anytime harness only";
      if seq3 toks i "Unix" "." "gettimeofday" then
        add t "nondeterminism-source"
          "Unix.gettimeofday in solver/sim code; wall-clock reads belong \
           in the anytime harness only"
    end;
    if instrumented_non_solver ctx then begin
      if seq3 toks i "Unix" "." "gettimeofday" then
        add t "direct-clock-in-instrumented-code"
          "direct Unix.gettimeofday in instrumented code; read the clock \
           through Netdiv_obs.Obs.Clock.now so spans and timings share \
           one time base";
      if seq3 toks i "Sys" "." "time" then
        add t "direct-clock-in-instrumented-code"
          "direct Sys.time in instrumented code; read the clock through \
           Netdiv_obs.Obs.Clock.now so spans and timings share one time \
           base"
    end;
    if
      !loop_depth > 0
      && seq2 toks i "List" "."
      && (tok toks (i + 2) = "nth" || tok toks (i + 2) = "nth_opt")
    then
      add t "list-nth-in-loop"
        "List.nth inside a loop is O(n) per access; index an array or \
         restructure the traversal";
    if
      hot_path ctx && !loop_depth > 0
      && seq2 toks i "Array" "."
      && not (seq2 toks (i - 2) "Float" ".")
      &&
      let f = tok toks (i + 2) in
      f = "make" || f = "init" || f = "copy"
    then
      add t "alloc-in-loop"
        (Printf.sprintf
           "Array.%s inside a loop body allocates per iteration; hoist a \
            scratch buffer out of the loop (the exact class fixed in \
            lib/mrf/bp.ml's message update)"
           (tok toks (i + 2)));
    if
      hot_path ctx && !loop_depth > 0
      && seq3 toks i "Float" "." "Array"
      && tok toks (i + 3) = "."
      &&
      let f = tok toks (i + 4) in
      f = "create" || f = "make" || f = "init" || f = "copy"
    then
      add t "alloc-in-loop"
        (Printf.sprintf
           "Float.Array.%s inside a loop body allocates an unboxed slab \
            per iteration; hoist it out of the sweep and reuse it"
           (tok toks (i + 4)));
    if hot_path ctx && !loop_depth > 0 && seq3 toks i "Mrf" "." "incident"
    then
      add t "alloc-in-loop"
        "Mrf.incident inside a loop body builds a fresh array of (edge, \
         i_is_u) tuples per call; walk the node's Mrf.Compact CSR slice \
         (i_inc_off, i_inc, i_col) instead";
    if ctx.in_lib then begin
      if seq3 toks i "Printf" "." "printf" || seq3 toks i "Format" "." "printf"
      then
        add t "printf-in-lib"
          "library code must not print to stdout; take a Format formatter \
           from the caller";
      (match t.Lexer.text with
      | "print_endline" | "print_string" | "print_newline" | "print_int"
      | "print_float" | "print_char" ->
          (* bare stdout printers; allow qualified uses of same-named
             functions from other modules, but not Stdlib's *)
          let prev = tok toks (i - 1) in
          if prev <> "." || tok toks (i - 2) = "Stdlib" then
            add t "printf-in-lib"
              "library code must not print to stdout; take a Format \
               formatter from the caller"
      | _ -> ())
    end
  done;
  !out

(* -------------------------------------------- swallowed exception rule *)

(* Exception handlers whose catch-all arm is exactly [_ -> ()]: the
   failure vanishes with no log line, no counter and no re-raise, which
   is how a fault-injection run silently passes.  Detection is
   token-shaped: a stack distinguishes the [with] of [try] from the
   [with] of [match] and of record updates [{ r with ... }]; once inside
   a try handler, the arm introduced by [with] itself or by a leading
   [|] is checked for the pattern [_] with body exactly [()].  A guarded
   arm ([_ when ...]) or a body that continues past [()] is deliberate
   handling and is not flagged. *)
let scan_swallowed ctx (toks : Lexer.token array) =
  let out = ref [] in
  let n = Array.length toks in
  let stack = ref [] in
  let in_handler = ref false in
  (* paren/bracket depth, and the depth at which the active handler's
     arms live: a closer that drops below it ends the handler, and a [|]
     at a deeper depth belongs to some nested construct *)
  let depth = ref 0 in
  let handler_depth = ref 0 in
  let swallow_arm i =
    (* [i] points at the candidate arm's pattern *)
    tok toks i = "_"
    && seq2 toks (i + 1) "-" ">"
    && seq2 toks (i + 3) "(" ")"
    && tok toks (i + 5) <> ";"
  in
  let flag t =
    out :=
      finding ctx t "swallowed-exception"
        "catch-all handler [_ -> ()] discards the exception and does \
         nothing; match the specific exception, record the failure, or \
         re-raise"
      :: !out
  in
  for i = 0 to n - 1 do
    let t = toks.(i) in
    match t.Lexer.text with
    | "try" ->
        stack := `Try :: !stack;
        in_handler := false
    | "match" ->
        stack := `Match :: !stack;
        in_handler := false
    | "{" -> stack := `Brace :: !stack
    | "}" -> ( match !stack with `Brace :: rest -> stack := rest | _ -> ())
    | "with" -> (
        match !stack with
        | `Try :: rest ->
            stack := rest;
            in_handler := true;
            handler_depth := !depth;
            if swallow_arm (i + 1) then flag t
        | `Match :: rest ->
            stack := rest;
            in_handler := false
        | `Brace :: _ | [] -> ())
    | "|" when !in_handler && !depth = !handler_depth ->
        if swallow_arm (i + 1) then flag t
    | "(" | "[" -> incr depth
    | ")" | "]" ->
        decr depth;
        if !depth < !handler_depth then in_handler := false
    | "fun" | "function" | "in" | "done" | "end" ->
        (* a nested binder or scope closer ends the run of arms we can
           safely attribute to the try handler *)
        in_handler := false
    | _ -> ()
  done;
  !out

(* ----------------------------------------- toplevel mutable state rule *)

let item_keywords =
  [ "let"; "and"; "module"; "type"; "open"; "include"; "exception";
    "external"; "val"; "class" ]

let lower_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
  && not (List.mem s item_keywords)

(* Detect module-toplevel [let name = <expr constructing mutable state>].
   Toplevel-ness is tracked with an indentation stack: items live at
   column 0, or at [col + 2] inside each enclosing [struct]/[sig] (the
   repository is ocamlformat-shaped, and the fixtures in test_lint pin
   this).  A mutable constructor occurring after the first [fun] or
   [function] token builds per-call state and is not flagged. *)
let scan_toplevel_mutable ctx (toks : Lexer.token array) =
  if not (parallel_reachable ctx) then []
  else begin
    let out = ref [] in
    let n = Array.length toks in
    (* stack of (item_col, close_col, open_line) for struct/sig scopes *)
    let stack = ref [ (0, -1, -1) ] in
    let item_col () = match !stack with (c, _, _) :: _ -> c | [] -> 0 in
    let last_item = ref "" in
    let i = ref 0 in
    while !i < n do
      let t = toks.(!i) in
      (match t.Lexer.text with
      | "struct" | "sig" ->
          stack := (item_col () + 2, item_col (), t.Lexer.line) :: !stack
      | "end" -> (
          match !stack with
          | (_, close_col, open_line) :: rest
            when rest <> []
                 && (t.Lexer.col = close_col || t.Lexer.line = open_line) ->
              stack := rest
          | _ -> ())
      | _ -> ());
      if t.Lexer.col = item_col () && List.mem t.Lexer.text item_keywords then begin
        if t.Lexer.text <> "and" then last_item := t.Lexer.text
      end;
      if
        t.Lexer.col = item_col ()
        && (t.Lexer.text = "let"
           || (t.Lexer.text = "and" && !last_item = "let"))
      then begin
        let j = ref (!i + 1) in
        if tok toks !j = "rec" then incr j;
        let name = tok toks !j in
        if lower_ident name then begin
          (* skip an optional [: type] annotation to reach [=] *)
          let k = ref (!j + 1) in
          if tok toks !k = ":" then begin
            while !k < n && tok toks !k <> "=" do incr k done
          end;
          if tok toks !k = "=" then begin
            (* simple value binding: scan the right-hand side *)
            let r = ref (!k + 1) in
            let fin = ref false and behind_fun = ref false in
            while (not !fin) && !r < n do
              let u = toks.(!r) in
              if
                u.Lexer.col <= item_col ()
                && (List.mem u.Lexer.text item_keywords
                   || u.Lexer.text = "end")
              then fin := true
              else begin
                (match u.Lexer.text with
                | "fun" | "function" -> behind_fun := true
                | _ -> ());
                if not !behind_fun then begin
                  if u.Lexer.text = "ref" then
                    out :=
                      finding ctx t "toplevel-mutable-state"
                        (Printf.sprintf
                           "toplevel binding %S holds a ref shared by every \
                            domain; make it per-call or suppress with a \
                            documented guard"
                           name)
                      :: !out
                  else if
                    seq3 toks !r "Hashtbl" "." "create"
                    || seq3 toks !r "Array" "." "make"
                  then
                    out :=
                      finding ctx t "toplevel-mutable-state"
                        (Printf.sprintf
                           "toplevel binding %S allocates shared mutable \
                            state (%s); make it per-call or suppress with \
                            a documented guard"
                           name
                           (tok toks !r ^ "." ^ tok toks (!r + 2)))
                      :: !out
                end;
                incr r
              end
            done;
            i := !r - 1
          end
        end
      end;
      incr i
    done;
    !out
  end

(* ------------------------------------------- float equality in kernels *)

(* Structural [=] (binders: [let x =], [type t =], record fields, optional
   argument defaults) must not be confused with the comparison operator.
   A small stack arms one binder [=] per [let]/[and]/[type]/... and per
   record field (re-armed at each [;] inside the brace), at the
   paren/brace depth where the keyword appeared; any other [=], and every
   [<>], is a comparison whose operands we test for float-ness.  Only
   literal or well-known float operands are flagged — an unannotated
   [a = b] stays silent, which keeps the rule precise at the cost of
   recall (ISSUE 8 asks for float {e expressions}, and in this codebase
   energies are compared against literals or [infinity]). *)
let scan_float_eq ctx (toks : Lexer.token array) =
  if ctx.lib_dir <> Some "mrf" then []
  else begin
    let out = ref [] in
    let n = Array.length toks in
    let depth = ref 0 in
    (* depths at which the next [=] is structural, not a comparison *)
    let binders = ref [] in
    (* depths of open record braces, for field re-arming at [;] *)
    let braces = ref [] in
    let arm () =
      match !binders with
      | d :: _ when d = !depth -> ()
      | _ -> binders := !depth :: !binders
    in
    let glued i = tok toks (i + 1) <> "" && toks.(i).Lexer.line = toks.(i + 1).Lexer.line
                  && toks.(i).Lexer.col + String.length toks.(i).Lexer.text
                     = toks.(i + 1).Lexer.col in
    let float_lit s =
      String.length s > 0
      && s.[0] >= '0' && s.[0] <= '9'
      && (String.contains s '.'
          || ((String.contains s 'e' || String.contains s 'E')
             && not (String.length s > 1 && (s.[1] = 'x' || s.[1] = 'X'))))
    in
    let float_operand i =
      let s = tok toks i in
      float_lit s
      || (List.mem s
            [ "infinity"; "neg_infinity"; "nan"; "epsilon_float";
              "max_float"; "min_float" ]
         && (tok toks (i - 1) <> "."
            || tok toks (i - 2) = "Float"
            || tok toks (i - 2) = "Stdlib"))
    in
    (* skip a unary minus in operand position: [x = -1.0] *)
    let operand_after i = if tok toks i = "-" then i + 1 else i in
    let flag t op =
      out :=
        finding ctx t "float-equality-in-kernel"
          (Printf.sprintf
             "float %s comparison in kernel code; exact equality on \
              computed energies is representation-dependent — use \
              Float.equal for intentional bitwise tests or an explicit \
              epsilon"
             op)
        :: !out
    in
    for i = 0 to n - 1 do
      let t = toks.(i) in
      match t.Lexer.text with
      | "let" | "and" | "type" | "external" | "module" | "method" | "for" ->
          arm ()
      | "(" | "[" ->
          incr depth;
          (* [?(arg = default)] arms a binder for the default's [=] *)
          if tok toks (i - 1) = "?" then arm ()
      | "{" ->
          incr depth;
          braces := !depth :: !braces;
          arm ()
      | ")" | "]" | "}" ->
          decr depth;
          binders := List.filter (fun d -> d <= !depth) !binders;
          braces := List.filter (fun d -> d <= !depth) !braces
      | ";" -> (
          (* a new record field re-arms the field [=] *)
          match !braces with
          | d :: _ when d = !depth -> arm ()
          | _ -> ())
      | "=" ->
          let operator_adjacent =
            (List.mem (tok toks (i - 1)) [ "<"; ">"; "!"; "="; ":" ]
            && glued (i - 1))
            || (tok toks (i + 1) = "=" && glued i)
          in
          if not operator_adjacent then begin
            let structural =
              match !binders with
              | d :: rest when d = !depth ->
                  binders := rest;
                  true
              | _ -> false
            in
            if (not structural)
               && (float_operand (i - 1) || float_operand (operand_after (i + 1)))
            then flag t "="
          end
      | "<" when tok toks (i + 1) = ">" && glued i ->
          if float_operand (i - 1) || float_operand (operand_after (i + 2))
          then flag t "<>"
      | _ -> ()
    done;
    !out
  end

(* -------------------------------------------------------------- driver *)

let lint_source ~path ?has_mli src =
  let ctx = classify path in
  let lx = Lexer.tokenize src in
  let sups, bad = parse_suppressions ~path lx.Lexer.comments in
  let token_findings =
    scan_tokens ctx lx.Lexer.tokens
    @ scan_swallowed ctx lx.Lexer.tokens
    @ scan_toplevel_mutable ctx lx.Lexer.tokens
    @ scan_float_eq ctx lx.Lexer.tokens
  in
  let mli_findings =
    match has_mli with
    | Some false
      when ctx.in_lib
           && Filename.check_suffix path ".ml"
           && not (Filename.check_suffix path ".pp.ml") ->
        [ mk ~file:path ~line:1 ~rule:"missing-mli"
            ~message:
              "library module has no .mli; state the exported surface \
               (add an interface file)" ]
    | _ -> []
  in
  let kept =
    List.filter (fun f -> not (suppressed sups f)) (token_findings @ mli_findings)
  in
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

let import_chain steps =
  List.map
    (fun (s : Effects.chain_step) ->
      { c_name = s.Effects.c_name; c_file = s.Effects.c_file;
        c_line = s.Effects.c_line })
    steps

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
                let steps = import_chain (Effects.chain eff b.Symbols.b_id e) in
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

(* impure-in-parallel-region: inside the argument extent of a Pool
   combinator or [Team.run], any resolved callee whose summary carries
   Mutate or Spawn, plus direct mutations in inline closure bodies. *)
let region_findings ~barrier (eff : Effects.t) analyzed_paths =
  let repo = eff.Effects.repo in
  let out = ref [] in
  Array.iter
    (fun (fs : Symbols.file_syms) ->
      let ctx = classify fs.Symbols.f_path in
      if Hashtbl.mem analyzed_paths fs.Symbols.f_path && not ctx.is_pool then begin
        let toks = fs.Symbols.f_lex.Lexer.tokens in
        let tk i = tok toks i in
        Array.iteri
          (fun bi (b : Symbols.binding) ->
            let hi = b.Symbols.b_hi in
            for i = b.Symbols.b_lo to hi - 1 do
              let is_comb =
                (List.mem (tk i) par_combinators
                && (tk (i - 1) <> "."
                   || tk (i - 2) = "Pool"
                   || tk (i - 2) = "Netdiv_par"))
                || (tk i = "run" && tk (i - 1) = "." && tk (i - 2) = "Team")
              in
              if is_comb then begin
                (* argument extent: to the call's end at depth 0 *)
                let d = ref 0 and j = ref (i + 1) and stop = ref false in
                while (not !stop) && !j < hi do
                  (match tk !j with
                  | "(" | "[" -> incr d
                  | ")" | "]" ->
                      decr d;
                      if !d < 0 then stop := true
                  | ";" | "in" when !d = 0 -> stop := true
                  | _ -> ());
                  if not !stop then incr j
                done;
                let rhi = !j in
                let seen = Hashtbl.create 8 in
                Array.iter
                  (fun (r : Symbols.reference) ->
                    if r.Symbols.r_tok > i && r.Symbols.r_tok < rhi then
                      List.iter
                        (fun id ->
                          let cb = repo.Symbols.bindings.(id) in
                          let cctx = classify cb.Symbols.b_file in
                          (* a non-function binding referenced in the
                             region is a read of an already-evaluated
                             value, not a call *)
                          if (not cctx.is_pool) && cb.Symbols.b_func then
                            List.iter
                              (fun (e, verb) ->
                                if
                                  Effects.has eff id e
                                  && not (Hashtbl.mem seen (id, verb))
                                then begin
                                  Hashtbl.replace seen (id, verb) ();
                                  let steps =
                                    import_chain (Effects.chain eff id e)
                                  in
                                  out :=
                                    {
                                      file = fs.Symbols.f_path;
                                      line = r.Symbols.r_line;
                                      rule = "impure-in-parallel-region";
                                      message =
                                        Printf.sprintf
                                          "%s, passed into a parallel \
                                           region, %s; chunk workers must \
                                           only write their own slices \
                                           (netdiv lint --explain %s)"
                                          (qname cb) verb (qname cb);
                                      symbol = Some (qname cb);
                                      chain = steps;
                                    }
                                    :: !out
                                end)
                              [
                                (Effects.Mutate,
                                 "mutates module-toplevel state");
                                (Effects.Spawn, "spawns its own domain");
                              ])
                        (Symbols.resolve repo fs r))
                  fs.Symbols.f_refs.(bi);
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
                              "parallel-region closure %s; chunk workers \
                               must only write their own slices"
                              s.Effects.s_descr;
                          symbol = Some (qname b);
                          chain = [];
                        }
                        :: !out)
                  (Effects.direct_sources ~barrier fs b ~lo:(i + 1) ~hi:rhi
                     repo)
              end
            done)
          fs.Symbols.f_bindings
      end)
    repo.Symbols.files;
  !out

(* unused-export: an .mli-declared value with no reference from any other
   file.  Primary evidence is resolution-based (a reference in another
   file resolving to the backing binding); the fallback matches
   (last-module, name) pairs for references that resolve to nothing,
   which keeps misses of the resolver from producing false findings.
   Operator exports are skipped — their use sites are bare symbols the
   reference scanner cannot attribute. *)
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
  let note_sups path (lx : Lexer.t) =
    let sups, b = parse_suppressions ~path lx.Lexer.comments in
    let prev = Option.value (Hashtbl.find_opt sup_tbl path) ~default:[] in
    Hashtbl.replace sup_tbl path (sups @ prev);
    bad := b @ !bad
  in
  let lexed =
    List.map
      (fun (path, src, mli) ->
        let lx = Lexer.tokenize src in
        note_sups path lx;
        let mli_lex =
          Option.map
            (fun m ->
              let mlx = Lexer.tokenize m in
              note_sups (path ^ "i") mlx;
              mlx)
            mli
        in
        (path, lx, mli_lex, mli <> None))
      files
  in
  let analyzed =
    List.map
      (fun (path, lx, mli_lex, _) -> Symbols.parse_lexed ~path lx ?mli:mli_lex ())
      lexed
  in
  let ref_syms = List.map (fun (path, src) -> Symbols.parse_file ~path src) refs in
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
    | Some sups ->
        List.exists
          (fun s ->
            s.s_rule = rule
            && (s.s_file_wide || (line >= s.s_lo && line <= s.s_hi)))
          sups
  in
  let eff = Effects.analyze ~barrier repo in
  let surface =
    List.concat_map
      (fun (path, lx, _, has_mli) ->
        let ctx = classify path in
        let token_findings =
          scan_tokens ctx lx.Lexer.tokens
          @ scan_swallowed ctx lx.Lexer.tokens
          @ scan_toplevel_mutable ctx lx.Lexer.tokens
          @ scan_float_eq ctx lx.Lexer.tokens
        in
        let mli_findings =
          if
            (not has_mli) && ctx.in_lib
            && Filename.check_suffix path ".ml"
            && not (Filename.check_suffix path ".pp.ml")
          then
            [ mk ~file:path ~line:1 ~rule:"missing-mli"
                ~message:
                  "library module has no .mli; state the exported surface \
                   (add an interface file)" ]
          else []
        in
        token_findings @ mli_findings)
      lexed
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

(* ------------------------------------------------- JSON and baselines *)

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

let report_to_json ?(fresh = []) ?(baselined = 0) ?(stale = []) report =
  J.to_string ~pretty:true
    (J.Object
       [
         ("version", J.Number 1.);
         ("files", J.Number (float_of_int report.r_files));
         ("bindings", J.Number (float_of_int report.r_bindings));
         ("findings", J.List (List.map finding_to_json fresh));
         ("baselined", J.Number (float_of_int baselined));
         ("stale_baseline", J.List (List.map (fun s -> J.String s) stale));
       ])
  ^ "\n"

type baseline_entry = {
  e_file : string;
  e_rule : string;
  e_symbol : string option;
  e_line : int option;
  e_reason : string;
}

let baseline_of_string text =
  match J.parse text with
  | Error msg -> Error ("baseline is not valid JSON: " ^ msg)
  | Ok j -> (
      match Option.bind (J.member "findings" j) J.to_list with
      | None -> Error "baseline must be an object with a \"findings\" list"
      | Some entries ->
          let parse_entry i e =
            let str k = Option.bind (J.member k e) J.to_str in
            let num k = Option.bind (J.member k e) J.to_float in
            match (str "file", str "rule", str "reason") with
            | Some e_file, Some e_rule, Some e_reason
              when is_reason_text e_reason ->
                Ok
                  {
                    e_file;
                    e_rule;
                    e_symbol = str "symbol";
                    e_line = Option.map int_of_float (num "line");
                    e_reason;
                  }
            | Some _, Some _, _ ->
                Error
                  (Printf.sprintf
                     "baseline entry %d has no written reason; every \
                      accepted finding must say why it is acceptable"
                     i)
            | _ ->
                Error
                  (Printf.sprintf
                     "baseline entry %d needs string fields \"file\", \
                      \"rule\" and \"reason\""
                     i)
          in
          let rec go i acc = function
            | [] -> Ok (List.rev acc)
            | e :: rest -> (
                match parse_entry i e with
                | Ok entry -> go (i + 1) (entry :: acc) rest
                | Error _ as err -> err)
          in
          go 0 [] entries)

let baseline_matches entry f =
  entry.e_file = f.file
  && entry.e_rule = f.rule
  && (match entry.e_symbol with
     | Some s -> f.symbol = Some s
     | None -> true)
  && match entry.e_line with Some l -> l = f.line | None -> true

(* Returns (fresh findings, baselined count, stale entries).  A stale
   entry — one matching no current finding — is reported so the baseline
   shrinks as violations are fixed instead of fossilizing. *)
let apply_baseline entries findings =
  let hit = Array.make (List.length entries) false in
  let fresh =
    List.filter
      (fun f ->
        let matched = ref false in
        List.iteri
          (fun i e ->
            if baseline_matches e f then begin
              hit.(i) <- true;
              matched := true
            end)
          entries;
        not !matched)
      findings
  in
  let stale =
    List.filteri (fun i _ -> not hit.(i)) entries
    |> List.map (fun e ->
           Printf.sprintf "%s [%s]%s" e.e_file e.e_rule
             (match e.e_symbol with Some s -> " " ^ s | None -> ""))
  in
  (fresh, List.length findings - List.length fresh, stale)

let baseline_template findings =
  J.to_string ~pretty:true
    (J.Object
       [
         ("version", J.Number 1.);
         ( "findings",
           J.List
             (List.map
                (fun f ->
                  let sym =
                    match f.symbol with
                    | Some s -> [ ("symbol", J.String s) ]
                    | None -> [ ("line", J.Number (float_of_int f.line)) ]
                  in
                  J.Object
                    ([ ("file", J.String f.file); ("rule", J.String f.rule) ]
                    @ sym
                    @ [ ("reason", J.String "TODO: justify or fix") ]))
                findings) );
       ])
  ^ "\n"
