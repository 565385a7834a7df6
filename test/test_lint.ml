(* Tests for netdiv-lint: per-rule fixtures (positive match, negative
   near-miss, suppressed match), suppression parsing, lexer blind spots,
   and the self-check that the repository's own lib/ and bin/ lint clean. *)

module Lint = Netdiv_lint.Lint

let rules_of findings = List.map (fun f -> f.Lint.rule) findings

let lint ?has_mli path src = Lint.lint_source ~path ?has_mli src

let check_rules msg expected findings =
  Alcotest.(check (list string)) msg expected (rules_of findings)

(* ------------------------------------------------- spawn-outside-pool *)

let test_spawn_outside_pool () =
  check_rules "positive: spawn in sim code"
    [ "spawn-outside-pool" ]
    (lint "lib/sim/engine.ml" "let go f = Domain.spawn f\n");
  check_rules "positive: spawn in bin"
    [ "spawn-outside-pool" ]
    (lint "bin/netdiv.ml" "let go f = Domain.spawn f\n");
  check_rules "near-miss: pool.ml is the sanctioned caller" []
    (lint "lib/par/pool.ml" "let go f = Domain.spawn f\n");
  check_rules "near-miss: join is not spawn" []
    (lint "lib/sim/engine.ml" "let wait d = Domain.join d\n");
  check_rules "suppressed" []
    (lint "lib/sim/engine.ml"
       "(* netdiv-lint: allow spawn-outside-pool — fixture justification *)\n\
        let go f = Domain.spawn f\n")

(* --------------------------------------------- toplevel-mutable-state *)

let test_toplevel_mutable_state () =
  check_rules "positive: toplevel Hashtbl"
    [ "toplevel-mutable-state" ]
    (lint "lib/mrf/cache.ml" "let cache = Hashtbl.create 16\n");
  check_rules "positive: toplevel ref"
    [ "toplevel-mutable-state" ]
    (lint "lib/core/state.ml" "let counter = ref 0\n");
  check_rules "positive: toplevel Array.make"
    [ "toplevel-mutable-state" ]
    (lint "lib/sim/buf.ml" "let scratch = Array.make 64 0.0\n");
  check_rules "positive: annotated binding"
    [ "toplevel-mutable-state" ]
    (lint "lib/par/tbl.ml"
       "let table : (int, int) Hashtbl.t = Hashtbl.create 8\n");
  check_rules "positive: inside a module struct"
    [ "toplevel-mutable-state" ]
    (lint "lib/core/m.ml"
       "module Cache = struct\n  let t = Hashtbl.create 8\nend\n");
  check_rules "near-miss: function-local state" []
    (lint "lib/mrf/f.ml"
       "let solve n =\n  let tbl = Hashtbl.create n in\n  Hashtbl.length tbl\n");
  check_rules "near-miss: closure builds per-call state" []
    (lint "lib/mrf/g.ml" "let fresh = fun () -> ref 0\n");
  check_rules "near-miss: function binding with parameters" []
    (lint "lib/sim/h.ml" "let make n = Array.make n 0\n");
  check_rules "near-miss: library outside the parallel-reachable set" []
    (lint "lib/vuln/w.ml" "let cache = Hashtbl.create 16\n");
  check_rules "suppressed" []
    (lint "lib/core/enc.ml"
       "(* netdiv-lint: allow toplevel-mutable-state — fixture guard *)\n\
        let table = Hashtbl.create 8\n")

(* ----------------------------------------------- nondeterminism-source *)

let test_nondeterminism_source () =
  check_rules "positive: gettimeofday in solver"
    [ "nondeterminism-source" ]
    (lint "lib/mrf/s.ml" "let now () = Unix.gettimeofday ()\n");
  check_rules "positive: self_init in sim"
    [ "nondeterminism-source" ]
    (lint "lib/sim/r.ml" "let seed () = Random.self_init ()\n");
  check_rules "positive: Sys.time in par"
    [ "nondeterminism-source" ]
    (lint "lib/par/t.ml" "let t () = Sys.time ()\n");
  check_rules "near-miss: outside solver/sim scope" []
    (lint "lib/vuln/feed.ml" "let now () = Unix.gettimeofday ()\n");
  check_rules "near-miss: seeded Random is fine" []
    (lint "lib/sim/r.ml" "let draw st = Random.State.int st 10\n");
  check_rules "suppressed (line)" []
    (lint "lib/mrf/s.ml"
       "(* netdiv-lint: allow nondeterminism-source — fixture timing *)\n\
        let now () = Unix.gettimeofday ()\n");
  check_rules "suppressed (file-wide)" []
    (lint "lib/mrf/s.ml"
       "(* netdiv-lint: allow-file nondeterminism-source — fixture-wide \
        reason *)\n\
        let a () = Unix.gettimeofday ()\n\n\
        let b () = Sys.time ()\n")

(* ----------------------------------- direct-clock-in-instrumented-code *)

let test_direct_clock () =
  check_rules "positive: gettimeofday in the optimizer pipeline"
    [ "direct-clock-in-instrumented-code" ]
    (lint "lib/core/optimize.ml" "let now () = Unix.gettimeofday ()\n");
  check_rules "positive: gettimeofday in the obs library itself"
    [ "direct-clock-in-instrumented-code" ]
    (lint "lib/obs/obs.ml" "let now () = Unix.gettimeofday ()\n");
  check_rules "positive: Sys.time in bin"
    [ "direct-clock-in-instrumented-code" ]
    (lint "bin/netdiv.ml" "let t () = Sys.time ()\n");
  check_rules "near-miss: solver scope reports nondeterminism-source \
               instead (rules are disjoint)"
    [ "nondeterminism-source" ]
    (lint "lib/mrf/s.ml" "let now () = Unix.gettimeofday ()\n");
  check_rules "near-miss: uninstrumented library" []
    (lint "lib/vuln/feed.ml" "let now () = Unix.gettimeofday ()\n");
  check_rules "suppressed (the clock shim carries this exact comment)" []
    (lint "lib/obs/obs.ml"
       "(* netdiv-lint: allow direct-clock-in-instrumented-code — fixture \
        shim justification *)\n\
        let now () = Unix.gettimeofday ()\n")

(* --------------------------------------------------- list-nth-in-loop *)

let test_list_nth_in_loop () =
  check_rules "positive: nth inside for"
    [ "list-nth-in-loop" ]
    (lint "lib/sim/e.ml"
       "let f xs =\n\
       \  for i = 0 to 3 do\n\
       \    ignore (List.nth xs i)\n\
       \  done\n");
  check_rules "positive: nth_opt inside while"
    [ "list-nth-in-loop" ]
    (lint "lib/graph/g.ml"
       "let f xs =\n\
       \  while !going do\n\
       \    ignore (List.nth_opt xs 0)\n\
       \  done\n");
  check_rules "near-miss: nth outside any loop" []
    (lint "lib/sim/e.ml" "let second xs = List.nth xs 1\n");
  check_rules "near-miss: loop without nth" []
    (lint "lib/sim/e.ml"
       "let f xs =\n\
       \  for _ = 0 to 3 do\n\
       \    ignore (List.length xs)\n\
       \  done\n");
  check_rules "suppressed" []
    (lint "lib/sim/e.ml"
       "let f xs =\n\
       \  for i = 0 to 3 do\n\
       \    (* netdiv-lint: allow list-nth-in-loop — fixture, list of 2 *)\n\
       \    ignore (List.nth xs i)\n\
       \  done\n")

(* ------------------------------------------------------ alloc-in-loop *)

let test_alloc_in_loop () =
  check_rules "positive: Array.make inside for in mrf"
    [ "alloc-in-loop" ]
    (lint "lib/mrf/kernel.ml"
       "let f n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (Array.make 4 0.0)\n\
       \  done\n");
  check_rules "positive: Array.copy inside while in bayes"
    [ "alloc-in-loop" ]
    (lint "lib/bayes/bn.ml"
       "let f xs =\n\
       \  while !going do\n\
       \    ignore (Array.copy xs)\n\
       \  done\n");
  check_rules "positive: Array.init inside for"
    [ "alloc-in-loop" ]
    (lint "lib/mrf/trws.ml"
       "let f n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (Array.init 4 Fun.id)\n\
       \  done\n");
  check_rules "positive: Float.Array.create inside for (one finding)"
    [ "alloc-in-loop" ]
    (lint "lib/mrf/trws.ml"
       "let f n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (Float.Array.create 4)\n\
       \  done\n");
  check_rules "positive: Float.Array.make inside while"
    [ "alloc-in-loop" ]
    (lint "lib/mrf/kernel.ml"
       "let f n =\n\
       \  while !going do\n\
       \    ignore (Float.Array.make n 0.0)\n\
       \  done\n");
  check_rules "near-miss: allocation before the loop" []
    (lint "lib/mrf/kernel.ml"
       "let f n =\n\
       \  let scratch = Array.make 4 0.0 in\n\
       \  for i = 0 to n - 1 do\n\
       \    scratch.(0) <- float_of_int i\n\
       \  done\n");
  check_rules "near-miss: slab allocated before the sweep" []
    (lint "lib/mrf/trws.ml"
       "let f n =\n\
       \  let slab = Float.Array.create n in\n\
       \  for i = 0 to n - 1 do\n\
       \    Float.Array.set slab i 0.0\n\
       \  done\n");
  check_rules "positive: Array.make inside for in sim"
    [ "alloc-in-loop" ]
    (lint "lib/sim/engine.ml"
       "let f n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (Array.make 4 0)\n\
       \  done\n");
  check_rules "near-miss: hot dirs only (lib/graph is exempt)" []
    (lint "lib/graph/gen.ml"
       "let f n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (Array.make 4 0.0)\n\
       \  done\n");
  check_rules "near-miss: Array.length allocates nothing" []
    (lint "lib/mrf/kernel.ml"
       "let f xs n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (Array.length xs)\n\
       \  done\n");
  check_rules "positive: Mrf.incident inside for"
    [ "alloc-in-loop" ]
    (lint "lib/mrf/exact.ml"
       "let f t n =\n\
       \  for i = 0 to n - 1 do\n\
       \    Array.iter visit (Mrf.incident t i)\n\
       \  done\n");
  check_rules "near-miss: Mrf.incident outside any loop" []
    (lint "lib/mrf/exact.ml"
       "let degree t i = Array.length (Mrf.incident t i)\n");
  check_rules "suppressed" []
    (lint "lib/mrf/kernel.ml"
       "let f n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    (* netdiv-lint: allow alloc-in-loop — fixture, cold setup loop *)\n\
       \    ignore (Array.make 4 0.0)\n\
       \  done\n")

(* Boxed-construction extension: tuples/records packed from Mrf.Compact
   accessor results inside sweep loops re-box what the CSR layout keeps
   flat. *)
let test_compact_boxing_in_loop () =
  check_rules "positive: tuple of accessor results inside for"
    [ "alloc-in-loop" ]
    (lint "lib/mrf/trws.ml"
       "let f t k n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (Mrf.Compact.neighbor t k, Mrf.Compact.edge t k)\n\
       \  done\n");
  check_rules "positive: record built from accessors inside while"
    [ "alloc-in-loop" ]
    (lint "lib/mrf/kernel.ml"
       "let f t k =\n\
       \  while !going do\n\
       \    ignore { nb = Compact.neighbor t k; e = Compact.edge t k }\n\
       \  done\n");
  check_rules "positive: accessor nested in a call inside the tuple"
    [ "alloc-in-loop" ]
    (lint "lib/mrf/trws.ml"
       "let f t k n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (decode (Mrf.Compact.edge t k), k)\n\
       \  done\n");
  check_rules "near-miss: scalar lets do not box" []
    (lint "lib/mrf/trws.ml"
       "let f t k n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    let j = Mrf.Compact.neighbor t k in\n\
       \    let e = Mrf.Compact.edge t k in\n\
       \    visit j e\n\
       \  done\n");
  check_rules "near-miss: tuple without accessor results" []
    (lint "lib/mrf/trws.ml"
       "let f a b n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (a, b)\n\
       \  done\n");
  check_rules "near-miss: tuple of accessors outside any loop" []
    (lint "lib/mrf/trws.ml"
       "let f t k = (Mrf.Compact.neighbor t k, Mrf.Compact.edge t k)\n");
  check_rules "near-miss: hot dirs only (lib/graph is exempt)" []
    (lint "lib/graph/cut.ml"
       "let f t k n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    ignore (Mrf.Compact.neighbor t k, Mrf.Compact.edge t k)\n\
       \  done\n");
  check_rules "suppressed" []
    (lint "lib/mrf/trws.ml"
       "let f t k n =\n\
       \  for _ = 0 to n - 1 do\n\
       \    (* netdiv-lint: allow alloc-in-loop — fixture, cold decode loop *)\n\
       \    ignore (Mrf.Compact.neighbor t k, Mrf.Compact.edge t k)\n\
       \  done\n")

(* -------------------------------------------------------- missing-mli *)

let test_missing_mli () =
  check_rules "positive: lib module without mli"
    [ "missing-mli" ]
    (lint ~has_mli:false "lib/sim/new_module.ml" "let x = 1\n");
  check_rules "near-miss: mli present" []
    (lint ~has_mli:true "lib/sim/new_module.ml" "let x = 1\n");
  check_rules "near-miss: binaries need no mli" []
    (lint ~has_mli:false "bin/netdiv.ml" "let x = 1\n");
  check_rules "near-miss: unknown siblings skip the rule" []
    (lint "lib/sim/new_module.ml" "let x = 1\n");
  check_rules "suppressed" []
    (lint ~has_mli:false "lib/sim/new_module.ml"
       "(* netdiv-lint: allow missing-mli — fixture scaffolding module *)\n\
        let x = 1\n")

(* ------------------------------------------------------ printf-in-lib *)

let test_printf_in_lib () =
  check_rules "positive: Printf.printf in lib"
    [ "printf-in-lib" ]
    (lint "lib/metrics/m.ml" "let show x = Printf.printf \"%d\" x\n");
  check_rules "positive: bare print_endline"
    [ "printf-in-lib" ]
    (lint "lib/graph/d.ml" "let log s = print_endline s\n");
  check_rules "positive: Stdlib-qualified printer"
    [ "printf-in-lib" ]
    (lint "lib/graph/d.ml" "let log s = Stdlib.print_endline s\n");
  check_rules "near-miss: bin may print" []
    (lint "bin/netdiv.ml" "let show x = Printf.printf \"%d\" x\n");
  check_rules "near-miss: sprintf allocates, never prints" []
    (lint "lib/metrics/m.ml" "let s x = Printf.sprintf \"%d\" x\n");
  check_rules "near-miss: another module's print_endline" []
    (lint "lib/metrics/m.ml" "let log s = My_sink.print_endline s\n");
  check_rules "suppressed" []
    (lint "lib/metrics/m.ml"
       "(* netdiv-lint: allow printf-in-lib — fixture debug aid *)\n\
        let show x = Printf.printf \"%d\" x\n")

(* ------------------------------------------------ swallowed-exception *)

let test_swallowed_exception () =
  check_rules "positive: try ... with _ -> ()"
    [ "swallowed-exception" ]
    (lint "lib/sim/e.ml" "let f g = try g () with _ -> ()\n");
  check_rules "positive: leading bar form"
    [ "swallowed-exception" ]
    (lint "lib/sim/e.ml" "let f g = try g () with | _ -> ()\n");
  check_rules "positive: catch-all arm after a specific one"
    [ "swallowed-exception" ]
    (lint "lib/sim/e.ml"
       "let f g = try g () with Not_found -> () | _ -> ()\n");
  check_rules "positive: applies outside lib too"
    [ "swallowed-exception" ]
    (lint "bin/netdiv.ml" "let f g = try g () with _ -> ()\n");
  check_rules "near-miss: specific exception discarded deliberately" []
    (lint "lib/sim/e.ml" "let f g = try g () with Not_found -> ()\n");
  check_rules "near-miss: catch-all that re-raises" []
    (lint "lib/sim/e.ml" "let f g = try g () with e -> raise e\n");
  check_rules "near-miss: guarded catch-all" []
    (lint "lib/sim/e.ml"
       "let f g = try g () with _ when quiet -> () | e -> raise e\n");
  check_rules "near-miss: body continues past unit" []
    (lint "lib/sim/e.ml"
       "let f g = try g () with _ -> (); Log.warn \"failed\"\n");
  check_rules "near-miss: match catch-all is not an exception handler" []
    (lint "lib/sim/e.ml" "let f x = match x with Some () -> () | _ -> ()\n");
  check_rules "near-miss: record update with is not a handler" []
    (lint "lib/sim/e.ml" "let f r = { r with x = () }\n");
  check_rules "near-miss: match nested in a try body keeps its arms" []
    (lint "lib/sim/e.ml"
       "let f g x = try (match g x with Some () -> () | _ -> ()) with\n\
       \  | Not_found -> raise Exit\n");
  check_rules "suppressed" []
    (lint "lib/sim/e.ml"
       "(* netdiv-lint: allow swallowed-exception — fixture, best-effort \
        cleanup *)\n\
        let f g = try g () with _ -> ()\n")

(* ---------------------------------------------------- bad-suppression *)

let test_bad_suppression () =
  check_rules "positive: missing reason"
    [ "bad-suppression" ]
    (lint "lib/sim/e.ml" "(* netdiv-lint: allow printf-in-lib *)\nlet x = 1\n");
  check_rules "positive: dash alone is not a reason"
    [ "bad-suppression" ]
    (lint "lib/sim/e.ml"
       "(* netdiv-lint: allow printf-in-lib — *)\nlet x = 1\n");
  check_rules "positive: unknown rule id"
    [ "bad-suppression" ]
    (lint "lib/sim/e.ml"
       "(* netdiv-lint: allow no-such-rule — reason here *)\nlet x = 1\n");
  check_rules "positive: unknown directive verb"
    [ "bad-suppression" ]
    (lint "lib/sim/e.ml"
       "(* netdiv-lint: allowing printf-in-lib — reason *)\nlet x = 1\n");
  check_rules "near-miss: prose mentioning the marker mid-comment" []
    (lint "lib/sim/e.ml"
       "(* suppressions are written as netdiv-lint: allow <rule>. *)\n\
        let x = 1\n");
  check_rules "near-miss: well-formed suppression raises nothing" []
    (lint "lib/sim/e.ml"
       "(* netdiv-lint: allow printf-in-lib — a documented reason *)\n\
        let x = 1\n")

(* ---------------------------------------------------- lexer blind spots *)

let test_lexer_blind_spots () =
  check_rules "patterns inside string literals do not match" []
    (lint "lib/sim/e.ml" "let s = \"Domain.spawn Unix.gettimeofday\"\n");
  check_rules "patterns inside comments do not match" []
    (lint "lib/sim/e.ml" "(* Domain.spawn would be bad here *)\nlet x = 1\n");
  check_rules "patterns inside nested comments do not match" []
    (lint "lib/sim/e.ml"
       "(* outer (* Domain.spawn *) still comment *)\nlet x = 1\n");
  check_rules "quoted strings are opaque" []
    (lint "lib/sim/e.ml" "let s = {|Domain.spawn|}\n");
  (* a string ending in a quote inside a comment must not derail lexing *)
  check_rules "comment containing a string with a closer"
    [ "spawn-outside-pool" ]
    (lint "lib/sim/e.ml"
       "(* tricky \"*)\" still a comment *)\nlet go f = Domain.spawn f\n");
  (* char literals: the quote must not open a string-like region *)
  check_rules "char literals lex cleanly"
    [ "spawn-outside-pool" ]
    (lint "lib/sim/e.ml"
       "let c = 'x'\nlet d = '\\n'\nlet go f = Domain.spawn f\n")

(* ------------------------------------------------- multiple findings *)

let test_ordering_and_pp () =
  let findings =
    lint "lib/sim/e.ml"
      "let go f = Domain.spawn f\n\nlet now () = Unix.gettimeofday ()\n"
  in
  check_rules "two findings, line order"
    [ "spawn-outside-pool"; "nondeterminism-source" ]
    findings;
  match findings with
  | first :: _ ->
      Alcotest.(check string)
        "pp format" "lib/sim/e.ml:1"
        (let s = Format.asprintf "%a" Lint.pp_finding first in
         String.sub s 0 (String.index s ':' + 2))
  | [] -> Alcotest.fail "expected findings"

(* ------------------------------------------------------ symbol tables *)

module Symbols = Netdiv_lint.Symbols

let binding_names (fs : Symbols.file_syms) =
  Array.to_list (Array.map (fun b -> b.Symbols.b_name) fs.Symbols.f_bindings)

let test_symbols_builder () =
  Alcotest.(check string)
    "module name" "Pool"
    (Symbols.module_name_of_path "lib/par/pool.ml");
  (* nested [let module] stays inside the enclosing binding *)
  let fs =
    Symbols.parse_file ~path:"lib/core/a.ml"
      "let f x =\n\
      \  let module M = Map.Make (Int) in\n\
      \  M.cardinal M.empty + x\n\n\
       let g y = y\n"
  in
  Alcotest.(check (list string))
    "let module does not split the binding" [ "f"; "g" ] (binding_names fs);
  (* functor application is recorded as a module alias *)
  let fs =
    Symbols.parse_file ~path:"lib/core/b.ml"
      "module IntMap = Map.Make (Int)\n\nlet size m = IntMap.cardinal m\n"
  in
  Alcotest.(check bool)
    "functor application aliased" true
    (List.mem_assoc "IntMap" fs.Symbols.f_aliases);
  (* operator definitions keep their concatenated symbol as the name *)
  let fs =
    Symbols.parse_file ~path:"lib/core/c.ml"
      "let ( .%() ) t i = Array.unsafe_get t i\n\n\
       let ( let* ) x f = f x\n"
  in
  Alcotest.(check (list string))
    "operator names" [ ".%()"; "let*" ] (binding_names fs);
  Alcotest.(check bool)
    "operator bindings are functions" true
    (Array.for_all (fun b -> b.Symbols.b_func) fs.Symbols.f_bindings);
  (* [let*] used as a binder introduces a local, not a reference *)
  let fs =
    Symbols.parse_file ~path:"lib/core/d.ml"
      "let run m =\n  let* x = m in\n  x + 1\n"
  in
  Alcotest.(check (list string)) "binder fixture parses" [ "run" ]
    (binding_names fs);
  Array.iter
    (fun refs ->
      Array.iter
        (fun r ->
          Alcotest.(check bool)
            "x is a local, not a reference" false
            (r.Symbols.r_name = "x"))
        refs)
    fs.Symbols.f_refs;
  (* value vs function classification *)
  let fs =
    Symbols.parse_file ~path:"lib/core/e.ml"
      "let table = Hashtbl.create 8\n\nlet touch k = Hashtbl.replace table k ()\n"
  in
  (match Array.to_list fs.Symbols.f_bindings with
  | [ v; f ] ->
      Alcotest.(check bool) "table is a value" false v.Symbols.b_func;
      Alcotest.(check bool) "touch is a function" true f.Symbols.b_func
  | _ -> Alcotest.fail "expected two bindings")

let test_symbols_shadowing () =
  let fs =
    Symbols.parse_file ~path:"lib/core/s.ml"
      "let scale x = x * 2\n\n\
       let use1 y = scale y\n\n\
       let scale x = x * 3\n\n\
       let use2 y = scale y\n"
  in
  let repo = Symbols.build [ fs ] in
  let ref_in name =
    let bi = ref (-1) in
    Array.iteri
      (fun i b -> if b.Symbols.b_name = name then bi := i)
      fs.Symbols.f_bindings;
    Array.to_list fs.Symbols.f_refs.(!bi)
    |> List.find (fun r -> r.Symbols.r_name = "scale")
  in
  let line_of ids =
    match ids with
    | [ id ] -> repo.Symbols.bindings.(id).Symbols.b_line
    | _ -> -1
  in
  Alcotest.(check int)
    "use1 sees the first scale" 1
    (line_of (Symbols.resolve repo fs (ref_in "use1")));
  Alcotest.(check int)
    "use2 sees the shadowing scale" 5
    (line_of (Symbols.resolve repo fs (ref_in "use2")))

(* ------------------------------------------------ effect fixpoint rules *)

(* Convenience driver over in-memory sources; every fixture supplies an
   empty .mli so missing-mli stays out of the expected lists. *)
let analyze ?refs files =
  Lint.analyze_sources ?refs
    (List.map (fun (p, s) -> (p, s, Some "")) files)

let rules_and_lines report =
  List.map (fun f -> (f.Lint.rule, f.Lint.line)) report.Lint.r_findings

let test_nondet_taint_two_deep () =
  (* the acceptance fixture: a helper wrapping Unix.gettimeofday, reached
     two calls deep from sim code — invisible to the per-line rules *)
  let util = "let now () = Unix.gettimeofday ()\n" in
  let mid = "let stamp () = Util.now () +. 1.0\n" in
  let engine = "let run () = int_of_float (Mid.stamp ())\n" in
  Alcotest.(check (list string))
    "call-site-only lint misses the wrapped clock" []
    (rules_of (lint "lib/sim/engine2.ml" ~has_mli:true engine));
  let report =
    analyze
      [ ("lib/core/util.ml", util); ("lib/core/mid.ml", mid);
        ("lib/sim/engine2.ml", engine) ]
  in
  Alcotest.(check (list (pair string int)))
    "direct source is a surface finding; both wrappers are tainted"
    [
      ("direct-clock-in-instrumented-code", 1);
      ("nondet-taint", 1);
      ("nondet-taint", 1);
    ]
    (List.sort compare (rules_and_lines report));
  (* the witness chain runs all the way to the source token *)
  match Lint.explain report "Engine2.run" with
  | [ f ] ->
      Alcotest.(check (list string))
        "full chain"
        [ "Engine2.run"; "Mid.stamp"; "Util.now"; "Unix.gettimeofday" ]
        (List.map (fun (s : Lint.chain_step) -> s.Lint.c_name) f.Lint.chain);
      Alcotest.(check bool)
        "suffix match finds the same finding" true
        (Lint.explain report "run" <> [])
  | fs -> Alcotest.failf "expected one explained finding, got %d" (List.length fs)

let test_taint_barrier () =
  (* a reasoned suppression at the source certifies the whole chain *)
  let util =
    "(* netdiv-lint: allow direct-clock-in-instrumented-code — sanctioned \
     shim, fixture *)\n\
     let now () = Unix.gettimeofday ()\n"
  in
  let report =
    analyze
      [ ("lib/core/util.ml", util);
        ("lib/sim/engine2.ml", "let run () = int_of_float (Util.now ())\n") ]
  in
  Alcotest.(check (list (pair string int)))
    "barrier stops the taint" [] (rules_and_lines report)

let test_fixpoint_mutual_recursion () =
  (* mutually recursive bindings must reach a fixpoint, with the Direct
     witness staying on the binding that owns the source token *)
  let src =
    "let rec ping n = if n = 0 then 0 else pong (n - 1)\n\n\
     and pong n = ping (int_of_float (Unix.gettimeofday ()) + n)\n"
  in
  let report = analyze [ ("lib/sim/rec.ml", src) ] in
  Alcotest.(check (list (pair string int)))
    "pong is a direct surface finding, ping is tainted via pong"
    [ ("nondet-taint", 1); ("nondeterminism-source", 3) ]
    (List.sort compare (rules_and_lines report))

let test_impure_in_parallel_region () =
  let src =
    "let total = ref 0\n\n\
     let bump () = total := !total + 1\n\n\
     let run () = Netdiv_par.Pool.map_range ~lo:0 ~hi:10 (fun i -> bump (); i)\n"
  in
  let report = analyze [ ("lib/sim/paruse.ml", src) ] in
  Alcotest.(check (list (pair string int)))
    "callee mutating a toplevel ref is flagged at the region"
    [ ("impure-in-parallel-region", 5); ("toplevel-mutable-state", 1) ]
    (List.sort compare (rules_and_lines report));
  (* inline closure mutating toplevel state directly *)
  let src =
    "let total = ref 0\n\n\
     let run () = Netdiv_par.Pool.parallel_for 0 10 (fun i -> total := i)\n"
  in
  let report = analyze [ ("lib/sim/parinline.ml", src) ] in
  Alcotest.(check (list (pair string int)))
    "inline closure mutation is flagged"
    [ ("impure-in-parallel-region", 3); ("toplevel-mutable-state", 1) ]
    (List.sort compare (rules_and_lines report));
  (* workers writing their own slice of a local buffer are clean *)
  let src =
    "let run n =\n\
    \  let out = Array.make n 0 in\n\
    \  Netdiv_par.Pool.parallel_for 0 n (fun i -> out.(i) <- i * i);\n\
    \  out\n"
  in
  let report = analyze [ ("lib/sim/parok.ml", src) ] in
  Alcotest.(check (list (pair string int)))
    "chunk-local writes are clean" [] (rules_and_lines report)

let test_unused_export () =
  let api_mli = "val used : int -> int\n\nval unused : int -> int\n" in
  let api = "let used x = x + 1\n\nlet unused x = x - 1\n" in
  let caller = "let call x = Api.used x\n" in
  let report =
    Lint.analyze_sources
      [
        ("lib/core/api.ml", api, Some api_mli);
        ("lib/core/caller.ml", caller, Some "");
      ]
  in
  Alcotest.(check (list (pair string string)))
    "only the unreferenced export is flagged"
    [ ("unused-export", "lib/core/api.mli") ]
    (List.map (fun f -> (f.Lint.rule, f.Lint.file)) report.Lint.r_findings);
  (* a use from a reference root (test/bench/...) counts *)
  let report =
    Lint.analyze_sources
      ~refs:[ ("test/t.ml", "let () = ignore (Api.unused 1)\n") ]
      [
        ("lib/core/api.ml", api, Some api_mli);
        ("lib/core/caller.ml", caller, Some "");
      ]
  in
  Alcotest.(check int)
    "test usage silences the finding" 0
    (List.length report.Lint.r_findings);
  (* an .mli suppression with a reason is honored *)
  let api_mli_sup =
    "val used : int -> int\n\n\
     (* netdiv-lint: allow unused-export — public API, fixture *)\n\
     val unused : int -> int\n"
  in
  let report =
    Lint.analyze_sources
      [
        ("lib/core/api.ml", api, Some api_mli_sup);
        ("lib/core/caller.ml", caller, Some "");
      ]
  in
  Alcotest.(check int)
    "suppressed in the interface" 0
    (List.length report.Lint.r_findings)

let test_float_equality_in_kernel () =
  check_rules "positive: = against a float literal"
    [ "float-equality-in-kernel" ]
    (lint "lib/mrf/k.ml" ~has_mli:true "let check x = x = 0.0\n");
  check_rules "positive: <> against infinity"
    [ "float-equality-in-kernel" ]
    (lint "lib/mrf/k.ml" ~has_mli:true "let bounded b = b <> infinity\n");
  check_rules "positive: negative literal"
    [ "float-equality-in-kernel" ]
    (lint "lib/mrf/k.ml" ~has_mli:true "let is_neg x = x = -1.0\n");
  check_rules "near-miss: binder and optional default are structural" []
    (lint "lib/mrf/k.ml" ~has_mli:true
       "let eps = 1e-9\n\nlet near ?(tol = 1e-6) x = abs_float x < tol\n");
  check_rules "near-miss: record fields are structural" []
    (lint "lib/mrf/k.ml" ~has_mli:true
       "let defaults = { damping = 0.5; tol = 1e-6 }\n");
  check_rules "near-miss: integer equality" []
    (lint "lib/mrf/k.ml" ~has_mli:true "let z x = x = 0\n");
  check_rules "near-miss: <= is ordering, not equality" []
    (lint "lib/mrf/k.ml" ~has_mli:true "let small x = x <= 0.5\n");
  check_rules "near-miss: outside lib/mrf" []
    (lint "lib/sim/k.ml" ~has_mli:true "let check x = x = 0.0\n");
  check_rules "suppressed with a reason" []
    (lint "lib/mrf/k.ml" ~has_mli:true
       "(* netdiv-lint: allow float-equality-in-kernel — sentinel compare, \
        fixture *)\n\
        let check x = x = 0.0\n")

(* --------------------------------------------------------------- JSON *)

let test_json_roundtrip () =
  let report =
    analyze [ ("lib/sim/e.ml", "let go f = Domain.spawn f\n") ]
  in
  let text = Lint.report_to_json report in
  let module J = Netdiv_vuln.Json in
  match J.parse text with
  | Error msg -> Alcotest.failf "report JSON does not parse: %s" msg
  | Ok j ->
      let findings =
        Option.get (Option.bind (J.member "findings" j) J.to_list)
      in
      Alcotest.(check int) "one finding" 1 (List.length findings);
      let rule =
        Option.get
          (Option.bind (J.member "rule" (List.hd findings)) J.to_str)
      in
      Alcotest.(check string) "rule field" "spawn-outside-pool" rule

(* --------------------------------------------------------- self-check *)

let test_repo_lints_clean () =
  (* under `dune runtest` the cwd is _build/default/test and the sources
     sit one level up (declared as deps); under `dune exec` from the repo
     root they sit right here.  Any finding means a violation crept in
     without a written suppression. *)
  let at_root = Sys.file_exists "lib" && Sys.is_directory "lib" in
  let prefix p = if at_root then p else "../" ^ p in
  let roots = [ prefix "lib"; prefix "bin" ] in
  let report =
    Lint.analyze_paths ~ref_paths:(Lint.default_ref_paths roots) roots
  in
  let findings = report.Lint.r_findings in
  if findings <> [] then
    Alcotest.failf "repository must lint clean, got:@\n%s"
      (String.concat "\n"
         (List.map (Format.asprintf "%a" Lint.pp_finding) findings))

let test_rule_list () =
  let ids = List.map fst Lint.rules in
  List.iter
    (fun required ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s shipped" required)
        true (List.mem required ids))
    [
      "spawn-outside-pool"; "toplevel-mutable-state"; "nondeterminism-source";
      "direct-clock-in-instrumented-code"; "list-nth-in-loop";
      "alloc-in-loop"; "missing-mli"; "printf-in-lib"; "swallowed-exception";
      "bad-suppression"; "float-equality-in-kernel"; "nondet-taint";
      "impure-in-parallel-region"; "unused-export";
    ]

let () =
  Alcotest.run "netdiv_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "spawn-outside-pool" `Quick
            test_spawn_outside_pool;
          Alcotest.test_case "toplevel-mutable-state" `Quick
            test_toplevel_mutable_state;
          Alcotest.test_case "nondeterminism-source" `Quick
            test_nondeterminism_source;
          Alcotest.test_case "direct-clock-in-instrumented-code" `Quick
            test_direct_clock;
          Alcotest.test_case "list-nth-in-loop" `Quick test_list_nth_in_loop;
          Alcotest.test_case "alloc-in-loop" `Quick test_alloc_in_loop;
          Alcotest.test_case "alloc-in-loop (Compact boxing)" `Quick
            test_compact_boxing_in_loop;
          Alcotest.test_case "missing-mli" `Quick test_missing_mli;
          Alcotest.test_case "printf-in-lib" `Quick test_printf_in_lib;
          Alcotest.test_case "swallowed-exception" `Quick
            test_swallowed_exception;
          Alcotest.test_case "bad-suppression" `Quick test_bad_suppression;
          Alcotest.test_case "rule list" `Quick test_rule_list;
        ] );
      ( "engine",
        [
          Alcotest.test_case "lexer blind spots" `Quick test_lexer_blind_spots;
          Alcotest.test_case "ordering and pp" `Quick test_ordering_and_pp;
        ] );
      ( "symbols",
        [
          Alcotest.test_case "builder on tricky syntax" `Quick
            test_symbols_builder;
          Alcotest.test_case "shadow-aware resolution" `Quick
            test_symbols_shadowing;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "nondet-taint two calls deep" `Quick
            test_nondet_taint_two_deep;
          Alcotest.test_case "suppression as barrier" `Quick
            test_taint_barrier;
          Alcotest.test_case "fixpoint on mutual recursion" `Quick
            test_fixpoint_mutual_recursion;
          Alcotest.test_case "impure-in-parallel-region" `Quick
            test_impure_in_parallel_region;
          Alcotest.test_case "unused-export" `Quick test_unused_export;
          Alcotest.test_case "float-equality-in-kernel" `Quick
            test_float_equality_in_kernel;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        ] );
      ( "self-check",
        [ Alcotest.test_case "lib+bin lint clean" `Quick test_repo_lints_clean ] );
    ]
