(* Effect summaries and the interprocedural fixpoint.  See effects.mli
   for the contract.

   Summaries live in a six-bit mask; the fixpoint is a naive
   iterate-until-stable loop over the binding array, which converges in
   at most six rounds times the longest acyclic call chain (each round
   can only add bits, and there are six).  The repository has ~10^3
   bindings and ~10^4 edges, so this is microseconds — simplicity over
   a worklist. *)

type eff = Clock | Random | Spawn | Mutate | Alloc | Print

let eff_name = function
  | Clock -> "nondet-clock"
  | Random -> "nondet-random"
  | Spawn -> "spawns-domain"
  | Mutate -> "mutates-toplevel"
  | Alloc -> "allocates"
  | Print -> "prints"

let bit = function
  | Clock -> 1
  | Random -> 2
  | Spawn -> 4
  | Mutate -> 8
  | Alloc -> 16
  | Print -> 32

let all_effs = [ Clock; Random; Spawn; Mutate; Alloc; Print ]

type source = { s_eff : eff; s_line : int; s_descr : string }

type witness = Direct of source | Via of { callee : int; call_line : int }

type summary = { effs : eff list; wit : (eff * witness) list }

type t = { repo : Symbols.repo; summaries : summary array }

(* ------------------------------------------------------- token helpers *)

let tok (toks : Lexer.token array) i =
  if i >= 0 && i < Array.length toks then toks.(i).Lexer.text else ""

let seq2 toks i a b = tok toks i = a && tok toks (i + 1) = b

let seq3 toks i a b c = seq2 toks i a b && tok toks (i + 2) = c

(* two single-char operator tokens glued in the source (":=", "<-") *)
let glued (toks : Lexer.token array) i =
  i + 1 < Array.length toks
  && toks.(i).Lexer.line = toks.(i + 1).Lexer.line
  && toks.(i + 1).Lexer.col = toks.(i).Lexer.col + 1

let is_pool_ml path =
  Filename.basename path = "pool.ml"
  && Filename.basename (Filename.dirname path) = "par"

(* Does a binding's body construct mutable state?  Used to keep
   [x := ...] on a shadowed local from convicting an unrelated
   same-named toplevel function. *)
let looks_mutable (fs : Symbols.file_syms) (b : Symbols.binding) =
  let toks = fs.f_lex.Lexer.tokens in
  let found = ref false in
  for i = b.b_lo to min b.b_hi (Array.length toks) - 1 do
    (match tok toks i with
    | "ref" | "mutable" -> found := true
    | "Hashtbl" | "Atomic" | "Queue" | "Stack" | "Buffer" | "Bytes" ->
        if
          tok toks (i + 1) = "."
          &&
          match tok toks (i + 2) with
          | "create" | "make" | "init" -> true
          | _ -> false
        then found := true
    | "Array" ->
        if seq2 toks (i + 1) "." "make" || seq2 toks (i + 1) "." "init"
           || seq2 toks (i + 1) "." "create" (* Float.Array.create *)
        then found := true
    | "DLS" ->
        if tok toks (i + 1) = "." && tok toks (i + 2) = "new_key" then
          found := true
    | _ -> ())
  done;
  !found

(* ------------------------------------------------------- base effects *)

let mutation_rules = [ "toplevel-mutable-state" ]
let clock_rules =
  [ "nondeterminism-source"; "direct-clock-in-instrumented-code"; "nondet-taint" ]
let random_rules = [ "nondeterminism-source"; "nondet-taint" ]
let spawn_rules = [ "spawn-outside-pool" ]
let print_rules = [ "printf-in-lib" ]

let barred barrier ~path ~line rules =
  List.exists (fun rule -> barrier ~path ~line ~rule) rules

(* walk back over a dotted access path ending at token [e]; returns the
   index of the head component, or -1 when [e] is not an identifier *)
let path_head (toks : Lexer.token array) e =
  let is_ident s =
    s <> ""
    &&
    match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false
  in
  if e < 0 || not (is_ident (tok toks e)) then -1
  else begin
    let k = ref e in
    while !k >= 2 && tok toks (!k - 1) = "." && is_ident (tok toks (!k - 2)) do
      k := !k - 2
    done;
    !k
  end

(* the token index of the assignment target's head for [<-]: handles
   [x <- v], [r.f <- v], [t.(i) <- v] and [t.%(i) <- v] shapes *)
let arrow_target (toks : Lexer.token array) i =
  match tok toks (i - 1) with
  | ")" | "]" ->
      (* walk back to the matching opener *)
      let depth = ref 1 and k = ref (i - 2) in
      while !depth > 0 && !k >= 0 do
        (match tok toks !k with
        | ")" | "]" -> incr depth
        | "(" | "[" -> decr depth
        | _ -> ());
        if !depth > 0 then decr k
      done;
      (* skip index-operator chars between the path and the opener:
         t.(i), t.%(i), t.%.(i) ... *)
      let e = ref (!k - 1) in
      while !e >= 0 && (tok toks !e = "." || tok toks !e = "%" || tok toks !e = "$")
      do
        decr e
      done;
      path_head toks !e
  | _ -> path_head toks (i - 1)

(* The resolved toplevel bindings a mutation target may denote, with
   certified (suppressed-at-definition) targets dropped. *)
let mutated_bindings ~barrier repo (fs : Symbols.file_syms) b head_tok =
  match Symbols.ref_at fs b head_tok with
  | None -> []
  | Some r ->
      List.filter
        (fun id ->
          let tb = repo.Symbols.bindings.(id) in
          let tfs = repo.Symbols.files.(repo.Symbols.file_of.(id)) in
          looks_mutable tfs tb
          && not
               (barred barrier ~path:tb.Symbols.b_file ~line:tb.Symbols.b_line
                  mutation_rules))
        (Symbols.resolve repo fs r)

let direct_sources ~barrier (fs : Symbols.file_syms) (b : Symbols.binding)
    ~lo ~hi repo =
  let toks = fs.f_lex.Lexer.tokens in
  let path = fs.f_path in
  let out = ref [] in
  let add line eff descr =
    out := { s_eff = eff; s_line = line; s_descr = descr } :: !out
  in
  let pool = is_pool_ml path in
  let hi = min hi (Array.length toks) in
  for i = lo to hi - 1 do
    let t = toks.(i) in
    let line = t.Lexer.line in
    (* clock *)
    if seq3 toks i "Unix" "." "gettimeofday" || seq3 toks i "Sys" "." "time"
    then begin
      if not (barred barrier ~path ~line clock_rules) then
        add line Clock (tok toks i ^ "." ^ tok toks (i + 2))
    end;
    (* global-state Random (Random.State is the seeded, sanctioned API) *)
    if
      seq2 toks i "Random" "."
      && tok toks (i - 1) <> "."
      && tok toks (i + 2) <> "State"
      && tok toks (i + 2) <> ""
    then begin
      if not (barred barrier ~path ~line random_rules) then
        add line Random ("Random." ^ tok toks (i + 2))
    end;
    (* spawn — the pool is the sanctioned spawner *)
    if seq3 toks i "Domain" "." "spawn" && not pool then begin
      if not (barred barrier ~path ~line spawn_rules) then
        add line Spawn "Domain.spawn"
    end;
    (* prints *)
    let print_descr =
      if seq3 toks i "Printf" "." "printf" || seq3 toks i "Format" "." "printf"
      then Some (t.Lexer.text ^ ".printf")
      else
        match t.Lexer.text with
        | ( "print_endline" | "print_string" | "print_newline" | "print_int"
          | "print_float" | "print_char" )
          when tok toks (i - 1) <> "." || tok toks (i - 2) = "Stdlib" ->
            Some t.Lexer.text
        | _ -> None
    in
    (match print_descr with
    | Some descr ->
        if not (barred barrier ~path ~line print_rules) then
          add line Print descr
    | None -> ());
    (* allocation *)
    if
      (seq2 toks i "Array" "."
      && (not (seq2 toks (i - 2) "Float" "."))
      && List.mem (tok toks (i + 2)) [ "make"; "init"; "copy" ])
      || (seq3 toks i "Float" "." "Array"
         && tok toks (i + 3) = "."
         && List.mem (tok toks (i + 4)) [ "create"; "make"; "init"; "copy" ])
      || seq3 toks i "Hashtbl" "." "create"
      || (seq2 toks i "Bytes" "."
         && List.mem (tok toks (i + 2)) [ "create"; "make" ])
    then add line Alloc ("allocation via " ^ t.Lexer.text);
    (* mutation of toplevel state: [:=], [<-], and the imperative
       container APIs applied to a resolvable toplevel binding *)
    let mut_head =
      if tok toks i = ":" && tok toks (i + 1) = "=" && glued toks i then
        path_head toks (i - 1)
      else if tok toks i = "<" && tok toks (i + 1) = "-" && glued toks i then
        arrow_target toks i
      else if
        (tok toks i = "Hashtbl"
        && tok toks (i + 1) = "."
        && List.mem (tok toks (i + 2))
             [ "add"; "replace"; "remove"; "reset"; "clear";
               "filter_map_inplace" ])
        || (tok toks i = "Atomic"
           && tok toks (i + 1) = "."
           && List.mem (tok toks (i + 2))
                [ "set"; "incr"; "decr"; "exchange"; "compare_and_set" ])
      then if i + 3 < hi then path_head toks (i + 3) else -1
      else -1
    in
    if mut_head >= 0 then begin
      match mutated_bindings ~barrier repo fs b mut_head with
      | [] -> ()
      | tb_id :: _ ->
          let tb = repo.Symbols.bindings.(tb_id) in
          add line Mutate
            (Printf.sprintf "mutates toplevel %s (%s:%d)"
               (Symbols.qualified_name tb) tb.Symbols.b_file tb.Symbols.b_line)
    end
  done;
  List.rev !out

(* ----------------------------------------------------------- fixpoint *)

let analyze ~barrier repo =
  let n = Array.length repo.Symbols.bindings in
  let masks = Array.make n 0 in
  let wits : (eff * witness) list array = Array.make n [] in
  (* base effects *)
  Array.iteri
    (fun id b ->
      let fs = repo.Symbols.files.(repo.Symbols.file_of.(id)) in
      let srcs =
        direct_sources ~barrier fs b ~lo:b.Symbols.b_lo ~hi:b.Symbols.b_hi repo
      in
      List.iter
        (fun s ->
          if masks.(id) land bit s.s_eff = 0 then begin
            masks.(id) <- masks.(id) lor bit s.s_eff;
            wits.(id) <- (s.s_eff, Direct s) :: wits.(id)
          end)
        srcs)
    repo.Symbols.bindings;
  (* call edges *)
  let edges : (int * int) list array = Array.make n [] in
  Array.iter
    (fun fs ->
      Array.iteri
        (fun bi b ->
          let id = b.Symbols.b_id in
          let seen = Hashtbl.create 16 in
          Array.iter
            (fun r ->
              List.iter
                (fun callee ->
                  if callee <> id && not (Hashtbl.mem seen callee) then begin
                    Hashtbl.replace seen callee ();
                    edges.(id) <- (callee, r.Symbols.r_line) :: edges.(id)
                  end)
                (Symbols.resolve repo fs r))
            fs.Symbols.f_refs.(bi))
        fs.Symbols.f_bindings)
    repo.Symbols.files;
  Array.iteri (fun id l -> edges.(id) <- List.rev l) edges;
  (* iterate to fixpoint.  An edge to a non-function binding (a value
     evaluated once at module init) transmits only the nondeterminism
     bits: referencing [let p = Fault.point "x"] does not re-run the
     registration, so Mutate/Spawn/Alloc/Print stop there, but a value
     initialized from the clock or global Random state still poisons
     every consumer's reproducibility. *)
  let init_bits = bit Clock lor bit Random in
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to n - 1 do
      List.iter
        (fun (callee, call_line) ->
          let transmitted =
            if repo.Symbols.bindings.(callee).Symbols.b_func then
              masks.(callee)
            else masks.(callee) land init_bits
          in
          let fresh = transmitted land lnot masks.(id) in
          if fresh <> 0 then begin
            masks.(id) <- masks.(id) lor fresh;
            changed := true;
            List.iter
              (fun e ->
                if fresh land bit e <> 0 then
                  wits.(id) <- (e, Via { callee; call_line }) :: wits.(id))
              all_effs
          end)
        edges.(id)
    done
  done;
  let summaries =
    Array.init n (fun id ->
        {
          effs = List.filter (fun e -> masks.(id) land bit e <> 0) all_effs;
          wit = List.rev wits.(id);
        })
  in
  { repo; summaries }

let summary t id = t.summaries.(id)

let has t id e = List.mem e t.summaries.(id).effs

(* -------------------------------------------------------------- chains *)

type chain_step = { c_name : string; c_file : string; c_line : int }

let chain t id0 e =
  if not (has t id0 e) then []
  else begin
    let step_of id =
      let b = t.repo.Symbols.bindings.(id) in
      { c_name = Symbols.qualified_name b; c_file = b.Symbols.b_file;
        c_line = b.Symbols.b_line }
    in
    let rec go id acc guard =
      if guard > Array.length t.repo.Symbols.bindings then List.rev acc
      else
        match List.assoc_opt e t.summaries.(id).wit with
        | None -> List.rev acc
        | Some (Direct s) ->
            let b = t.repo.Symbols.bindings.(id) in
            List.rev
              ({ c_name = s.s_descr; c_file = b.Symbols.b_file;
                 c_line = s.s_line }
              :: acc)
        | Some (Via { callee; _ }) -> go callee (step_of callee :: acc) (guard + 1)
    in
    go id0 [ step_of id0 ] 0
  end
