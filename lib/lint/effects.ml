(* Effect summaries and the interprocedural fixpoint.  See effects.mli
   for the contract.

   Summaries live in a four-bit mask; the fixpoint is a naive
   iterate-until-stable loop over the binding array, which converges in
   at most four rounds times the longest acyclic call chain (each round
   can only add bits, and there are four).  The repository has ~10^3
   bindings and ~10^4 edges, so this is microseconds — simplicity over
   a worklist. *)

open Parsetree

type eff = Clock | Random | Spawn | Mutate

let eff_name = function
  | Clock -> "nondet-clock"
  | Random -> "nondet-random"
  | Spawn -> "spawns-domain"
  | Mutate -> "mutates-toplevel"

let bit = function Clock -> 1 | Random -> 2 | Spawn -> 4 | Mutate -> 8

let all_effs = [ Clock; Random; Spawn; Mutate ]

type source = { s_eff : eff; s_line : int; s_descr : string }

type witness = Direct of source | Via of { callee : int; call_line : int }

type summary = { effs : eff list; wit : (eff * witness) list }

type t = { repo : Symbols.repo; summaries : summary array }

let is_pool_ml path =
  Filename.basename path = "pool.ml"
  && Filename.basename (Filename.dirname path) = "par"

(* ------------------------------------------------------- base effects *)

let mutation_rules = [ "toplevel-mutable-state" ]
let clock_rules =
  [ "nondeterminism-source"; "direct-clock-in-instrumented-code"; "nondet-taint" ]
let random_rules = [ "nondeterminism-source"; "nondet-taint" ]
let spawn_rules = [ "spawn-outside-pool" ]

let barred barrier ~path ~line rules =
  List.exists (fun rule -> barrier ~path ~line ~rule) rules

(* Functions whose first argument is the state they update: [:=], the
   [t.(i) <- v] / [t.%(i) <- v] setters the parser desugars index
   assignments into, and the imperative [Hashtbl]/[Atomic] APIs.  The
   module path is matched reversed, so [Float.Array.set] counts. *)
let mutator path =
  match List.rev path with
  | [ ":=" ] -> true
  | ("set" | "unsafe_set") :: ("Array" | "Bytes") :: _ -> true
  | ( "add" | "replace" | "remove" | "reset" | "clear"
    | "filter_map_inplace" )
    :: "Hashtbl" :: _ ->
      true
  | ("set" | "incr" | "decr" | "exchange" | "compare_and_set") :: "Atomic" :: _
    ->
      true
  | op :: _ -> String.ends_with ~suffix:"<-" op
  | [] -> false

let direct_sources ~barrier ?scope repo (fs : Symbols.file_syms) e =
  let path = fs.Symbols.f_path in
  let pool = is_pool_ml path in
  let out = ref [] in
  let add line eff descr =
    out := { s_eff = eff; s_line = line; s_descr = descr } :: !out
  in
  let source line eff rules descr =
    if not (barred barrier ~path ~line rules) then add line eff descr
  in
  (* the toplevel bindings an assignment target's head identifier may
     denote: a local never does, and a target certified by a suppression
     at its definition is dropped *)
  let mutated scope line target =
    let rec head e =
      match e.pexp_desc with
      | Pexp_field (e, _) | Pexp_constraint (e, _) -> head e
      | Pexp_ident _ -> Symbols.references ~scope e
      | _ -> []
    in
    List.iter
      (fun r ->
        match
          List.filter
            (fun id ->
              let tb = repo.Symbols.bindings.(id) in
              not
                (barred barrier ~path:tb.Symbols.b_file ~line:tb.Symbols.b_line
                   mutation_rules))
            (Symbols.resolve repo fs r)
        with
        | [] -> ()
        | id :: _ ->
            let tb = repo.Symbols.bindings.(id) in
            add line Mutate
              (Printf.sprintf "mutates toplevel %s (%s:%d)"
                 (Symbols.qualified_name tb) tb.Symbols.b_file
                 tb.Symbols.b_line))
      (head target)
  in
  Symbols.walk ?scope
    (fun scope e ->
      let line = e.pexp_loc.loc_start.pos_lnum in
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match Longident.flatten txt with
          | "Random" :: f :: _ when f <> "State" ->
              source line Random random_rules ("Random." ^ f)
          | ident -> (
              match List.rev ident with
              | "gettimeofday" :: "Unix" :: _ ->
                  source line Clock clock_rules "Unix.gettimeofday"
              | "time" :: "Sys" :: _ -> source line Clock clock_rules "Sys.time"
              | "spawn" :: "Domain" :: _ when not pool ->
                  source line Spawn spawn_rules "Domain.spawn"
              | _ -> ()))
      | Pexp_apply
          ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, target) :: _)
        when mutator (Longident.flatten txt) ->
          mutated scope line target
      | Pexp_setfield (target, _, _) -> mutated scope line target
      | _ -> ())
    e;
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
        match b.Symbols.b_body with
        | Some e -> direct_sources ~barrier repo fs e
        | None -> []
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
     registration, so Mutate/Spawn stop there, but a value
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
