(* Symbol tables for netdiv-lint.  See symbols.mli for the contract and
   DESIGN.md ("Static analysis") for the rationale. *)

open Parsetree

exception Parse_error of string * int * string

type binding = {
  b_id : int;
  b_file : string;
  b_module : string list;
  b_name : string;
  b_line : int;
  b_body : expression option;
  b_func : bool;
}

type reference = { r_path : string list; r_name : string; r_line : int }

type mli_val = {
  v_name : string;
  v_module : string list;
  v_line : int;
  v_operator : bool;
}

type file_syms = {
  f_path : string;
  f_modname : string;
  f_bindings : binding array;
  f_refs : reference array array;
  f_opens : string list list;
  f_aliases : (string * string list) list;
  f_mli : mli_val list;
}

type repo = {
  files : file_syms array;
  bindings : binding array;
  file_of : int array;
  by_suffix : (string, int list) Hashtbl.t;
}

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let module_name_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  if base = "" then "_"
  else String.make 1 (Char.uppercase_ascii base.[0])
       ^ String.sub base 1 (String.length base - 1)

let qualified_name b = String.concat "." (b.b_module @ [ b.b_name ])

(* ------------------------------------------------------------ parsing *)

let parse parser ~path src =
  Lexer.print_warnings := false;
  match parser (Lexing.from_string src) with
  | tree -> (tree, Lexer.comments ())
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok { Location.main; _ }) ->
          raise
            (Parse_error
               (path, line_of main.loc, Format.asprintf "%t" main.txt))
      | _ -> raise exn)

(* ------------------------------------------------------------- scopes *)

type scope = string list

(* the names a pattern binds, pushed onto [acc] *)
let rec pattern_vars acc p =
  match p.ppat_desc with
  | Ppat_var v -> v.txt :: acc
  | Ppat_alias (p, v) -> pattern_vars (v.txt :: acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pattern_vars acc ps
  | Ppat_record (fields, _) ->
      List.fold_left (fun acc (_, p) -> pattern_vars acc p) acc fields
  | Ppat_or (p, q) -> pattern_vars (pattern_vars acc p) q
  | Ppat_construct (_, Some (_, p))
  | Ppat_variant (_, Some p)
  | Ppat_constraint (p, _)
  | Ppat_lazy p
  | Ppat_exception p
  | Ppat_open (_, p) ->
      pattern_vars acc p
  | _ -> acc

let walk ?(scope = []) f e =
  let scope = ref scope in
  let under pats k =
    let saved = !scope in
    scope := List.fold_left pattern_vars saved pats;
    k ();
    scope := saved
  in
  let expr self e =
    f !scope e;
    let sub = self.Ast_iterator.expr self in
    let case c =
      under [ c.pc_lhs ] (fun () ->
          Option.iter sub c.pc_guard;
          sub c.pc_rhs)
    in
    match e.pexp_desc with
    | Pexp_let (flag, vbs, body) ->
        let pats = List.map (fun vb -> vb.pvb_pat) vbs in
        let rhs () = List.iter (fun vb -> sub vb.pvb_expr) vbs in
        if flag = Asttypes.Recursive then
          under pats (fun () ->
              rhs ();
              sub body)
        else begin
          rhs ();
          under pats (fun () -> sub body)
        end
    | Pexp_fun (_, default, p, body) ->
        Option.iter sub default;
        under [ p ] (fun () -> sub body)
    | Pexp_function cases -> List.iter case cases
    | Pexp_match (e, cases) | Pexp_try (e, cases) ->
        sub e;
        List.iter case cases
    | Pexp_for (p, lo, hi, _, body) ->
        sub lo;
        sub hi;
        under [ p ] (fun () -> sub body)
    | Pexp_letop { let_; ands; body } ->
        let ops = let_ :: ands in
        List.iter (fun op -> sub op.pbop_exp) ops;
        under (List.map (fun op -> op.pbop_pat) ops) (fun () -> sub body)
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e

let references ?scope e =
  let out = ref [] in
  walk ?scope
    (fun scope e ->
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident name; _ } when List.mem name scope
        ->
          ()
      | Pexp_ident { txt; loc } -> (
          match List.rev (Longident.flatten txt) with
          | r_name :: rev ->
              out :=
                { r_path = List.rev rev; r_name; r_line = line_of loc } :: !out
          | [] -> ())
      | _ -> ())
    e;
  List.rev !out

(* ---------------------------------------------------------- structure *)

let rec is_func e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> true
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e) ->
      is_func e
  | _ -> false

(* the module path a [module X = ...] right-hand side aliases: the head
   of an identifier or of a functor application *)
let rec alias_head me =
  match me.pmod_desc with
  | Pmod_ident lid -> Some (Longident.flatten lid.txt)
  | Pmod_apply (me, _) | Pmod_apply_unit me | Pmod_constraint (me, _) ->
      alias_head me
  | _ -> None

(* Exported values of an interface, at any [sig] depth; values declared
   inside a [module type] are specifications, not exports. *)
let mli_vals ~modname sg =
  let vals = ref [] in
  let rec items mpath sg =
    List.iter
      (fun si ->
        match si.psig_desc with
        | Psig_value vd ->
            let name = vd.pval_name.txt in
            vals :=
              { v_name = name; v_module = mpath; v_line = line_of vd.pval_loc;
                v_operator =
                  not
                    (String.for_all
                       (function
                         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' ->
                             true
                         | _ -> false)
                       name) }
              :: !vals
        | Psig_module md -> modtype mpath md
        | Psig_recmodule mds -> List.iter (modtype mpath) mds
        | _ -> ())
      sg
  and modtype mpath md =
    let rec go mt =
      match mt.pmty_desc with
      | Pmty_signature sg ->
          items (mpath @ [ Option.value md.pmd_name.txt ~default:"_" ]) sg
      | Pmty_functor (_, mt) | Pmty_with (mt, _) -> go mt
      | _ -> ()
    in
    go md.pmd_type
  in
  items [ modname ] sg;
  List.rev !vals

let of_structure ~path ?mli str =
  let modname = module_name_of_path path in
  let bindings = ref [] and opens = ref [] and aliases = ref [] in
  let add mpath name line body func =
    bindings :=
      { b_id = -1; b_file = path; b_module = mpath; b_name = name;
        b_line = line; b_body = body; b_func = func }
      :: !bindings
  in
  let rec items mpath str =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let names =
                  match List.rev (pattern_vars [] vb.pvb_pat) with
                  | [] -> [ "(init)" ]
                  | l -> l
                in
                List.iter
                  (fun name ->
                    add mpath name (line_of vb.pvb_loc) (Some vb.pvb_expr)
                      (is_func vb.pvb_expr))
                  names)
              vbs
        | Pstr_eval (e, _) ->
            add mpath "(init)" (line_of si.pstr_loc) (Some e) false
        | Pstr_primitive vd ->
            add mpath vd.pval_name.txt (line_of vd.pval_loc) None true
        | Pstr_module mb -> module_binding mpath mb
        | Pstr_recmodule mbs -> List.iter (module_binding mpath) mbs
        | Pstr_open { popen_expr = me; _ } | Pstr_include { pincl_mod = me; _ }
          -> (
            match me.pmod_desc with
            | Pmod_ident lid -> opens := Longident.flatten lid.txt :: !opens
            | _ -> modexpr mpath me)
        | _ -> ())
      str
  and module_binding mpath mb =
    let name = Option.value mb.pmb_name.txt ~default:"_" in
    Option.iter
      (fun head -> aliases := (name, head) :: !aliases)
      (alias_head mb.pmb_expr);
    modexpr (mpath @ [ name ]) mb.pmb_expr
  and modexpr mpath me =
    match me.pmod_desc with
    | Pmod_structure str -> items mpath str
    | Pmod_functor (_, me) | Pmod_constraint (me, _) | Pmod_apply_unit me ->
        modexpr mpath me
    | Pmod_apply (f, arg) ->
        modexpr mpath f;
        modexpr mpath arg
    | _ -> ()
  in
  items [ modname ] str;
  let bindings = Array.of_list (List.rev !bindings) in
  {
    f_path = path;
    f_modname = modname;
    f_bindings = bindings;
    f_refs =
      Array.map
        (fun b ->
          match b.b_body with
          | Some e -> Array.of_list (references e)
          | None -> [||])
        bindings;
    f_opens = List.rev !opens;
    f_aliases = !aliases;
    f_mli =
      (match mli with Some sg -> mli_vals ~modname sg | None -> []);
  }

let parse_file ~path ?mli src =
  let mli =
    Option.map
      (fun m -> fst (parse Parse.interface ~path:(path ^ "i") m))
      mli
  in
  of_structure ~path ?mli (fst (parse Parse.implementation ~path src))

(* ----------------------------------------------------------- resolution *)

(* Suffix index: a binding with module path [M0; S1; S2] and name n is
   registered under "M0.S1.S2.n", "S1.S2.n" and "S2.n" — never under
   the bare name, which only resolves within the defining file or
   through an [open].  The anonymous name "(init)" is not registered. *)
let suffix_keys b =
  if b.b_name = "(init)" then []
  else
    let rec suffixes = function
      | [] -> []
      | _ :: rest as l -> l :: suffixes rest
    in
    List.map
      (fun path -> String.concat "." (path @ [ b.b_name ]))
      (suffixes b.b_module)

let build files =
  let files = Array.of_list files in
  let all = ref [] and file_of = ref [] in
  let id = ref 0 in
  let by_suffix = Hashtbl.create 256 in
  Array.iteri
    (fun fi f ->
      Array.iteri
        (fun bi b ->
          let b = { b with b_id = !id } in
          f.f_bindings.(bi) <- b;
          all := b :: !all;
          file_of := fi :: !file_of;
          List.iter
            (fun key ->
              let prev = Option.value (Hashtbl.find_opt by_suffix key) ~default:[] in
              Hashtbl.replace by_suffix key (b.b_id :: prev))
            (suffix_keys b);
          incr id)
        f.f_bindings)
    files;
  {
    files;
    bindings = Array.of_list (List.rev !all);
    file_of = Array.of_list (List.rev !file_of);
    by_suffix;
  }

let is_wrapper_component c =
  c = "Stdlib"
  || String.length c > 7
     && String.sub c 0 7 = "Netdiv_"

let normalize_path (fs : file_syms) path =
  (* expand a file-local alias at the head, then drop library-wrapper
     components anywhere in the prefix *)
  let path =
    match path with
    | head :: rest -> (
        match List.assoc_opt head fs.f_aliases with
        | Some target -> target @ rest
        | None -> path)
    | [] -> []
  in
  List.filter (fun c -> not (is_wrapper_component c)) path

let rec resolve repo fs r =
  let lookup_suffix key =
    Option.value (Hashtbl.find_opt repo.by_suffix key) ~default:[]
  in
  if r.r_path = [] then begin
    (* bare name: latest same-file definition at or above the use line
       (shadow-aware), falling back to the earliest (forward references
       inside [let rec ... and ...]); then the file's opens *)
    let best = ref None and first = ref None in
    Array.iter
      (fun b ->
        if b.b_name = r.r_name then begin
          if !first = None then first := Some b;
          if b.b_line <= r.r_line then
            match !best with
            | Some p when p.b_line >= b.b_line -> ()
            | _ -> best := Some b
        end)
      fs.f_bindings;
    match (!best, !first) with
    | Some b, _ | None, Some b -> [ b.b_id ]
    | None, None ->
        List.concat_map
          (fun o ->
            match List.rev (normalize_path fs o) with
            | last :: _ -> lookup_suffix (last ^ "." ^ r.r_name)
            | [] -> [])
          fs.f_opens
  end
  else begin
    let path = normalize_path fs r.r_path in
    let rec try_suffixes = function
      | [] -> []
      | p -> (
          match lookup_suffix (String.concat "." (p @ [ r.r_name ])) with
          | [] -> try_suffixes (List.tl p)
          | ids -> ids)
    in
    match try_suffixes path with
    | [] when path = [] ->
        (* the whole path was wrapper components: treat as bare *)
        resolve repo fs { r with r_path = [] }
    | ids -> ids
  end
