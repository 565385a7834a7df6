type t = {
  n : int;
  labels : int array;          (* label count per node *)
  unary_off : int array;       (* n+1 prefix sums over labels *)
  unary : float array;         (* flat unary costs *)
  m : int;
  eu : int array;              (* edge endpoints, u side *)
  ev : int array;              (* edge endpoints, v side *)
  etab : int array;            (* per-edge id of its interned table *)
  tables : float array array;  (* distinct pairwise tables (caller arrays) *)
  pot_off : int array;         (* n_tables+1 prefix sums into pot *)
  pot : float array;           (* flat concatenation of the tables *)
  inc_off : int array;         (* n+1 CSR offsets into inc *)
  inc : int array;             (* encoded incidences: edge*2 + (1 if node=u) *)
  col : int array;             (* opposite endpoint per incidence slot *)
  classes : Kernel.t array;    (* per-table message-kernel classification *)
}

(* Shape-and-content-based interning of pairwise tables.  Physical
   equality is a fast path; the structural fallback uses polymorphic
   [compare] so two nan entries at the same position still unify.  The
   key carries [kv] (the column count) because a table is only
   meaningful together with its shape: the kernel classification of a
   2x3 matrix differs from that of the same six floats read as 3x2, so
   edges may share a table id only when both shape and content agree. *)
module Table_key = struct
  type t = int * float array

  let equal (kva, a) (kvb, b) =
    kva = kvb
    && (a == b || (Array.length a = Array.length b && compare a b = 0))

  let hash ((kv, a) : t) = Hashtbl.hash (kv, Hashtbl.hash a)
end

module Table_tbl = Hashtbl.Make (Table_key)

module Builder = struct
  type b = {
    b_labels : int array;
    b_unary_off : int array;
    b_unary : float array;
    (* Compact growable edge storage: three parallel int slots per edge
       instead of a boxed (u, v, cost) cons list.  At 100k-host scale the
       transient list (~12 words/edge) would outweigh the frozen model;
       the slots are exactly what the frozen form keeps. *)
    mutable b_eu : int array;
    mutable b_ev : int array;
    mutable b_etab : int array;
    mutable b_m : int;
    (* Pairwise tables are interned as edges arrive.  Ids are assigned in
       first-use add_edge order — the same order the historical
       build-time pass produced, so frozen models are bit-identical. *)
    b_interned : int Table_tbl.t;
    mutable b_tables : float array array;
    mutable b_sku : int array;   (* row count of table id *)
    mutable b_skv : int array;   (* column count of table id *)
    mutable b_ntab : int;
    mutable built : bool;
  }

  let create ~label_counts =
    let edges_hint = 0 in
    let n = Array.length label_counts in
    Array.iteri
      (fun i k ->
        if k < 1 then
          invalid_arg
            (Printf.sprintf "Mrf.Builder.create: node %d has %d labels" i k))
      label_counts;
    let off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      off.(i + 1) <- off.(i) + label_counts.(i)
    done;
    let cap = max 0 edges_hint in
    {
      b_labels = Array.copy label_counts;
      b_unary_off = off;
      b_unary = Array.make off.(n) 0.0;
      b_eu = Array.make cap 0;
      b_ev = Array.make cap 0;
      b_etab = Array.make cap 0;
      b_m = 0;
      b_interned = Table_tbl.create 16;
      b_tables = [||];
      b_sku = [||];
      b_skv = [||];
      b_ntab = 0;
      built = false;
    }

  let check_node b node =
    if node < 0 || node >= Array.length b.b_labels then
      invalid_arg (Printf.sprintf "Mrf.Builder: node %d out of range" node)

  let add_unary b ~node ~label cost =
    check_node b node;
    if label < 0 || label >= b.b_labels.(node) then
      invalid_arg
        (Printf.sprintf "Mrf.Builder.add_unary: label %d out of range" label);
    let k = b.b_unary_off.(node) + label in
    b.b_unary.(k) <- b.b_unary.(k) +. cost

  let set_unary b ~node costs =
    check_node b node;
    if Array.length costs <> b.b_labels.(node) then
      invalid_arg "Mrf.Builder.set_unary: wrong vector length";
    Array.blit costs 0 b.b_unary b.b_unary_off.(node) (Array.length costs)

  let grow_edges_to b cap' =
    let g a =
      let a' = Array.make cap' 0 in
      Array.blit a 0 a' 0 b.b_m;
      a'
    in
    b.b_eu <- g b.b_eu;
    b.b_ev <- g b.b_ev;
    b.b_etab <- g b.b_etab

  let grow_edges b = grow_edges_to b (max 8 (2 * Array.length b.b_eu))

  (* Presize the edge slots for a streamed instance of known size, so
     the builder never reallocates mid-stream. *)
  let reserve_edges b hint =
    if hint > Array.length b.b_eu then grow_edges_to b hint

  let intern_table b ~ku ~kv cost =
    match Table_tbl.find_opt b.b_interned (kv, cost) with
    | Some id -> id
    | None ->
        let id = b.b_ntab in
        if id = Array.length b.b_tables then begin
          let cap' = max 8 (2 * id) in
          let gt = Array.make cap' [||] in
          Array.blit b.b_tables 0 gt 0 id;
          b.b_tables <- gt;
          let gi a =
            let a' = Array.make cap' 0 in
            Array.blit a 0 a' 0 id;
            a'
          in
          b.b_sku <- gi b.b_sku;
          b.b_skv <- gi b.b_skv
        end;
        Table_tbl.add b.b_interned (kv, cost) id;
        b.b_tables.(id) <- cost;
        b.b_sku.(id) <- ku;
        b.b_skv.(id) <- kv;
        b.b_ntab <- id + 1;
        id

  let add_edge b u v cost =
    check_node b u;
    check_node b v;
    if u = v then invalid_arg "Mrf.Builder.add_edge: self-edge";
    if Array.length cost <> b.b_labels.(u) * b.b_labels.(v) then
      invalid_arg "Mrf.Builder.add_edge: cost matrix size mismatch";
    if b.b_m = Array.length b.b_eu then grow_edges b;
    let id = intern_table b ~ku:b.b_labels.(u) ~kv:b.b_labels.(v) cost in
    b.b_eu.(b.b_m) <- u;
    b.b_ev.(b.b_m) <- v;
    b.b_etab.(b.b_m) <- id;
    b.b_m <- b.b_m + 1

  let build ?(specialize = true) b =
    if b.built then invalid_arg "Mrf.Builder.build: builder already used";
    b.built <- true;
    let n = Array.length b.b_labels in
    let m = b.b_m in
    (* The builder already holds the frozen layout: trim the growable
       slots to size.  Tables were hash-consed at [add_edge] time —
       edges carrying equal-shape, equal-content matrices share one
       table id, assigned in first-use edge order, so ids depend only on
       the sequence of [add_edge] calls. *)
    let trim a = if Array.length a = m then a else Array.sub a 0 m in
    let eu = trim b.b_eu and ev = trim b.b_ev and etab = trim b.b_etab in
    let n_tables = b.b_ntab in
    let tables = Array.sub b.b_tables 0 n_tables in
    (* Classify each distinct table once: the solvers dispatch every
       message update on this tag, replacing the O(L^2) scan with an
       O(L) Potts or O(L + nnz) sparse kernel where the structure
       permits (see kernel.mli). *)
    let classes =
      if specialize then
        Array.mapi
          (fun id tab -> Kernel.classify ~ku:b.b_sku.(id) ~kv:b.b_skv.(id) tab)
          tables
      else Array.map (fun _ -> Kernel.Generic) tables
    in
    let pot_off = Array.make (n_tables + 1) 0 in
    for id = 0 to n_tables - 1 do
      pot_off.(id + 1) <- pot_off.(id) + Array.length tables.(id)
    done;
    let pot = Array.make pot_off.(n_tables) 0.0 in
    Array.iteri
      (fun id tab -> Array.blit tab 0 pot pot_off.(id) (Array.length tab))
      tables;
    (* incidence CSR, sorted per node by opposite endpoint id *)
    let deg = Array.make n 0 in
    for e = 0 to m - 1 do
      deg.(eu.(e)) <- deg.(eu.(e)) + 1;
      deg.(ev.(e)) <- deg.(ev.(e)) + 1
    done;
    let inc_off = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      inc_off.(i + 1) <- inc_off.(i) + deg.(i)
    done;
    let inc = Array.make inc_off.(n) 0 in
    let cursor = Array.copy inc_off in
    for e = 0 to m - 1 do
      inc.(cursor.(eu.(e))) <- (e * 2) + 1;
      cursor.(eu.(e)) <- cursor.(eu.(e)) + 1;
      inc.(cursor.(ev.(e))) <- e * 2;
      cursor.(ev.(e)) <- cursor.(ev.(e)) + 1
    done;
    (* sort each node's slice by opposite endpoint, then edge id *)
    let opposite_of code =
      let e = code / 2 in
      if code land 1 = 1 then ev.(e) else eu.(e)
    in
    for i = 0 to n - 1 do
      let lo = inc_off.(i) and hi = inc_off.(i + 1) in
      let slice = Array.sub inc lo (hi - lo) in
      Array.sort
        (fun a b ->
          let c = compare (opposite_of a) (opposite_of b) in
          if c <> 0 then c else compare a b)
        slice;
      Array.blit slice 0 inc lo (hi - lo)
    done;
    (* CSR neighbor column: the opposite endpoint of each incidence
       slot, so hot loops reach a neighbor id in one load instead of a
       code decode plus a dependent eu/ev load. *)
    let col = Array.make inc_off.(n) 0 in
    for k = 0 to inc_off.(n) - 1 do
      col.(k) <- opposite_of inc.(k)
    done;
    {
      n;
      labels = b.b_labels;
      unary_off = b.b_unary_off;
      unary = b.b_unary;
      m;
      eu;
      ev;
      etab;
      tables;
      pot_off;
      pot;
      inc_off;
      inc;
      col;
      classes;
    }
end

let n_nodes t = t.n
let n_edges t = t.m
let label_count t i = t.labels.(i)

let max_label_count t = Array.fold_left max 1 t.labels

let unary t ~node ~label = t.unary.(t.unary_off.(node) + label)

let edge_endpoints t e = (t.eu.(e), t.ev.(e))
let edge_cost t e = t.tables.(t.etab.(e))
let edge_table_id t e = t.etab.(e)

let n_tables t = Array.length t.tables
let pot_words t = Array.length t.pot

let table_class t id = t.classes.(id)

let specialized t =
  Array.exists (function Kernel.Generic -> false | _ -> true) t.classes

(* Degradation rung for the anytime harness: same model, every table
   forced onto the generic O(L²) kernel.  Cheap (shares all potential
   storage with [t]) and bitwise-equivalent by the kernel contract —
   used when a specialized solve keeps failing and the harness wants to
   rule the specialized paths out. *)
let despecialize t =
  { t with classes = Array.map (fun _ -> Kernel.Generic) t.classes }

type kernel_counts = {
  potts_tables : int;
  sparse_tables : int;
  generic_tables : int;
  potts_edges : int;
  sparse_edges : int;
  generic_edges : int;
}

let kernel_counts t =
  let pt = ref 0 and st = ref 0 and gt = ref 0 in
  Array.iter
    (function
      | Kernel.Potts _ -> incr pt
      | Kernel.Const_sparse _ -> incr st
      | Kernel.Generic -> incr gt)
    t.classes;
  let pe = ref 0 and se = ref 0 and ge = ref 0 in
  for e = 0 to t.m - 1 do
    match t.classes.(t.etab.(e)) with
    | Kernel.Potts _ -> incr pe
    | Kernel.Const_sparse _ -> incr se
    | Kernel.Generic -> incr ge
  done;
  {
    potts_tables = !pt;
    sparse_tables = !st;
    generic_tables = !gt;
    potts_edges = !pe;
    sparse_edges = !se;
    generic_edges = !ge;
  }

let pot_words_unshared t =
  let acc = ref 0 in
  for e = 0 to t.m - 1 do
    let id = t.etab.(e) in
    acc := !acc + (t.pot_off.(id + 1) - t.pot_off.(id))
  done;
  !acc

let validate_labeling t x =
  if Array.length x <> t.n then
    invalid_arg "Mrf.validate_labeling: wrong length";
  Array.iteri
    (fun i xi ->
      if xi < 0 || xi >= t.labels.(i) then
        invalid_arg
          (Printf.sprintf "Mrf.validate_labeling: label %d at node %d" xi i))
    x

let energy t x =
  validate_labeling t x;
  let acc = ref 0.0 in
  for i = 0 to t.n - 1 do
    acc := !acc +. t.unary.(t.unary_off.(i) + x.(i))
  done;
  for e = 0 to t.m - 1 do
    let u = t.eu.(e) and v = t.ev.(e) in
    acc :=
      !acc
      +. t.pot.(t.pot_off.(t.etab.(e)) + (x.(u) * t.labels.(v)) + x.(v))
  done;
  !acc

let incident t i =
  Array.map
    (fun code -> (code / 2, code land 1 = 1))
    (Array.sub t.inc t.inc_off.(i) (t.inc_off.(i + 1) - t.inc_off.(i)))

let opposite t ~edge i =
  if t.eu.(edge) = i then t.ev.(edge)
  else if t.ev.(edge) = i then t.eu.(edge)
  else invalid_arg "Mrf.opposite: node not on edge"

(* Greedy first-fit coloring in node order.  Deterministic: colors
   depend only on the frozen incidence structure, never on job counts,
   so the chromatic-BP schedule built on top inherits the pool's
   reproducibility contract.  [mark] is stamped with the current node id
   instead of being cleared between nodes, keeping the pass O(n + m). *)
let greedy_coloring t =
  let n = t.n in
  let color = Array.make n (-1) in
  let ncolors = ref 0 in
  (* first-fit needs at most (max degree + 1) <= n colors *)
  let mark = Array.make (n + 1) (-1) in
  for i = 0 to n - 1 do
    let lo = t.inc_off.(i) and hi = t.inc_off.(i + 1) in
    for k = lo to hi - 1 do
      let cj = color.(t.col.(k)) in
      if cj >= 0 then mark.(cj) <- i
    done;
    let c = ref 0 in
    while mark.(!c) = i do
      incr c
    done;
    color.(i) <- !c;
    if !c >= !ncolors then ncolors := !c + 1
  done;
  (color, max 1 !ncolors)

(* Reparameterization: same structure, different unary slab.  Shares
   every other array with [t]; the caller's array is used directly.
   This is what the zoned solver uses to push per-round Lagrangian
   penalties into a zone submodel without rebuilding it. *)
let with_unaries t u =
  if Array.length u <> Array.length t.unary then
    invalid_arg "Mrf.with_unaries: wrong unary length";
  { t with unary = u }

module Compact = struct
  type arrays = {
    i_labels : int array;
    i_unary_off : int array;
    i_unary : float array;
    i_eu : int array;
    i_ev : int array;
    i_etab : int array;
    i_pot_off : int array;
    i_pot : float array;
    i_inc_off : int array;
    i_inc : int array;
    i_col : int array;
    i_classes : Kernel.t array;
  }

  let arrays t =
    {
      i_labels = t.labels;
      i_unary_off = t.unary_off;
      i_unary = t.unary;
      i_eu = t.eu;
      i_ev = t.ev;
      i_etab = t.etab;
      i_pot_off = t.pot_off;
      i_pot = t.pot;
      i_inc_off = t.inc_off;
      i_inc = t.inc;
      i_col = t.col;
      i_classes = t.classes;
    }

  let[@inline] degree t i = t.inc_off.(i + 1) - t.inc_off.(i)
  let[@inline] row_start t i = t.inc_off.(i)
  let[@inline] row_stop t i = t.inc_off.(i + 1)
  let[@inline] neighbor t k = t.col.(k)
  let[@inline] edge t k = t.inc.(k) lsr 1
  let[@inline] node_is_u t k = t.inc.(k) land 1 = 1
end

(* ---- memory accounting ------------------------------------------------- *)

type footprint = {
  f_nodes : int;
  f_edges : int;
  f_tables : int;
  f_words : int;
  f_words_per_node : float;
  f_words_per_edge : float;
  f_flat_words : int;
}

(* one header word per array plus one word per element (floats are
   unboxed inside float arrays) *)
let words_of_len len = len + 1

let kernel_payload_words = function
  | Kernel.Generic -> 0
  | Kernel.Potts { diag; _ } -> 3 + words_of_len (Array.length diag)
  | Kernel.Const_sparse { col_idx; col_val; row_idx; row_val; _ } ->
      let nested a =
        Array.fold_left (fun acc x -> acc + words_of_len (Array.length x)) 1 a
      in
      8 + nested col_idx + nested col_val + nested row_idx + nested row_val

let footprint t =
  let compact =
    words_of_len t.n (* labels *)
    + words_of_len (t.n + 1) (* unary_off *)
    + words_of_len (Array.length t.unary)
    + (3 * words_of_len t.m) (* eu, ev, etab *)
    + words_of_len (Array.length t.pot_off)
    + words_of_len (Array.length t.pot)
    + words_of_len (t.n + 1) (* inc_off *)
    + (2 * words_of_len (Array.length t.inc)) (* inc + col *)
    (* the interned caller tables are retained alongside the flat copy *)
    + Array.fold_left
        (fun acc tab -> acc + words_of_len (Array.length tab))
        (words_of_len (Array.length t.tables))
        t.tables
    + Array.fold_left
        (fun acc c -> acc + kernel_payload_words c)
        (words_of_len (Array.length t.classes))
        t.classes
  in
  (* What the same model costs in the pre-compact layout this module
     replaced: a boxed (u, v, cost) record per edge in a cons list, an
     unshared cost matrix per edge, and per-node adjacency lists of
     boxed (edge, is_u) pairs.  Node-side storage is identical, so the
     ratio isolates the edge-structure win. *)
  let flat =
    words_of_len t.n
    + words_of_len (t.n + 1)
    + words_of_len (Array.length t.unary)
    + (t.m * (4 + 3)) (* 3-field edge block + cons cell *)
    + pot_words_unshared t
    + t.m (* header per unshared matrix copy *)
    + (2 * t.m * (3 + 3)) (* (edge, is_u) tuple + cons cell per incidence *)
  in
  {
    f_nodes = t.n;
    f_edges = t.m;
    f_tables = Array.length t.tables;
    f_words = compact;
    f_words_per_node = (if t.n = 0 then 0.0 else float compact /. float t.n);
    f_words_per_edge = (if t.m = 0 then 0.0 else float compact /. float t.m);
    f_flat_words = flat;
  }

let pp_footprint ppf f =
  Format.fprintf ppf
    "mrf footprint: %d nodes, %d edges, %d tables, %d words (%.1f/node, \
     %.1f/edge); flat layout would use %d words (%.1fx)"
    f.f_nodes f.f_edges f.f_tables f.f_words f.f_words_per_node
    f.f_words_per_edge f.f_flat_words
    (if f.f_words = 0 then 1.0 else float f.f_flat_words /. float f.f_words)

(* Pre-build sizing for fail-fast memory budgeting: the words a compact
   model of the given shape will occupy, plus the TRW-S solve-time slabs
   (messages, reparameterized unaries, bound aggregation) — the peak a
   [solve] on that model commits to. *)
let estimate_words ~nodes ~edges ~max_labels ~tables =
  let n = nodes and m = edges and l = max_labels in
  let model =
    (3 * (n + 1)) (* labels, unary_off, inc_off *)
    + (n * l) (* unary *)
    + (3 * m) (* eu, ev, etab *)
    + (tables + 1)
    + (2 * tables * l * l) (* flat pot + retained caller tables *)
    + (4 * m) (* inc + col *)
  in
  let solve =
    (2 * m * l) (* fw/bw message slabs *)
    + (2 * (m + 1)) (* per-direction offsets *)
    + (2 * n * l) (* reparameterized unary + bound aggregation slabs *)
    + (4 * n) (* chain bookkeeping, labeling, coloring scratch *)
  in
  model + solve
