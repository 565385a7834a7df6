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
}

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
       build-time pass produced, so frozen models are bit-identical.
       Table [id] is [b_tables.(id)] read with [b_kv.(id)] columns;
       [b_slots] is an open-addressing index over the ids (see
       [find_slot]). *)
    mutable b_slots : int array;
    mutable b_tables : float array array;
    mutable b_kv : int array;
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
      b_slots = Array.make 16 (-1);
      b_tables = [||];
      b_kv = [||];
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

  (* Shape-and-content-based interning of pairwise tables.  Physical
     equality is a fast path; the structural fallback uses polymorphic
     [compare] so two nan entries at the same position still unify.  A
     table is only meaningful together with its column count [kv]: a 2x3
     matrix is not the same table as the same six floats read as 3x2, so
     edges may share a table id only when both shape and content
     agree. *)
  let same_table b id ~kv cost =
    b.b_kv.(id) = kv
    &&
    let t = b.b_tables.(id) in
    t == cost || (Array.length t = Array.length cost && compare t cost = 0)

  (* [b_slots] has a power-of-two length and is at most half full; a
     free slot holds -1.  Linear probing from the hash of [(kv, cost)]
     stops at the slot holding an equal table or at a free one, so a
     lookup allocates nothing. *)
  let find_slot b ~kv cost =
    let mask = Array.length b.b_slots - 1 in
    let s = ref (Hashtbl.seeded_hash kv cost land mask) in
    while b.b_slots.(!s) >= 0 && not (same_table b b.b_slots.(!s) ~kv cost) do
      s := (!s + 1) land mask
    done;
    !s

  let intern_table b ~kv cost =
    let s = find_slot b ~kv cost in
    if b.b_slots.(s) >= 0 then b.b_slots.(s)
    else begin
      let id = b.b_ntab in
      if id = Array.length b.b_tables then begin
        let cap = max 8 (2 * id) in
        let gt = Array.make cap [||] and gk = Array.make cap 0 in
        Array.blit b.b_tables 0 gt 0 id;
        Array.blit b.b_kv 0 gk 0 id;
        b.b_tables <- gt;
        b.b_kv <- gk
      end;
      b.b_tables.(id) <- cost;
      b.b_kv.(id) <- kv;
      b.b_ntab <- id + 1;
      b.b_slots.(s) <- id;
      if 2 * b.b_ntab > Array.length b.b_slots then begin
        b.b_slots <- Array.make (2 * Array.length b.b_slots) (-1);
        for t = 0 to b.b_ntab - 1 do
          b.b_slots.(find_slot b ~kv:b.b_kv.(t) b.b_tables.(t)) <- t
        done
      end;
      id
    end

  let add_edge b u v cost =
    check_node b u;
    check_node b v;
    if u = v then invalid_arg "Mrf.Builder.add_edge: self-edge";
    if Array.length cost <> b.b_labels.(u) * b.b_labels.(v) then
      invalid_arg "Mrf.Builder.add_edge: cost matrix size mismatch";
    if b.b_m = Array.length b.b_eu then grow_edges b;
    let id = intern_table b ~kv:b.b_labels.(v) cost in
    b.b_eu.(b.b_m) <- u;
    b.b_ev.(b.b_m) <- v;
    b.b_etab.(b.b_m) <- id;
    b.b_m <- b.b_m + 1

  let build b =
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
    let pot_off = Array.make (n_tables + 1) 0 in
    for id = 0 to n_tables - 1 do
      pot_off.(id + 1) <- pot_off.(id) + Array.length tables.(id)
    done;
    let pot = Array.make pot_off.(n_tables) 0.0 in
    Array.iteri
      (fun id tab -> Array.blit tab 0 pot pot_off.(id) (Array.length tab))
      tables;
    (* incidence CSR, each node's slice ordered by opposite endpoint id,
       then edge id *)
    let inc_off = Array.make (n + 1) 0 in
    for e = 0 to m - 1 do
      inc_off.(eu.(e) + 1) <- inc_off.(eu.(e) + 1) + 1;
      inc_off.(ev.(e) + 1) <- inc_off.(ev.(e) + 1) + 1
    done;
    for i = 0 to n - 1 do
      inc_off.(i + 1) <- inc_off.(i) + inc_off.(i + 1)
    done;
    (* A transpose instead of a per-node sort.  First [col] holds the
       slices in edge order, each slot carrying the opposite slot's
       code; then walking the nodes in order, and each slice in order,
       appends every code to its owner's slice, so node j receives its
       slots ordered by neighbour, then edge. *)
    let col = Array.make inc_off.(n) 0 in
    let cursor = Array.sub inc_off 0 n in
    for e = 0 to m - 1 do
      col.(cursor.(eu.(e))) <- e * 2;
      cursor.(eu.(e)) <- cursor.(eu.(e)) + 1;
      col.(cursor.(ev.(e))) <- (e * 2) + 1;
      cursor.(ev.(e)) <- cursor.(ev.(e)) + 1
    done;
    Array.blit inc_off 0 cursor 0 n;
    let owner_of code =
      let e = code / 2 in
      if code land 1 = 1 then eu.(e) else ev.(e)
    in
    let inc = Array.make inc_off.(n) 0 in
    for k = 0 to inc_off.(n) - 1 do
      let code = col.(k) in
      let j = owner_of code in
      inc.(cursor.(j)) <- code;
      cursor.(j) <- cursor.(j) + 1
    done;
    (* CSR neighbor column: the opposite endpoint of each incidence
       slot, so hot loops reach a neighbor id in one load instead of a
       code decode plus a dependent eu/ev load. *)
    for k = 0 to inc_off.(n) - 1 do
      col.(k) <- owner_of (inc.(k) lxor 1) (* the paired slot's node *)
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
    }
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

(* Pre-build sizing for fail-fast memory budgeting: the words building
   a compact model of the given shape and solving it with TRW-S
   allocate, garbage included, so the figure bounds the peak.  The
   terms follow the arrays [Builder.build], [Trws]'s state and its zoned
   solve allocate; headers and small records are folded into the
   constants. *)
let estimate_words ~nodes ~edges ~max_labels ~tables ~zones =
  let n = nodes and m = edges and l = max_labels in
  let model =
    (3 * n) (* labels, unary_off, inc_off *)
    + (n * l) (* unary *)
    + (7 * m) (* eu, ev, etab; inc and col, two slots per edge *)
    + (2 * tables * l * l) (* flat pot + retained caller tables *)
    + (3 * tables) (* pot_off, the table array, table headers *)
    + 16
  in
  let solve =
    (2 * m * l) (* message slab: k_u + k_v floats per edge *)
    + (2 * n * l) (* unary copy, gamma-weighted aggregates *)
    + (5 * m) (* out-offsets, chains, chain offsets, chain starts *)
    + (6 * n) (* split, msg_off, gamma, slot cursor, two labelings *)
    + (2 * l) + 256
  in
  (* Several zones: Trws copies every node and every interior edge into
     per-zone sub-models through [Builder].  Per edge, the copy keeps 7
     words, and 18 more are counted for what building it drops, which
     is less: the slots are reserved, interning allocates nothing and
     the build itself drops only its cursor array.  A boundary edge
     needs at most 9 + 2l words instead, within the 25 + 2l + 5 an
     interior edge is counted at here and in [solve].  Per node: the
     sub-model's arrays and unaries, the effective-unary copy, the zone
     bookkeeping and the labelings of up to 8 rounds.  The constants
     leave headroom over these terms, so the figure stays an upper
     bound.  Per zone: its tables and fixed-size records. *)
  let zoned =
    if zones <= 1 then 0
    else
      (25 * m)
      + ((63 + (3 * l)) * n)
      + (zones * ((tables * ((l * l) + 3)) + 400 + (8 * ((2 * l) + 40))))
  in
  model + solve + zoned
