module type FACTOR = sig
  type t

  val max_entries : int
  val product : t -> t -> t
  val sum_out : t -> int -> t
  val restrict : t -> int -> int -> t
  val total : t -> float
end

(* The greedy order over the free variables [vars] (ascending ids) but
   [query], on the moral graph of [scopes] with fill-in.  Table sizes
   saturate just above [max_entries]; eliminating a variable changes the
   sizes of its neighbours only. *)
let plan ~n ~card ~max_entries ~query vars scopes =
  let m = Array.length vars in
  let local = Array.make n (-1) in
  Array.iteri (fun a v -> local.(v) <- a) vars;
  let nbrs = Array.make m [] in
  let link a b =
    if a <> b && not (List.mem b nbrs.(a)) then nbrs.(a) <- b :: nbrs.(a)
  in
  let clique s = List.iter (fun a -> List.iter (link a) s) s in
  List.iter (fun s -> clique (List.map (Array.get local) s)) scopes;
  let alive = Array.make m true in
  let size a =
    List.fold_left
      (fun s b ->
        if alive.(b) then min (max_entries + 1) (s * card vars.(b)) else s)
      (card vars.(a)) nbrs.(a)
  in
  let sizes = Array.init m size in
  let order = ref [] in
  for _ = 2 to m do
    let v = ref (-1) in
    for a = 0 to m - 1 do
      if alive.(a) && vars.(a) <> query && (!v < 0 || sizes.(a) < sizes.(!v))
      then v := a
    done;
    let v = !v in
    if sizes.(v) > max_entries then
      invalid_arg "Elim.marginal: a planned factor exceeds the table limit";
    alive.(v) <- false;
    let live = List.filter (Array.get alive) nbrs.(v) in
    clique live;
    List.iter (fun a -> sizes.(a) <- size a) live;
    order := vars.(v) :: !order
  done;
  List.rev !order

module Make (F : FACTOR) = struct
  (* the product of a non-empty list of scoped factors *)
  let join = function
    | (_, f) :: more ->
        List.fold_left (fun acc (_, g) -> F.product acc g) f more
    | [] -> invalid_arg "Elim.join: no factor"

  let marginal ~n ~parents ~card ~factor evidence query =
    if List.exists (fun (v, x) -> List.assoc v evidence <> x) evidence then
      invalid_arg "Elim.marginal: evidence has probability zero";
    let on_query, observed =
      List.partition (fun (v, _) -> v = query) evidence
    in
    (* parents precede children: one backward sweep closes the query and
       the evidence under ancestors *)
    let relevant = Array.make n false in
    List.iter (fun v -> relevant.(v) <- true) (query :: List.map fst evidence);
    for i = n - 1 downto 0 do
      if relevant.(i) then
        Array.iter (fun p -> relevant.(p) <- true) (parents i)
    done;
    let nodes = List.filter (Array.get relevant) (List.init n Fun.id) in
    let free v = not (List.mem_assoc v observed) in
    let scope i = List.filter free (i :: Array.to_list (parents i)) in
    let scopes = List.map scope nodes in
    let order =
      plan ~n ~card ~max_entries:F.max_entries ~query
        (Array.of_list (List.filter free nodes))
        scopes
    in
    let restrict f =
      List.fold_left (fun f (v, x) -> F.restrict f v x) f observed
    in
    let factors =
      ref (List.map2 (fun i s -> (s, restrict (factor i))) nodes scopes)
    in
    List.iter
      (fun v ->
        let touching, rest =
          List.partition (fun (s, _) -> List.mem v s) !factors
        in
        let s = List.sort_uniq compare (List.concat_map fst touching) in
        factors :=
          (List.filter (( <> ) v) s, F.sum_out (join touching) v) :: rest)
      order;
    let joined = join !factors in
    let dist =
      Array.init (card query) (fun k ->
          if List.for_all (fun (_, x) -> x = k) on_query then
            F.total (F.restrict joined query k)
          else 0.0)
    in
    let z = Array.fold_left ( +. ) 0.0 dist in
    if z <= 0.0 then
      invalid_arg "Elim.marginal: evidence has probability zero";
    Array.map (fun p -> p /. z) dist
end
