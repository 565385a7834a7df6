(* the product of a non-empty list of scoped factors *)
let join = function
  | (_, f) :: more ->
      List.fold_left (fun acc (_, g) -> Mfactor.product acc g) f more
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
    match
      Netdiv_graph.Elim_order.plan ~keep:query ~n ~card
        ~max_entries:Mfactor.max_entries ~max_total:max_int
        (Array.of_list (List.filter free nodes))
        scopes
    with
    | Some order -> order
    | None ->
        invalid_arg "Elim.marginal: a planned factor exceeds the table limit"
  in
  let restrict f =
    List.fold_left (fun f (v, x) -> Mfactor.restrict f v x) f observed
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
        (List.filter (( <> ) v) s, Mfactor.sum_out (join touching) v) :: rest)
    order;
  let joined = join !factors in
  let dist =
    Array.init (card query) (fun k ->
        if List.for_all (fun (_, x) -> x = k) on_query then
          Mfactor.total (Mfactor.restrict joined query k)
        else 0.0)
  in
  let z = Array.fold_left ( +. ) 0.0 dist in
  if z <= 0.0 then
    invalid_arg "Elim.marginal: evidence has probability zero";
  Array.map (fun p -> p /. z) dist
