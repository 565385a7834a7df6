module Bucket = Netdiv_graph.Bucket

let marginal ~n ~parents ~card ~factor evidence query =
  if List.exists (fun (v, x) -> List.assoc v evidence <> x) evidence then
    invalid_arg "Elim.marginal: evidence has probability zero";
  if List.exists (fun (v, x) -> x < 0 || x >= card v) evidence then
    invalid_arg "Elim.marginal: evidence state out of range";
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
  let order =
    match
      Netdiv_graph.Elim_order.plan ~keep:query ~n ~card
        ~max_entries:Mfactor.max_entries ~max_total:max_int
        (Array.of_list (List.filter free nodes))
        (List.map scope nodes)
    with
    | Some order -> order
    | None ->
        invalid_arg "Elim.marginal: a planned factor exceeds the table limit"
  in
  (* evidence fixes an observed variable by an offset into the CPT *)
  let x = Array.make n 0 in
  List.iter (fun (v, s) -> x.(v) <- s) observed;
  let condition (f : Bucket.factor) =
    let cols =
      List.filter
        (fun j -> free f.vars.(j))
        (List.init (Array.length f.vars) Fun.id)
    in
    let pick a = Array.of_list (List.map (Array.get a) cols) in
    { f with vars = pick f.vars; strides = pick f.strides;
      off = Bucket.index f x }
  in
  (* filed last node first, so each bucket holds its messages, latest
     first, ahead of the CPTs in node order *)
  let _, rest =
    Option.get
      (Bucket.eliminate Bucket.Sum_product ~card ~n order
         (List.rev_map (fun i -> condition (factor i)) nodes))
  in
  let dist =
    Array.init (card query) (fun k ->
        if List.for_all (fun (_, s) -> s = k) on_query then begin
          x.(query) <- k;
          (* what is left lies over the query or over nothing: its
             product in filing order, plus 0.0 so that -0.0 reads 0.0 *)
          0.0
          +. List.fold_left
               (fun p (f : Bucket.factor) -> p *. f.table.(Bucket.index f x))
               1.0 rest
        end
        else 0.0)
  in
  let z = Array.fold_left ( +. ) 0.0 dist in
  if z <= 0.0 then
    invalid_arg "Elim.marginal: evidence has probability zero";
  Array.map (fun p -> p /. z) dist
