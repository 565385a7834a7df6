let degree_histogram g =
  let n = Graph.n_nodes g in
  if n = 0 then [||]
  else begin
    let hist = Array.make (Graph.max_degree g + 1) 0 in
    for i = 0 to n - 1 do
      let d = Graph.degree g i in
      hist.(d) <- hist.(d) + 1
    done;
    hist
  end

let density g =
  let n = Graph.n_nodes g in
  if n < 2 then 0.0
  else
    2.0 *. float_of_int (Graph.n_edges g)
    /. float_of_int (n * (n - 1))

let local_clustering g u =
  let nbrs = Graph.neighbors g u in
  let d = Array.length nbrs in
  if d < 2 then 0.0
  else begin
    let linked = ref 0 in
    for i = 0 to d - 1 do
      for j = i + 1 to d - 1 do
        if Graph.mem_edge g nbrs.(i) nbrs.(j) then incr linked
      done
    done;
    2.0 *. float_of_int !linked /. float_of_int (d * (d - 1))
  end

let average_clustering g =
  let n = Graph.n_nodes g in
  if n = 0 then 0.0
  else begin
    let total = ref 0.0 in
    for u = 0 to n - 1 do
      total := !total +. local_clustering g u
    done;
    !total /. float_of_int n
  end

let sources ?(sample = 64) ?rng g =
  let n = Graph.n_nodes g in
  match rng with
  | Some rng when n > sample ->
      List.init sample (fun _ -> Random.State.int rng n)
  | _ -> List.init n Fun.id

let diameter ?sample ?rng g =
  let best = ref 0 in
  List.iter
    (fun src ->
      let dist = Traversal.bfs g src in
      Array.iter (fun d -> if d > !best then best := d) dist)
    (sources ?sample ?rng g);
  !best

let average_path_length ?sample ?rng g =
  let total = ref 0.0 and pairs = ref 0 in
  List.iter
    (fun src ->
      let dist = Traversal.bfs g src in
      Array.iter
        (fun d ->
          if d > 0 then begin
            total := !total +. float_of_int d;
            incr pairs
          end)
        dist)
    (sources ?sample ?rng g);
  if !pairs = 0 then 0.0 else !total /. float_of_int !pairs
