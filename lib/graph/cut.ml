(* Unit-capacity Edmonds-Karp on the undirected graph: each undirected
   edge becomes a pair of directed arcs with capacity 1 each; residual
   capacities live in a hashtable keyed by directed pair. *)

let check g source sink =
  let n = Graph.n_nodes g in
  if source < 0 || source >= n || sink < 0 || sink >= n then
    invalid_arg "Cut: endpoint out of range";
  if source = sink then invalid_arg "Cut: source equals sink"

let residual_bfs g capacity source sink =
  let n = Graph.n_nodes g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  seen.(source) <- true;
  let queue = Queue.create () in
  Queue.add source queue;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.fold_neighbors
      (fun v () ->
        if (not seen.(v)) && Hashtbl.find capacity (u, v) > 0 then begin
          seen.(v) <- true;
          parent.(v) <- u;
          if v = sink then found := true else Queue.add v queue
        end)
      g u ()
  done;
  if !found then Some parent else None

let run_max_flow g ~source ~sink =
  check g source sink;
  let capacity = Hashtbl.create (4 * Graph.n_edges g) in
  Graph.iter_edges
    (fun u v ->
      Hashtbl.replace capacity (u, v) 1;
      Hashtbl.replace capacity (v, u) 1)
    g;
  let flow = ref 0 in
  let continue = ref true in
  while !continue do
    match residual_bfs g capacity source sink with
    | None -> continue := false
    | Some parent ->
        incr flow;
        let rec push v =
          if v <> source then begin
            let u = parent.(v) in
            Hashtbl.replace capacity (u, v) (Hashtbl.find capacity (u, v) - 1);
            Hashtbl.replace capacity (v, u) (Hashtbl.find capacity (v, u) + 1);
            push u
          end
        in
        push sink
  done;
  (!flow, capacity)

let max_flow g ~source ~sink = fst (run_max_flow g ~source ~sink)

let min_edge_cut g ~source ~sink =
  let _, capacity = run_max_flow g ~source ~sink in
  (* source side of the residual graph *)
  let n = Graph.n_nodes g in
  let side = Array.make n false in
  side.(source) <- true;
  let queue = Queue.create () in
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.fold_neighbors
      (fun v () ->
        if (not side.(v)) && Hashtbl.find capacity (u, v) > 0 then begin
          side.(v) <- true;
          Queue.add v queue
        end)
      g u ()
  done;
  let cut = ref [] in
  Graph.iter_edges
    (fun u v ->
      match (side.(u), side.(v)) with
      | true, false -> cut := (u, v) :: !cut
      | false, true -> cut := (v, u) :: !cut
      | _ -> ())
    g;
  List.rev !cut

let is_cut g ~source ~sink edges =
  check g source sink;
  let removed = Hashtbl.create (List.length edges) in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace removed (min u v, max u v) ())
    edges;
  let n = Graph.n_nodes g in
  let seen = Array.make n false in
  seen.(source) <- true;
  let queue = Queue.create () in
  Queue.add source queue;
  let reached = ref false in
  while (not !reached) && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.fold_neighbors
      (fun v () ->
        if
          (not seen.(v))
          && not (Hashtbl.mem removed (min u v, max u v))
        then begin
          seen.(v) <- true;
          if v = sink then reached := true else Queue.add v queue
        end)
      g u ()
  done;
  not !reached
