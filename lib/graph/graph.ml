type t = {
  n : int;
  edges : (int * int) array;    (* u < v, sorted *)
  adj_off : int array;          (* CSR offsets, length n+1 *)
  adj : int array;              (* CSR neighbour lists, sorted per node *)
}

let canonical u v = if u < v then (u, v) else (v, u)

let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative node count";
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Graph.of_edges: edge (%d,%d) out of range" u v);
      if u = v then
        invalid_arg (Printf.sprintf "Graph.of_edges: self-loop at %d" u))
    edge_list;
  let edges =
    List.map (fun (u, v) -> canonical u v) edge_list
    |> List.sort_uniq compare |> Array.of_list
  in
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    adj_off.(i + 1) <- adj_off.(i) + deg.(i)
  done;
  let adj = Array.make adj_off.(n) 0 in
  let cursor = Array.copy adj_off in
  Array.iter
    (fun (u, v) ->
      adj.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  let sort_slice lo hi =
    let slice = Array.sub adj lo (hi - lo) in
    Array.sort compare slice;
    Array.blit slice 0 adj lo (hi - lo)
  in
  for i = 0 to n - 1 do
    sort_slice adj_off.(i) adj_off.(i + 1)
  done;
  { n; edges; adj_off; adj }

let n_nodes t = t.n
let n_edges t = Array.length t.edges
let degree t u = t.adj_off.(u + 1) - t.adj_off.(u)

let neighbors t u = Array.sub t.adj t.adj_off.(u) (degree t u)

let mem_edge t u v =
  let u, v = canonical u v in
  (* binary search in u's sorted neighbour slice *)
  let lo = ref t.adj_off.(u) and hi = ref t.adj_off.(u + 1) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = t.adj.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid
  done;
  !found

let edges t = Array.copy t.edges
let iter_edges f t = Array.iter (fun (u, v) -> f u v) t.edges

let fold_neighbors f t u init =
  let acc = ref init in
  for k = t.adj_off.(u) to t.adj_off.(u + 1) - 1 do
    acc := f t.adj.(k) !acc
  done;
  !acc

let max_degree t =
  let best = ref 0 in
  for i = 0 to t.n - 1 do
    if degree t i > !best then best := degree t i
  done;
  !best

let avg_degree t =
  if t.n = 0 then 0.0
  else 2.0 *. float_of_int (n_edges t) /. float_of_int t.n
