let max_edges n = n * (n - 1) / 2

(* Sample [m] distinct edges by rejection; dense graphs fall back to
   shuffling the full edge universe. *)
let gnm ~rng ~n ~m =
  if m < 0 || m > max_edges n then
    invalid_arg
      (Printf.sprintf "Gen.gnm: m = %d out of range for n = %d" m n);
  if 2 * m > max_edges n then begin
    (* dense: Fisher-Yates over all candidate edges *)
    let all = Array.make (max_edges n) (0, 0) in
    let k = ref 0 in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        all.(!k) <- (u, v);
        incr k
      done
    done;
    for i = Array.length all - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    Graph.of_edges ~n (Array.to_list (Array.sub all 0 m))
  end
  else begin
    let seen = Hashtbl.create (2 * m) in
    let edges = ref [] in
    let count = ref 0 in
    while !count < m do
      let u = Random.State.int rng n in
      let v = Random.State.int rng n in
      if u <> v then begin
        let key = if u < v then (u, v) else (v, u) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          edges := key :: !edges;
          incr count
        end
      end
    done;
    Graph.of_edges ~n !edges
  end

let avg_degree ~rng ~n ~degree = gnm ~rng ~n ~m:(n * degree / 2)

(* Streaming form of [connected_avg_degree]: each accepted edge is
   handed to [f] (with [u < v]) instead of being consed into a resident
   list, so a caller can emit a zone's links straight into a compact
   encoder.  The RNG draw sequence is identical to the materialized
   variant, which is implemented on top — the same seed yields the same
   edge set either way. *)
let iter_connected_avg_degree ~rng ~n ~degree f =
  let m = n * degree / 2 in
  if n > 0 && m < n - 1 then
    invalid_arg "Gen.connected_avg_degree: degree too small for connectivity";
  (* random spanning tree: attach each node to a uniformly chosen earlier
     node after a random permutation (uniform random recursive tree) *)
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  let seen = Hashtbl.create (2 * m) in
  let add u v =
    if u <> v then begin
      let lo = min u v and hi = max u v in
      if not (Hashtbl.mem seen (lo, hi)) then begin
        Hashtbl.add seen (lo, hi) ();
        f lo hi;
        true
      end
      else false
    end
    else false
  in
  for i = 1 to n - 1 do
    let parent = perm.(Random.State.int rng i) in
    ignore (add perm.(i) parent)
  done;
  let count = ref (n - 1) in
  while !count < m do
    let u = Random.State.int rng n in
    let v = Random.State.int rng n in
    if add u v then incr count
  done

let connected_avg_degree ~rng ~n ~degree =
  let edges = ref [] in
  iter_connected_avg_degree ~rng ~n ~degree (fun u v ->
      edges := (u, v) :: !edges);
  Graph.of_edges ~n !edges

let line n =
  Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need at least 3 nodes";
  Graph.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star n =
  Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let grid rows cols =
  let n = rows * cols in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let id = (r * cols) + c in
      if c + 1 < cols then edges := (id, id + 1) :: !edges;
      if r + 1 < rows then edges := (id, id + cols) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges
