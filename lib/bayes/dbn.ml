type node = {
  name : string;
  card : int;
  parents : int array;
  cpt : float array;
      (* P(node = k | parent config), indexed [config * card + k] with
         parent configs mixed-radix, first parent fastest *)
}

type t = { mutable nodes : node array; mutable count : int }

let create () = { nodes = [||]; count = 0 }

let n_nodes t = t.count
let card t i = t.nodes.(i).card
let parents t i = t.nodes.(i).parents

let add t ~name ~card:k ~parents cpd =
  let id = t.count in
  if k < 1 then invalid_arg (Printf.sprintf "Dbn.add: %s has card < 1" name);
  Array.iter
    (fun p ->
      if p < 0 || p >= id then
        invalid_arg (Printf.sprintf "Dbn.add: %s has invalid parent" name))
    parents;
  let n_parents = Array.length parents in
  let configs =
    Array.fold_left (fun acc p -> acc * t.nodes.(p).card) 1 parents
  in
  let cpt = Array.make (configs * k) 0.0 in
  let values = Array.make n_parents 0 in
  for config = 0 to configs - 1 do
    let rest = ref config in
    for i = 0 to n_parents - 1 do
      let pc = t.nodes.(parents.(i)).card in
      values.(i) <- !rest mod pc;
      rest := !rest / pc
    done;
    let row_total = ref 0.0 in
    for v = 0 to k - 1 do
      let p = cpd values v in
      if p < -1e-12 then
        invalid_arg (Printf.sprintf "Dbn.add: %s has negative probability" name);
      cpt.((config * k) + v) <- p;
      row_total := !row_total +. p
    done;
    if abs_float (!row_total -. 1.0) > 1e-6 then
      invalid_arg
        (Printf.sprintf "Dbn.add: %s CPD row sums to %g" name !row_total)
  done;
  if t.count = Array.length t.nodes then begin
    let bigger =
      Array.make
        (max 8 (2 * Array.length t.nodes))
        { name = ""; card = 1; parents = [||]; cpt = [| 1.0 |] }
    in
    Array.blit t.nodes 0 bigger 0 t.count;
    t.nodes <- bigger
  end;
  t.nodes.(t.count) <- { name; card = k; parents = Array.copy parents; cpt };
  t.count <- t.count + 1;
  id

let config_of t node parent_values =
  let n = Array.length node.parents in
  if Array.length parent_values <> n then
    invalid_arg "Dbn.prob: parent value count mismatch";
  let config = ref 0 and stride = ref 1 in
  for i = 0 to n - 1 do
    let pc = t.nodes.(node.parents.(i)).card in
    if parent_values.(i) < 0 || parent_values.(i) >= pc then
      invalid_arg "Dbn.prob: parent value out of range";
    config := !config + (parent_values.(i) * !stride);
    stride := !stride * pc
  done;
  !config

let prob t i parent_values k =
  let node = t.nodes.(i) in
  if k < 0 || k >= node.card then invalid_arg "Dbn.prob: value out of range";
  node.cpt.((config_of t node parent_values * node.card) + k)

let node_factor t i =
  let ids = Array.append [| i |] (parents t i) in
  let sorted = Array.map (fun v -> (v, card t v)) ids in
  Array.sort compare sorted;
  (* [of_fun] hands values in sorted order; find self and parents there *)
  let pos v = Option.get (Array.find_index (fun (u, _) -> u = v) sorted) in
  let self = pos i and parent_pos = Array.map pos (parents t i) in
  Mfactor.of_fun ~vars:sorted (fun values ->
      prob t i (Array.map (Array.get values) parent_pos) values.(self))

module Elim_multi = Elim.Make (Mfactor)

let marginal ?(evidence = []) t query =
  Elim_multi.marginal ~n:t.count ~parents:(parents t) ~card:(card t)
    ~factor:(node_factor t) evidence query

let brute_marginal ?(evidence = []) t query =
  let joint_size =
    Array.fold_left
      (fun acc i -> acc * card t i)
      1
      (Array.init t.count Fun.id)
  in
  if joint_size > 1 lsl 22 then
    invalid_arg "Dbn.brute_marginal: joint too large";
  let values = Array.make t.count 0 in
  let dist = Array.make (card t query) 0.0 in
  let z = ref 0.0 in
  let rec enumerate i =
    if i = t.count then begin
      if List.for_all (fun (v, x) -> values.(v) = x) evidence then begin
        let p = ref 1.0 in
        for j = 0 to t.count - 1 do
          let pv =
            Array.map (fun q -> values.(q)) t.nodes.(j).parents
          in
          p := !p *. prob t j pv values.(j)
        done;
        z := !z +. !p;
        dist.(values.(query)) <- dist.(values.(query)) +. !p
      end
    end
    else
      for v = 0 to card t i - 1 do
        values.(i) <- v;
        enumerate (i + 1)
      done
  in
  enumerate 0;
  if !z <= 0.0 then
    invalid_arg "Dbn.brute_marginal: evidence has probability zero";
  Array.map (fun x -> x /. !z) dist

let sample ~rng t =
  let values = Array.make t.count 0 in
  for i = 0 to t.count - 1 do
    let pv = Array.map (fun q -> values.(q)) t.nodes.(i).parents in
    let u = Random.State.float rng 1.0 in
    let rec pick k acc =
      if k >= card t i - 1 then k
      else
        let acc = acc +. prob t i pv k in
        if u < acc then k else pick (k + 1) acc
    in
    values.(i) <- pick 0 0.0
  done;
  values
