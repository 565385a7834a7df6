type cpd =
  | Table of float array
  | Noisy_or of { rates : float array; leak : float }

type node = { name : string; parents : int array; cpd : cpd }

type t = { mutable nodes : node array; mutable count : int }

let create () = { nodes = [||]; count = 0 }

let check_prob p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Bn: probability %g out of [0,1]" p)

let add t ~name ~parents cpd =
  let id = t.count in
  Array.iter
    (fun p ->
      if p < 0 || p >= id then
        invalid_arg
          (Printf.sprintf "Bn.add: node %s has invalid parent %d" name p))
    parents;
  (match cpd with
  | Table probs ->
      if Array.length probs <> 1 lsl Array.length parents then
        invalid_arg
          (Printf.sprintf "Bn.add: node %s CPT has wrong size" name);
      Array.iter check_prob probs
  | Noisy_or { rates; leak } ->
      if Array.length rates <> Array.length parents then
        invalid_arg
          (Printf.sprintf "Bn.add: node %s noisy-or rate count mismatch" name);
      Array.iter check_prob rates;
      check_prob leak);
  if t.count = Array.length t.nodes then begin
    let bigger =
      Array.make (max 8 (2 * Array.length t.nodes))
        { name = ""; parents = [||]; cpd = Table [| 0.0 |] }
    in
    Array.blit t.nodes 0 bigger 0 t.count;
    t.nodes <- bigger
  end;
  t.nodes.(t.count) <- { name; parents = Array.copy parents; cpd };
  t.count <- t.count + 1;
  id

let n_nodes t = t.count
let parents t i = t.nodes.(i).parents

let find t n =
  let rec loop i =
    if i >= t.count then None
    else if String.equal t.nodes.(i).name n then Some i
    else loop (i + 1)
  in
  loop 0

let prob_true t i parent_values =
  let node = t.nodes.(i) in
  if Array.length parent_values <> Array.length node.parents then
    invalid_arg "Bn.prob_true: parent value count mismatch";
  match node.cpd with
  | Table probs ->
      let idx = ref 0 in
      Array.iteri
        (fun k v -> if v then idx := !idx lor (1 lsl k))
        parent_values;
      probs.(!idx)
  | Noisy_or { rates; leak } ->
      let escape = ref (1.0 -. leak) in
      Array.iteri
        (fun k v -> if v then escape := !escape *. (1.0 -. rates.(k)))
        parent_values;
      1.0 -. !escape

let node_factor t i =
  Mfactor.of_cpd ~card:(fun _ -> 2) i ~parents:(parents t i) (fun pv k ->
      let p = prob_true t i (Array.map (( = ) 1) pv) in
      if k = 1 then p else 1.0 -. p)
