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
  let k = Array.length parent_values in
  if k <> Array.length node.parents then
    invalid_arg "Bn.prob_true: parent value count mismatch";
  (* plain loops over local accumulators: a closure over them would box
     every partial product *)
  match node.cpd with
  | Table probs ->
      let idx = ref 0 in
      for j = 0 to k - 1 do
        if parent_values.(j) then idx := !idx lor (1 lsl j)
      done;
      probs.(!idx)
  | Noisy_or { rates; leak } ->
      let escape = ref (1.0 -. leak) in
      for j = 0 to k - 1 do
        if parent_values.(j) then escape := !escape *. (1.0 -. rates.(j))
      done;
      1.0 -. !escape

(* [Mfactor.of_cpd] asks for a row's states in order, state 0 first, so
   state 0 evaluates the row's CPD once, from a reused buffer, and state
   1 reads it back. *)
let node_factor t i =
  let parents = parents t i in
  let values = Array.make (Array.length parents) false in
  let p_true = Float.Array.make 1 0.0 in
  Mfactor.of_cpd ~card:(fun _ -> 2) i ~parents (fun pv k ->
      if k = 0 then begin
        for j = 0 to Array.length pv - 1 do
          values.(j) <- pv.(j) = 1
        done;
        Float.Array.set p_true 0 (prob_true t i values)
      end;
      let p = Float.Array.get p_true 0 in
      if k = 1 then p else 1.0 -. p)
