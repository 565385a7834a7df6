module Elim_bool = Elim.Make (struct
  include Factor

  let max_entries = 1 lsl 25 (* Factor's 25-variable limit *)
  let restrict f v k = Factor.restrict f v (k = 1)
end)

let exact_marginal ?(evidence = []) bn query =
  (Elim_bool.marginal ~n:(Bn.n_nodes bn) ~parents:(Bn.parents bn)
     ~card:(fun _ -> 2) ~factor:(Bn.node_factor bn)
     (List.map (fun (v, b) -> (v, Bool.to_int b)) evidence)
     query).(1)

let joint_brute_force ?(evidence = []) bn query =
  let n = Bn.n_nodes bn in
  if n > 20 then invalid_arg "Infer.joint_brute_force: too many nodes";
  let values = Array.make n false in
  let p_query = ref 0.0 and p_evidence = ref 0.0 in
  for idx = 0 to (1 lsl n) - 1 do
    for i = 0 to n - 1 do
      values.(i) <- idx land (1 lsl i) <> 0
    done;
    if List.for_all (fun (v, b) -> values.(v) = b) evidence then begin
      let p = ref 1.0 in
      for i = 0 to n - 1 do
        let pv = Array.map (fun q -> values.(q)) (Bn.parents bn i) in
        let pt = Bn.prob_true bn i pv in
        p := !p *. (if values.(i) then pt else 1.0 -. pt)
      done;
      p_evidence := !p_evidence +. !p;
      if values.(query) then p_query := !p_query +. !p
    end
  done;
  if !p_evidence <= 0.0 then
    invalid_arg "Infer.joint_brute_force: evidence has probability zero";
  !p_query /. !p_evidence

let forward_sample ~rng bn =
  let n = Bn.n_nodes bn in
  let values = Array.make n false in
  for i = 0 to n - 1 do
    let pv = Array.map (fun q -> values.(q)) (Bn.parents bn i) in
    values.(i) <- Random.State.float rng 1.0 < Bn.prob_true bn i pv
  done;
  values

let estimate_marginal ~rng ~samples ?(evidence = []) bn query =
  let n = Bn.n_nodes bn in
  let fixed = Array.make n None in
  List.iter (fun (v, b) -> fixed.(v) <- Some b) evidence;
  let values = Array.make n false in
  let weight_sum = ref 0.0 and hit_sum = ref 0.0 in
  for _ = 1 to samples do
    let w = ref 1.0 in
    for i = 0 to n - 1 do
      let pv = Array.map (fun q -> values.(q)) (Bn.parents bn i) in
      let pt = Bn.prob_true bn i pv in
      match fixed.(i) with
      | Some b ->
          values.(i) <- b;
          w := !w *. (if b then pt else 1.0 -. pt)
      | None -> values.(i) <- Random.State.float rng 1.0 < pt
    done;
    weight_sum := !weight_sum +. !w;
    if values.(query) then hit_sum := !hit_sum +. !w
  done;
  if !weight_sum <= 0.0 then 0.0 else !hit_sum /. !weight_sum
