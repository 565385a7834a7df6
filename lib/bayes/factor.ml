type t = { vars : int array; data : float array }

let vars t = t.vars

let check_vars vars =
  let n = Array.length vars in
  if n > 25 then invalid_arg "Factor: too many variables";
  let sorted = Array.copy vars in
  Array.sort compare sorted;
  for i = 1 to n - 1 do
    if sorted.(i) = sorted.(i - 1) then
      invalid_arg "Factor: duplicate variable"
  done;
  sorted

let of_fun ~vars f =
  let vars = check_vars vars in
  let n = Array.length vars in
  let values = Array.make n false in
  let data =
    Array.init (1 lsl n) (fun idx ->
        for i = 0 to n - 1 do
          values.(i) <- idx land (1 lsl i) <> 0
        done;
        f values)
  in
  { vars; data }

(* position of [v] in the sorted variable array, or -1 *)
let position t v =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if t.vars.(mid) = v then mid
      else if t.vars.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length t.vars)

let product a b =
  let union =
    Array.to_list a.vars @ Array.to_list b.vars
    |> List.sort_uniq compare |> Array.of_list
  in
  let n = Array.length union in
  if n > 25 then invalid_arg "Factor.product: too many variables";
  (* for each union variable, its bit position in a and b (or -1) *)
  let pos_a = Array.map (position a) union in
  let pos_b = Array.map (position b) union in
  let data =
    Array.init (1 lsl n) (fun idx ->
        let ia = ref 0 and ib = ref 0 in
        for i = 0 to n - 1 do
          if idx land (1 lsl i) <> 0 then begin
            if pos_a.(i) >= 0 then ia := !ia lor (1 lsl pos_a.(i));
            if pos_b.(i) >= 0 then ib := !ib lor (1 lsl pos_b.(i))
          end
        done;
        a.data.(!ia) *. b.data.(!ib))
  in
  { vars = union; data }

let sum_out t v =
  let p = position t v in
  if p < 0 then t
  else begin
    let n = Array.length t.vars in
    let vars' = Array.make (n - 1) 0 in
    Array.iteri
      (fun i x -> if i < p then vars'.(i) <- x else if i > p then vars'.(i - 1) <- x)
      t.vars;
    let low_mask = (1 lsl p) - 1 in
    let data' =
      Array.init (1 lsl (n - 1)) (fun idx ->
          let base =
            (idx land low_mask) lor ((idx land lnot low_mask) lsl 1)
          in
          t.data.(base) +. t.data.(base lor (1 lsl p)))
    in
    { vars = vars'; data = data' }
  end

let restrict t v value =
  let p = position t v in
  if p < 0 then t
  else begin
    let n = Array.length t.vars in
    let vars' = Array.make (n - 1) 0 in
    Array.iteri
      (fun i x -> if i < p then vars'.(i) <- x else if i > p then vars'.(i - 1) <- x)
      t.vars;
    let low_mask = (1 lsl p) - 1 in
    let bit = if value then 1 lsl p else 0 in
    let data' =
      Array.init (1 lsl (n - 1)) (fun idx ->
          let base =
            (idx land low_mask) lor ((idx land lnot low_mask) lsl 1)
          in
          t.data.(base lor bit))
    in
    { vars = vars'; data = data' }
  end

let value t assignment =
  let idx = ref 0 in
  Array.iteri
    (fun i v ->
      match List.assoc_opt v assignment with
      | Some true -> idx := !idx lor (1 lsl i)
      | Some false -> ()
      | None ->
          invalid_arg
            (Printf.sprintf "Factor.value: variable %d unassigned" v))
    t.vars;
  t.data.(!idx)

let total t = Array.fold_left ( +. ) 0.0 t.data

let equal ?(eps = 1e-12) a b =
  a.vars = b.vars
  && Array.for_all2 (fun x y -> abs_float (x -. y) <= eps) a.data b.data
