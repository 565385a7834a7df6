type t = {
  vars : (int * int) array;  (* (id, cardinality), sorted by id *)
  data : float array;
}

let max_entries = 1 lsl 24

let vars t = t.vars

let table_size vars =
  Array.fold_left
    (fun acc (_, card) ->
      if card < 1 then invalid_arg "Mfactor: cardinality < 1";
      let size = acc * card in
      if size > max_entries then invalid_arg "Mfactor: table too large";
      size)
    1 vars

let check_sorted_unique vars =
  let n = Array.length vars in
  let sorted = Array.copy vars in
  Array.sort (fun (a, _) (b, _) -> compare a b) sorted;
  for i = 1 to n - 1 do
    if fst sorted.(i) = fst sorted.(i - 1) then
      invalid_arg "Mfactor: duplicate variable"
  done;
  sorted

let of_fun ~vars f =
  let vars = check_sorted_unique vars in
  let size = table_size vars in
  let n = Array.length vars in
  let values = Array.make n 0 in
  let data =
    Array.init size (fun idx ->
        let rest = ref idx in
        for i = 0 to n - 1 do
          let card = snd vars.(i) in
          values.(i) <- !rest mod card;
          rest := !rest / card
        done;
        f values)
  in
  { vars; data }

let constant c = { vars = [||]; data = [| c |] }

let position t v =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if fst t.vars.(mid) = v then mid
      else if fst t.vars.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length t.vars)

(* strides of each variable position in the mixed-radix index *)
let strides vars =
  let n = Array.length vars in
  let s = Array.make n 1 in
  for i = 1 to n - 1 do
    s.(i) <- s.(i - 1) * snd vars.(i - 1)
  done;
  s

let product a b =
  let union =
    Array.to_list a.vars @ Array.to_list b.vars
    |> List.sort_uniq compare |> Array.of_list
  in
  (* a shared id with two cardinalities survives sort_uniq as two pairs *)
  for i = 1 to Array.length union - 1 do
    if fst union.(i) = fst union.(i - 1) then
      invalid_arg "Mfactor.product: cardinality mismatch"
  done;
  let size = table_size union in
  let n = Array.length union in
  let stride_for f =
    let s = strides f.vars in
    Array.map
      (fun (id, _) ->
        let p = position f id in
        if p < 0 then 0 else s.(p))
      union
  in
  let sa = stride_for a and sb = stride_for b in
  let values = Array.make n 0 in
  let data =
    Array.init size (fun idx ->
        let rest = ref idx in
        let ia = ref 0 and ib = ref 0 in
        for i = 0 to n - 1 do
          let card = snd union.(i) in
          values.(i) <- !rest mod card;
          rest := !rest / card;
          ia := !ia + (values.(i) * sa.(i));
          ib := !ib + (values.(i) * sb.(i))
        done;
        a.data.(!ia) *. b.data.(!ib))
  in
  { vars = union; data }

let drop_var t p =
  let n = Array.length t.vars in
  Array.init (n - 1) (fun i -> if i < p then t.vars.(i) else t.vars.(i + 1))

let sum_out t v =
  let p = position t v in
  if p < 0 then t
  else begin
    let card = snd t.vars.(p) in
    let s = strides t.vars in
    let stride = s.(p) in
    let vars' = drop_var t p in
    let size' = table_size vars' in
    let data' =
      Array.init size' (fun idx ->
          (* expand idx into the original index with var p set to 0 *)
          let low = idx mod stride in
          let high = idx / stride in
          let base = low + (high * stride * card) in
          let acc = ref 0.0 in
          for k = 0 to card - 1 do
            acc := !acc +. t.data.(base + (k * stride))
          done;
          !acc)
    in
    { vars = vars'; data = data' }
  end

let restrict t v value =
  let p = position t v in
  if p < 0 then t
  else begin
    let card = snd t.vars.(p) in
    if value < 0 || value >= card then
      invalid_arg "Mfactor.restrict: value out of range";
    let s = strides t.vars in
    let stride = s.(p) in
    let vars' = drop_var t p in
    let size' = table_size vars' in
    let data' =
      Array.init size' (fun idx ->
          let low = idx mod stride in
          let high = idx / stride in
          t.data.(low + (high * stride * card) + (value * stride)))
    in
    { vars = vars'; data = data' }
  end

let value t assignment =
  let s = strides t.vars in
  let idx = ref 0 in
  Array.iteri
    (fun i (id, card) ->
      match List.assoc_opt id assignment with
      | Some v when v >= 0 && v < card -> idx := !idx + (v * s.(i))
      | Some _ -> invalid_arg "Mfactor.value: value out of range"
      | None ->
          invalid_arg
            (Printf.sprintf "Mfactor.value: variable %d unassigned" id))
    t.vars;
  t.data.(!idx)

let total t = Array.fold_left ( +. ) 0.0 t.data

let equal ?(eps = 1e-12) a b =
  a.vars = b.vars
  && Array.for_all2 (fun x y -> abs_float (x -. y) <= eps) a.data b.data
