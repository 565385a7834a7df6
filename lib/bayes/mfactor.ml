type t = {
  vars : (int * int) array;  (* (id, cardinality), sorted by id *)
  data : float array;
}

let max_entries = 1 lsl 25

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

(* One odometer step over a mixed-radix counter whose digit [i] runs
   from 0 to [last.(i)], the first digit fastest: the faster digits that
   were at their last state wrap to 0 and the next one is incremented.
   Returns that digit, or [Array.length count] once the counter wraps. *)
let[@inline] advance count last =
  let n = Array.length count in
  let i = ref 0 in
  while !i < n && count.(!i) = last.(!i) do
    count.(!i) <- 0;
    incr i
  done;
  if !i < n then count.(!i) <- count.(!i) + 1;
  !i

let last_states vars = Array.map (fun (_, card) -> card - 1) vars

(* [f] of every state tuple of the sorted [vars], in index order *)
let tabulate vars f =
  let size = table_size vars in
  let values = Array.make (Array.length vars) 0 in
  let last = last_states vars in
  let data = Array.create_float size in
  for idx = 0 to size - 1 do
    data.(idx) <- f values;
    ignore (advance values last)
  done;
  { vars; data }

let of_fun ~vars f = tabulate (check_sorted_unique vars) f

let of_cpd ~card node ~parents p =
  let vars =
    check_sorted_unique
      (Array.map (fun v -> (v, card v)) (Array.append [| node |] parents))
  in
  (* [tabulate] hands values in sorted order; find self and parents there *)
  let pos v = Option.get (Array.find_index (fun (u, _) -> u = v) vars) in
  let self = pos node and parent_pos = Array.map pos parents in
  let parent_values = Array.make (Array.length parents) 0 in
  tabulate vars (fun values ->
      Array.iteri (fun j q -> parent_values.(j) <- values.(q)) parent_pos;
      p parent_values values.(self))

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

(* stride of position [p] in the mixed-radix index *)
let stride vars p =
  let s = ref 1 in
  for i = 0 to p - 1 do
    s := !s * snd vars.(i)
  done;
  !s

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
  let last = last_states union in
  (* [step.(i)]: how far [f]'s index moves when union digit [i] is
     incremented and every faster digit wraps from its last state to 0 *)
  let step_for f =
    let back = ref 0 in
    Array.mapi
      (fun i (id, _) ->
        let p = position f id in
        let s = if p < 0 then 0 else stride f.vars p in
        let step = s - !back in
        back := !back + (s * last.(i));
        step)
      union
  in
  let step_a = step_for a and step_b = step_for b in
  let n = Array.length union in
  let count = Array.make n 0 in
  let data = Array.create_float size in
  let ia = ref 0 and ib = ref 0 in
  for idx = 0 to size - 1 do
    data.(idx) <- a.data.(!ia) *. b.data.(!ib);
    let i = advance count last in
    if i < n then begin
      ia := !ia + step_a.(i);
      ib := !ib + step_b.(i)
    end
  done;
  { vars = union; data }

let drop_var t p =
  let n = Array.length t.vars in
  Array.init (n - 1) (fun i -> if i < p then t.vars.(i) else t.vars.(i + 1))

(* Removing position [p] views the table as blocks: [high] runs over the
   states of the slower variables, each block holding [card] runs of
   [low] entries, one per state of [p].  The reduced table keeps the
   (high, low) order. *)
let sum_out t v =
  let p = position t v in
  if p < 0 then t
  else begin
    let card = snd t.vars.(p) and low = stride t.vars p in
    let vars' = drop_var t p in
    let data' = Array.create_float (table_size vars') in
    let dst = ref 0 in
    for high = 0 to (Array.length t.data / (low * card)) - 1 do
      let block = high * low * card in
      for l = 0 to low - 1 do
        let src = block + l in
        let acc = ref t.data.(src) in
        for k = 1 to card - 1 do
          acc := !acc +. t.data.(src + (k * low))
        done;
        data'.(!dst) <- !acc;
        incr dst
      done
    done;
    { vars = vars'; data = data' }
  end

let restrict t v value =
  let p = position t v in
  if p < 0 then t
  else begin
    let card = snd t.vars.(p) and low = stride t.vars p in
    if value < 0 || value >= card then
      invalid_arg "Mfactor.restrict: value out of range";
    let vars' = drop_var t p in
    let data' = Array.create_float (table_size vars') in
    let dst = ref 0 in
    for high = 0 to (Array.length t.data / (low * card)) - 1 do
      let src = (high * low * card) + (value * low) in
      for l = 0 to low - 1 do
        data'.(!dst) <- t.data.(src + l);
        incr dst
      done
    done;
    { vars = vars'; data = data' }
  end

let value t assignment =
  let idx = ref 0 and s = ref 1 in
  Array.iter
    (fun (id, card) ->
      (match List.assoc_opt id assignment with
      | Some v when v >= 0 && v < card -> idx := !idx + (v * !s)
      | Some _ -> invalid_arg "Mfactor.value: value out of range"
      | None ->
          invalid_arg
            (Printf.sprintf "Mfactor.value: variable %d unassigned" id));
      s := !s * card)
    t.vars;
  t.data.(!idx)

let total t = Array.fold_left ( +. ) 0.0 t.data

let equal ?(eps = 1e-12) a b =
  a.vars = b.vars
  && Array.for_all2 (fun x y -> abs_float (x -. y) <= eps) a.data b.data
