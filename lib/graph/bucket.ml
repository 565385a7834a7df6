type factor = {
  vars : int array;
  strides : int array;
  table : float array;
  off : int;
}

type semiring = Min_sum | Sum_product

type step = { var : int; message : factor; argmin : int array }

let index f x =
  let i = ref f.off in
  Array.iteri (fun j u -> i := !i + (x.(u) * f.strides.(j))) f.vars;
  !i

(* Reduces [v] out of the factors of its bucket, combined in list order.
   [col] is an n-sized scratch for the column of each scope variable.
   Returns the message over the remaining scope, sorted and laid out last
   column fastest, and in [Min_sum] the argmin label of [v] for each
   labeling of that scope, laid out the same way. *)
let reduce semiring ~card ~col v bucket =
  let fs = Array.of_list bucket in
  let nf = Array.length fs in
  let scope =
    List.concat_map (fun f -> Array.to_list f.vars) bucket
    |> List.sort_uniq Int.compare
    |> List.filter (fun u -> u <> v)
    |> Array.of_list
  in
  let r = Array.length scope in
  let dims = Array.map card scope in
  let strides = Array.make r 1 in
  for j = r - 2 downto 0 do
    strides.(j) <- strides.(j + 1) * dims.(j + 1)
  done;
  let entries = if r = 0 then 1 else strides.(0) * dims.(0) in
  (* st.(f * r + j): factor f's stride for scope column j, and vst.(f)
     its stride for [v]; 0 where the factor lacks the variable, and the
     sum of its strides where it lists the variable twice *)
  Array.iteri (fun j u -> col.(u) <- j) scope;
  let st = Array.make (nf * r) 0 and vst = Array.make nf 0 in
  Array.iteri
    (fun f fac ->
      Array.iteri
        (fun j u ->
          if u = v then vst.(f) <- vst.(f) + fac.strides.(j)
          else
            let c = (f * r) + col.(u) in
            st.(c) <- st.(c) + fac.strides.(j))
        fac.vars)
    fs;
  let kv = card v in
  let tables = Array.map (fun f -> f.table) fs in
  let msg = Array.make entries 0.0 in
  let argmin =
    match semiring with
    | Min_sum -> Array.make entries 0
    | Sum_product -> [||]
  in
  (* odometer over the scope, last column fastest, with each factor's
     offset kept in step *)
  let digit = Array.make (max 1 r) 0 in
  let base = Array.map (fun f -> f.off) fs in
  for t = 0 to entries - 1 do
    (match semiring with
    | Min_sum ->
        let best = ref infinity and best_l = ref 0 in
        for l = 0 to kv - 1 do
          let s = ref 0.0 in
          for f = 0 to nf - 1 do
            s := !s +. tables.(f).(base.(f) + (l * vst.(f)))
          done;
          if !s < !best then begin
            best := !s;
            best_l := l
          end
        done;
        msg.(t) <- !best;
        argmin.(t) <- !best_l
    | Sum_product ->
        (* -0.0 and 1.0 are exact identities: the first state's product
           is the sum's first term, the first factor the product's *)
        let sum = ref (-0.0) in
        for l = 0 to kv - 1 do
          let p = ref 1.0 in
          for f = 0 to nf - 1 do
            p := !p *. tables.(f).(base.(f) + (l * vst.(f)))
          done;
          sum := !sum +. !p
        done;
        msg.(t) <- !sum);
    let j = ref (r - 1) in
    while !j >= 0 && digit.(!j) = dims.(!j) - 1 do
      digit.(!j) <- 0;
      for f = 0 to nf - 1 do
        base.(f) <- base.(f) - ((dims.(!j) - 1) * st.((f * r) + !j))
      done;
      decr j
    done;
    if !j >= 0 then begin
      digit.(!j) <- digit.(!j) + 1;
      for f = 0 to nf - 1 do
        base.(f) <- base.(f) + st.((f * r) + !j)
      done
    end
  done;
  ({ vars = scope; strides; table = msg; off = 0 }, argmin)

let eliminate ?(interrupt = fun () -> false) semiring ~card ~n order factors =
  let pos = Array.make n max_int in
  List.iteri (fun p v -> pos.(v) <- p) order;
  (* each factor waits in the bucket of its earliest variable; one over
     no variable of the order is left over *)
  let buckets = Array.make n [] and rest = ref [] in
  let file f =
    let first =
      Array.fold_left
        (fun b u -> if b < 0 || pos.(u) < pos.(b) then u else b)
        (-1) f.vars
    in
    if first < 0 || pos.(first) = max_int then rest := f :: !rest
    else buckets.(first) <- f :: buckets.(first)
  in
  List.iter file factors;
  let col = Array.make n 0 in
  let rec run steps = function
    | [] -> Some (steps, !rest)
    | _ when interrupt () -> None
    | v :: more ->
        let message, argmin = reduce semiring ~card ~col v buckets.(v) in
        buckets.(v) <- [];
        file message;
        run
          (match semiring with
          | Min_sum -> { var = v; message; argmin } :: steps
          | Sum_product -> steps)
          more
  in
  run [] order
