(* The most table entries a solve plans: the argmin tables live until the
   traceback, so the sum over the plan counts, not the largest table. *)
let entry_budget = 1 lsl 22

(* A min-sum factor over [vars]: the cost of a labeling x is
   [table.(off + sum_j x.(vars.(j)) * strides.(j))].  Unary and edge
   factors point into the model's own slabs. *)
type factor = {
  vars : int array;
  strides : int array;
  table : float array;
  off : int;
}

(* Minimizes [v] out of the factors of its bucket.  [col] is an n-sized
   scratch for the column of each scope variable.  Returns the message
   over the remaining scope and, laid out the same way, the argmin label
   of [v] for each labeling of that scope: what the traceback needs. *)
let eliminate (a : Mrf.Compact.arrays) ~col v bucket =
  let fs = Array.of_list bucket in
  let nf = Array.length fs in
  let scope =
    List.concat_map (fun f -> Array.to_list f.vars) bucket
    |> List.sort_uniq Int.compare
    |> List.filter (fun u -> u <> v)
    |> Array.of_list
  in
  let r = Array.length scope in
  let dims = Array.map (fun u -> a.i_labels.(u)) scope in
  let strides = Array.make r 1 in
  for j = r - 2 downto 0 do
    strides.(j) <- strides.(j + 1) * dims.(j + 1)
  done;
  let entries = if r = 0 then 1 else strides.(0) * dims.(0) in
  (* st.(f * w + j): factor f's stride for scope column j, or for [v]
     at j = r; 0 where the factor lacks the variable *)
  let w = r + 1 in
  Array.iteri (fun j u -> col.(u) <- j) scope;
  col.(v) <- r;
  let st = Array.make (nf * w) 0 in
  Array.iteri
    (fun f fac ->
      Array.iteri
        (fun j u -> st.((f * w) + col.(u)) <- fac.strides.(j))
        fac.vars)
    fs;
  let kv = a.i_labels.(v) in
  let msg = Array.make entries 0.0 in
  let argmin = Array.make entries 0 in
  (* odometer over the scope, last column fastest, with each factor's
     offset kept in step *)
  let digit = Array.make (max 1 r) 0 in
  let base = Array.map (fun f -> f.off) fs in
  for t = 0 to entries - 1 do
    let best = ref infinity and best_l = ref 0 in
    for l = 0 to kv - 1 do
      let s = ref 0.0 in
      for f = 0 to nf - 1 do
        s := !s +. fs.(f).table.(base.(f) + (l * st.((f * w) + r)))
      done;
      if !s < !best then begin
        best := !s;
        best_l := l
      end
    done;
    msg.(t) <- !best;
    argmin.(t) <- !best_l;
    let j = ref (r - 1) in
    while !j >= 0 && digit.(!j) = dims.(!j) - 1 do
      digit.(!j) <- 0;
      for f = 0 to nf - 1 do
        base.(f) <- base.(f) - ((dims.(!j) - 1) * st.((f * w) + !j))
      done;
      decr j
    done;
    if !j >= 0 then begin
      digit.(!j) <- digit.(!j) + 1;
      for f = 0 to nf - 1 do
        base.(f) <- base.(f) + st.((f * w) + !j)
      done
    end
  done;
  ({ vars = scope; strides; table = msg; off = 0 }, argmin)

(* Eliminates along [order], each factor waiting in the bucket of its
   earliest variable.  The steps (variable, message, argmin table) come
   latest first; [None] when [interrupt] fires. *)
let eliminate_all ~interrupt (a : Mrf.Compact.arrays) order =
  let n = Array.length a.i_labels in
  let pos = Array.make n 0 in
  List.iteri (fun p v -> pos.(v) <- p) order;
  let buckets = Array.make n [] in
  let file f =
    let first =
      Array.fold_left (fun b u -> if pos.(u) < pos.(b) then u else b)
        f.vars.(0) f.vars
    in
    buckets.(first) <- f :: buckets.(first)
  in
  for i = 0 to n - 1 do
    file
      { vars = [| i |]; strides = [| 1 |]; table = a.i_unary;
        off = a.i_unary_off.(i) }
  done;
  Array.iteri
    (fun e u ->
      let v = a.i_ev.(e) in
      file
        { vars = [| u; v |]; strides = [| a.i_labels.(v); 1 |];
          table = a.i_pot; off = a.i_pot_off.(a.i_etab.(e)) })
    a.i_eu;
  let col = Array.make n 0 in
  let rec run steps = function
    | [] -> Some steps
    | _ when interrupt () -> None
    | v :: rest ->
        let message, argmin = eliminate a ~col v buckets.(v) in
        buckets.(v) <- [];
        if Array.length message.vars > 0 then file message;
        run ((v, message, argmin) :: steps) rest
  in
  run [] order

let solve ?(interrupt = fun () -> false) mrf =
  let n = Mrf.n_nodes mrf in
  let a = Mrf.Compact.arrays mrf in
  let scopes = ref [] in
  for e = Mrf.n_edges mrf - 1 downto 0 do
    scopes := [ a.i_eu.(e); a.i_ev.(e) ] :: !scopes
  done;
  let plan =
    Netdiv_graph.Elim_order.plan ~interrupt ~n
      ~card:(fun i -> a.i_labels.(i))
      ~max_entries:entry_budget ~max_total:entry_budget (Array.init n Fun.id)
      !scopes
  in
  Option.bind plan (eliminate_all ~interrupt a)
  |> Option.map (fun steps ->
         (* the latest elimination first: its scope is labeled already *)
         let x = Array.make n 0 in
         List.iter
           (fun (v, m, argmin) ->
             let idx = ref 0 in
             Array.iteri
               (fun j u -> idx := !idx + (x.(u) * m.strides.(j)))
               m.vars;
             x.(v) <- argmin.(!idx))
           steps;
         let energy = Mrf.energy mrf x in
         {
           Solver.labeling = x;
           energy;
           lower_bound = energy;
           iterations = 1;
           converged = true;
         })
