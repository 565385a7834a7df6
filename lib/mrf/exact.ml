module Bucket = Netdiv_graph.Bucket

(* The most table entries a solve plans: the argmin tables live until the
   traceback, so the sum over the plan counts, not the largest table. *)
let entry_budget = 1 lsl 22

let solve ?(interrupt = fun () -> false) mrf =
  let n = Mrf.n_nodes mrf in
  let a = Mrf.Compact.arrays mrf in
  let m = Mrf.n_edges mrf in
  let card i = a.i_labels.(i) in
  let plan =
    Netdiv_graph.Elim_order.plan ~interrupt ~n ~card
      ~max_entries:entry_budget ~max_total:entry_budget (Array.init n Fun.id)
      (List.init m (fun e -> [ a.i_eu.(e); a.i_ev.(e) ]))
  in
  (* one factor per unary and per edge, pointing into the model's slabs *)
  let unary i =
    { Bucket.vars = [| i |]; strides = [| 1 |]; table = a.i_unary;
      off = a.i_unary_off.(i) }
  in
  let edge e =
    { Bucket.vars = [| a.i_eu.(e); a.i_ev.(e) |];
      strides = [| card a.i_ev.(e); 1 |]; table = a.i_pot;
      off = a.i_pot_off.(a.i_etab.(e)) }
  in
  Option.bind plan (fun order ->
      Bucket.eliminate ~interrupt Bucket.Min_sum ~card ~n order
        (List.init n unary @ List.init m edge))
  |> Option.map (fun (steps, _) ->
         (* the latest elimination first: its scope is labeled already *)
         let x = Array.make n 0 in
         List.iter
           (fun { Bucket.var; message; argmin } ->
             x.(var) <- argmin.(Bucket.index message x))
           steps;
         let energy = Mrf.energy mrf x in
         {
           Solver.labeling = x;
           energy;
           lower_bound = energy;
           iterations = 1;
           converged = true;
         })
