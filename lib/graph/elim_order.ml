(* The priority queue: (planned size, local index) pairs, least first. *)
module By_size = Set.Make (struct
  type t = int * int

  let compare (s, a) (t, b) = if s = t then Int.compare a b else Int.compare s t
end)

(* Table sizes saturate just above [max_entries]; eliminating a variable
   changes the sizes of its neighbours only. *)
let plan ?keep ?(interrupt = fun () -> false) ~n ~card ~max_entries ~max_total
    vars scopes =
  let m = Array.length vars in
  let local = Array.make n (-1) in
  Array.iteri (fun a v -> local.(v) <- a) vars;
  (* the interaction graph on local indices: every scope a clique,
     duplicates dropped once all scopes are in *)
  let nbrs = Array.make m [] in
  let rec scope_clique = function
    | [] -> ()
    | u :: rest ->
        let a = local.(u) in
        List.iter
          (fun w ->
            let b = local.(w) in
            if a <> b then begin
              nbrs.(a) <- b :: nbrs.(a);
              nbrs.(b) <- a :: nbrs.(b)
            end)
          rest;
        scope_clique rest
  in
  List.iter scope_clique scopes;
  let seen = Array.make m (-1) in
  (* marks [b] as seen in [a]'s list; [true] if it was already *)
  let repeats a b = seen.(b) = a || (seen.(b) <- a; false) in
  for a = 0 to m - 1 do
    if List.exists (repeats a) nbrs.(a) then
      nbrs.(a) <- List.sort_uniq Int.compare nbrs.(a)
  done;
  let rec mem (b : int) = function [] -> false | x :: l -> x = b || mem b l in
  let link a b = if not (mem b nbrs.(a)) then nbrs.(a) <- b :: nbrs.(a) in
  (* fill-in among the live neighbours of an eliminated variable, which
     are distinct *)
  let rec clique = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            link a b;
            link b a)
          rest;
        clique rest
  in
  let alive = Array.make m true in
  let cap = max_entries + 1 in
  let rec grow s = function
    | [] -> s
    | b :: l ->
        grow (if alive.(b) then Int.min cap (s * card vars.(b)) else s) l
  in
  let size a = grow (card vars.(a)) nbrs.(a) in
  let sizes = Array.init m size in
  let kept = match keep with Some q -> local.(q) | None -> -1 in
  let queued a = a <> kept in
  let queue =
    By_size.of_list (List.init m (fun a -> (sizes.(a), a)))
    |> By_size.filter (fun (_, a) -> queued a)
    |> ref
  in
  let rec go total order =
    if By_size.is_empty !queue then Some (List.rev order)
    else if interrupt () then None
    else
      let ((s, v) as least) = By_size.min_elt !queue in
      let total = total + s in
      if s > max_entries || total > max_total then None
      else begin
        queue := By_size.remove least !queue;
        alive.(v) <- false;
        let live = List.filter (Array.get alive) nbrs.(v) in
        clique live;
        List.iter
          (fun a ->
            let s = size a in
            if queued a && s <> sizes.(a) then
              queue :=
                By_size.add (s, a) (By_size.remove (sizes.(a), a) !queue);
            sizes.(a) <- s)
          live;
        go total (vars.(v) :: order)
      end
  in
  go 0 []
