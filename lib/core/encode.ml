module Mrf = Netdiv_mrf.Mrf
module Graph = Netdiv_graph.Graph

type encoded = {
  net : Network.t;
  model : Mrf.t;
  var_index : int array array;  (* host -> slot -> var id *)
  slots : (int * int) array;    (* var -> (host, service) *)
  labels : int array array;     (* var -> selectable products *)
}

let default_prconst = 0.01
let default_big_m = 1e6

(* Intern pairwise similarity sub-matrices so edges share arrays.  Keyed by
   service and the two candidate lists (physically interned lists compare
   fast via their contents here). *)
module Matrix_cache = struct
  type key = int * int array * int array * float

  (* Domain-safety audit (netdiv-lint): encoding currently runs before any
     parallel region starts, but nothing in the types enforces that, so
     lookups/inserts are serialized under [lock].  The interned arrays
     themselves are written once at creation and read-only afterwards,
     which makes sharing them across solver domains safe. *)
  let lock = Mutex.create ()

  (* netdiv-lint: allow toplevel-mutable-state — intern table guarded by
     [lock]; interned values are immutable once published. *)
  let table : (key, float array) Hashtbl.t = Hashtbl.create 64

  let get net service cu cv weight =
    let key = (service, cu, cv, weight) in
    match Mutex.protect lock (fun () -> Hashtbl.find_opt table key) with
    | Some m -> m
    | None ->
        let ku = Array.length cu and kv = Array.length cv in
        let m =
          Array.init (ku * kv) (fun idx ->
              weight
              *. Network.similarity net ~service cu.(idx / kv)
                   cv.(idx mod kv))
        in
        Mutex.protect lock (fun () ->
            match Hashtbl.find_opt table key with
            | Some m' -> m' (* another domain interned it first *)
            | None ->
                Hashtbl.add table key m;
                m)

  let clear () = Mutex.protect lock (fun () -> Hashtbl.reset table)
end

let encode ?(prconst = default_prconst) ?(big_m = default_big_m) ?preference
    ?edge_weight net constraints =
  (match Constr.validate_all net constraints with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Encode.encode: " ^ msg));
  Matrix_cache.clear ();
  let n_hosts = Network.n_hosts net in
  (* collect Fix constraints; they restrict label sets *)
  let fixes = Hashtbl.create 8 in
  List.iter
    (function
      | Constr.Fix { host; service; product } -> (
          match Hashtbl.find_opt fixes (host, service) with
          | Some p when p <> product ->
              invalid_arg
                (Printf.sprintf
                   "Encode.encode: conflicting Fix constraints on %s/%s"
                   (Network.host_name net host)
                   (Network.service_name net service))
          | _ -> Hashtbl.replace fixes (host, service) product)
      | Constr.Requires _ | Constr.Forbids _ -> ())
    constraints;
  (* variables *)
  let var_index = Array.make n_hosts [||] in
  let slots = ref [] and labels = ref [] in
  let n_vars = ref 0 in
  for h = 0 to n_hosts - 1 do
    let services = Network.host_services net h in
    var_index.(h) <-
      Array.map
        (fun s ->
          let v = !n_vars in
          incr n_vars;
          let cands =
            match Hashtbl.find_opt fixes (h, s) with
            | Some p -> [| p |]
            | None -> Network.candidates net ~host:h ~service:s
          in
          slots := (h, s) :: !slots;
          labels := cands :: !labels;
          v)
        services
  done;
  let slots = Array.of_list (List.rev !slots) in
  let labels = Array.of_list (List.rev !labels) in
  let builder =
    Mrf.Builder.create ~label_counts:(Array.map Array.length labels)
  in
  (* unary costs *)
  Array.iteri
    (fun v (h, s) ->
      let cands = labels.(v) in
      let costs =
        match preference with
        | None -> Array.make (Array.length cands) prconst
        | Some f ->
            Array.map (fun p -> f ~host:h ~service:s ~product:p) cands
      in
      Mrf.Builder.set_unary builder ~node:v costs)
    slots;
  (* similarity edges: one per link and shared service *)
  let slot_var h s =
    let services = Network.host_services net h in
    let rec search lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) / 2 in
        if services.(mid) = s then Some var_index.(h).(mid)
        else if services.(mid) < s then search (mid + 1) hi
        else search lo mid
    in
    search 0 (Array.length services)
  in
  Graph.iter_edges
    (fun u v ->
      let weight =
        match edge_weight with
        | None -> 1.0
        | Some f ->
            let w = f u v in
            if w < 0.0 then
              invalid_arg "Encode.encode: negative edge weight"
            else w
      in
      let su = Network.host_services net u in
      Array.iter
        (fun s ->
          match (slot_var u s, slot_var v s) with
          | Some vu, Some vv ->
              let cu = labels.(vu) and cv = labels.(vv) in
              Mrf.Builder.add_edge builder vu vv
                (Matrix_cache.get net s cu cv weight)
          | _ -> ())
        su)
    (Network.graph net);
  (* combination constraints become intra-host big-M edges *)
  let add_combo h sm pj sn pn ~forbid =
    match (slot_var h sm, slot_var h sn) with
    | Some vm, Some vn ->
        let cm = labels.(vm) and cn = labels.(vn) in
        let km = Array.length cm and kn = Array.length cn in
        let cost =
          Array.init (km * kn) (fun idx ->
              let pm = cm.(idx / kn) and pn' = cn.(idx mod kn) in
              if pm <> pj then 0.0
              else if forbid then if pn' = pn then big_m else 0.0
              else if pn' = pn then 0.0
              else big_m)
        in
        Mrf.Builder.add_edge builder vm vn cost
    | _ -> ()
  in
  List.iter
    (function
      | Constr.Fix _ -> ()
      | Constr.Requires { scope; service_m; product_j; service_n; product_l }
        ->
          List.iter
            (fun h ->
              add_combo h service_m product_j service_n product_l
                ~forbid:false)
            (match scope with
            | Constr.Host h -> [ h ]
            | Constr.All -> List.init n_hosts Fun.id)
      | Constr.Forbids { scope; service_m; product_j; service_n; product_k }
        ->
          List.iter
            (fun h ->
              add_combo h service_m product_j service_n product_k
                ~forbid:true)
            (match scope with
            | Constr.Host h -> [ h ]
            | Constr.All -> List.init n_hosts Fun.id))
    constraints;
  let model = Mrf.Builder.build builder in
  { net; model; var_index; slots; labels }

let mrf e = e.model
let n_vars e = Array.length e.slots

let var_of e ~host ~service =
  let services = Network.host_services e.net host in
  let rec search lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      if services.(mid) = service then Some e.var_index.(host).(mid)
      else if services.(mid) < service then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length services)

let slot_of e v = e.slots.(v)
let labels_of e v = e.labels.(v)

let decode e labeling =
  Mrf.validate_labeling e.model labeling;
  Assignment.make e.net (fun ~host ~service ->
      match var_of e ~host ~service with
      | Some v -> e.labels.(v).(labeling.(v))
      | None -> assert false)

let labeling_of e a =
  Array.mapi
    (fun v (h, s) ->
      let p = Assignment.get a ~host:h ~service:s in
      let cands = e.labels.(v) in
      let rec find i =
        if i >= Array.length cands then
          invalid_arg
            (Printf.sprintf
               "Encode.labeling_of: product %s not selectable at %s/%s"
               (Network.product_name e.net ~service:s p)
               (Network.host_name e.net h)
               (Network.service_name e.net s))
        else if cands.(i) = p then i
        else find (i + 1)
      in
      find 0)
    e.slots

let assignment_energy e a = Mrf.energy e.model (labeling_of e a)

(* Size the encoding without building it: counts the slots and the
   (link, shared service) pairs the edge loop of [encode] would emit,
   plus one big-M edge per applicable combination constraint.  Tables
   are bounded by one similarity matrix per service plus one per
   constraint edge. *)
let estimate_words net constraints =
  let n_hosts = Network.n_hosts net in
  let nodes = ref 0 and max_labels = ref 1 in
  for h = 0 to n_hosts - 1 do
    let services = Network.host_services net h in
    nodes := !nodes + Array.length services;
    Array.iter
      (fun s ->
        max_labels :=
          max !max_labels
            (Array.length (Network.candidates net ~host:h ~service:s)))
      services
  done;
  let edges = ref 0 in
  Graph.iter_edges
    (fun u v ->
      Array.iter
        (fun s -> if Network.runs_service net ~host:v ~service:s then incr edges)
        (Network.host_services net u))
    (Network.graph net);
  let scope_hosts = function Constr.Host _ -> 1 | Constr.All -> n_hosts in
  let combos =
    List.fold_left
      (fun acc -> function
        | Constr.Fix _ -> acc
        | Constr.Requires { scope; _ } | Constr.Forbids { scope; _ } ->
            acc + scope_hosts scope)
      0 constraints
  in
  Mrf.estimate_words ~nodes:!nodes
    ~edges:(!edges + combos)
    ~max_labels:!max_labels
    ~tables:(Network.n_services net + combos)
