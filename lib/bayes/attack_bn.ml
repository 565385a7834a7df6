module Graph = Netdiv_graph.Graph
module Traversal = Netdiv_graph.Traversal
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment

type exploit_model =
  | Uniform_choice
  | Best_choice
  | Fixed of float

let shared_services net u v =
  let su = Network.host_services net u in
  let sv = Network.host_services net v in
  let acc = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length su && !j < Array.length sv do
    if su.(!i) = sv.(!j) then begin
      acc := su.(!i) :: !acc;
      incr i;
      incr j
    end
    else if su.(!i) < sv.(!j) then incr i
    else incr j
  done;
  !acc

let default_base_rate = 0.30
let default_sim_floor = 0.05

(* effective per-service success rates along a directed edge *)
let service_rates ~base_rate ~sim_floor a u v =
  let net = Assignment.network a in
  List.map
    (fun s ->
      base_rate
      *. max sim_floor
           (Network.similarity net ~service:s
              (Assignment.get a ~host:u ~service:s)
              (Assignment.get a ~host:v ~service:s)))
    (shared_services net u v)

let edge_rate ?(base_rate = default_base_rate)
    ?(sim_floor = default_sim_floor) a ~model u v =
  match model with
  | Fixed r -> r
  | Uniform_choice | Best_choice -> (
      (* the similarities themselves: base rate 1 scales nothing *)
      match service_rates ~base_rate:1.0 ~sim_floor a u v with
      | [] -> 0.0
      | sims ->
          let sim =
            if model = Best_choice then List.fold_left max 0.0 sims
            else
              List.fold_left ( +. ) 0.0 sims /. float_of_int (List.length sims)
          in
          base_rate *. sim)

(* The BFS attack DAG from [entry]: the incoming attack edges per host,
   and the reachable hosts by (distance, id), a topological order *)
let attack_dag a ~entry =
  let g = Network.graph (Assignment.network a) in
  let incoming = Array.make (Graph.n_nodes g) [] in
  List.iter
    (fun (u, v) -> incoming.(v) <- u :: incoming.(v))
    (Traversal.bfs_dag g entry);
  let dist = Traversal.bfs g entry in
  ( incoming,
    List.init (Graph.n_nodes g) Fun.id
    |> List.filter (fun h -> dist.(h) >= 0)
    |> List.sort (fun x y -> compare (dist.(x), x) (dist.(y), y)) )

let build ?base_rate ?sim_floor a ~entry ?(prior = 1.0) ~model () =
  let net = Assignment.network a in
  let incoming, order = attack_dag a ~entry in
  let bn = Bn.create () in
  let node_of = Array.make (Array.length incoming) (-1) in
  List.iter
    (fun h ->
      let id =
        if h = entry then
          Bn.add bn ~name:(Network.host_name net h) ~parents:[||]
            (Bn.Table [| prior |])
        else begin
          let parents =
            incoming.(h)
            |> List.map (fun u -> (node_of.(u), u))
            |> List.filter (fun (nu, _) -> nu >= 0)
            |> List.sort compare
          in
          let parent_ids = Array.of_list (List.map fst parents) in
          let rates =
            Array.of_list
              (List.map
               (fun (_, u) -> edge_rate ?base_rate ?sim_floor a ~model u h)
               parents)
          in
          Bn.add bn ~name:(Network.host_name net h) ~parents:parent_ids
            (Bn.Noisy_or { rates; leak = 0.0 })
        end
      in
      node_of.(h) <- id)
    order;
  (bn, node_of)

(* Explicit Section-VI construction: one multi-valued attacker-choice
   node per directed attack edge ("which shared service to exploit, or
   silent"), and one boolean compromise node per host whose CPT combines
   the choices' success rates.  Mathematically equivalent to the
   marginalized noisy-OR of [build]; kept as an executable specification
   and cross-validated in the test suite. *)
let build_explicit ?(base_rate = default_base_rate)
    ?(sim_floor = default_sim_floor) a ~entry ?(prior = 1.0) ~model () =
  let net = Assignment.network a in
  let incoming, order = attack_dag a ~entry in
  let bn = Dbn.create () in
  let node_of = Array.make (Array.length incoming) (-1) in
  List.iter
    (fun h ->
      if h = entry then
        node_of.(h) <-
          Dbn.add bn
            ~name:(Network.host_name net h)
            ~card:2 ~parents:[||]
            (fun _ k -> if k = 1 then prior else 1.0 -. prior)
      else begin
        (* one choice node per incoming attack edge *)
        let attack_nodes =
          List.filter_map
            (fun u ->
              if node_of.(u) < 0 then None
              else begin
                let rates =
                  match model with
                  | Fixed r -> [ r ]
                  | Uniform_choice | Best_choice ->
                      service_rates ~base_rate ~sim_floor a u h
                in
                match rates with
                | [] -> None
                | rates ->
                    let k = List.length rates in
                    let silent = k in
                    (* choice distribution given the source host *)
                    let choice parent_values v =
                      if parent_values.(0) = 0 then
                        if v = silent then 1.0 else 0.0
                      else begin
                        match model with
                        | Fixed _ -> if v = 0 then 1.0 else 0.0
                        | Uniform_choice ->
                            if v < k then 1.0 /. float_of_int k else 0.0
                        | Best_choice ->
                            (* single scan; List.nth per element made
                               this quadratic in the out-degree *)
                            let best = ref 0 and best_rate = ref neg_infinity in
                            List.iteri
                              (fun i r ->
                                if r > !best_rate then begin
                                  best := i;
                                  best_rate := r
                                end)
                              rates;
                            if v = !best then 1.0 else 0.0
                      end
                    in
                    let id =
                      Dbn.add bn
                        ~name:
                          (Printf.sprintf "atk_%s_%s"
                             (Network.host_name net u)
                             (Network.host_name net h))
                        ~card:(k + 1)
                        ~parents:[| node_of.(u) |]
                        choice
                    in
                    Some (id, Array.of_list rates)
              end)
            (List.sort compare incoming.(h))
        in
        let parents = Array.of_list (List.map fst attack_nodes) in
        let rate_tables = Array.of_list (List.map snd attack_nodes) in
        let cpd parent_values v =
          let escape = ref 1.0 in
          Array.iteri
            (fun i choice ->
              let rates = rate_tables.(i) in
              if choice < Array.length rates then
                escape := !escape *. (1.0 -. rates.(choice)))
            parent_values;
          if v = 1 then 1.0 -. !escape else !escape
        in
        node_of.(h) <-
          Dbn.add bn ~name:(Network.host_name net h) ~card:2 ~parents cpd
      end)
    order;
  (bn, node_of)

let p_compromise_explicit ?base_rate ?sim_floor a ~entry ~target ~model =
  let bn, node_of =
    build_explicit ?base_rate ?sim_floor a ~entry ~model ()
  in
  if node_of.(target) < 0 then 0.0
  else (Dbn.marginal bn node_of.(target)).(1)

let p_compromise ?base_rate ?sim_floor ?(samples = 200_000) ?rng a ~entry
    ~target ~model =
  let bn, node_of = build ?base_rate ?sim_floor a ~entry ~model () in
  if node_of.(target) < 0 then 0.0
  else
    let query = node_of.(target) in
    match Infer.exact_marginal bn query with
    | p -> p
    | exception Invalid_argument _ ->
        let rng =
          match rng with Some r -> r | None -> Random.State.make [| 97 |]
        in
        let hits = ref 0 in
        for _ = 1 to samples do
          let values = Infer.forward_sample ~rng bn in
          if values.(query) then incr hits
        done;
        float_of_int !hits /. float_of_int samples

let host_marginals ?base_rate ?sim_floor ?(samples = 50_000) ?rng a ~entry
    ~model =
  let bn, node_of = build ?base_rate ?sim_floor a ~entry ~model () in
  let rng =
    match rng with Some r -> r | None -> Random.State.make [| 131 |]
  in
  let n_hosts = Array.length node_of in
  let hits = Array.make (Bn.n_nodes bn) 0 in
  for _ = 1 to samples do
    let values = Infer.forward_sample ~rng bn in
    Array.iteri (fun i v -> if v then hits.(i) <- hits.(i) + 1) values
  done;
  Array.init n_hosts (fun h ->
      if node_of.(h) < 0 then (h, 0.0)
      else
        ( h,
          float_of_int hits.(node_of.(h)) /. float_of_int samples ))

let default_p_avg = 0.065

let diversity ?base_rate ?sim_floor ?samples ?rng ?(p_avg = default_p_avg) a
    ~entry ~target =
  let p_ref =
    p_compromise ?samples ?rng a ~entry ~target ~model:(Fixed p_avg)
  in
  let p_sim =
    p_compromise ?base_rate ?sim_floor ?samples ?rng a ~entry ~target
      ~model:Uniform_choice
  in
  if p_sim <= 0.0 then infinity else p_ref /. p_sim
