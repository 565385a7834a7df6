(* The benchmark's workloads and its scored-deployment pipeline.

   A deployment calls the public entry point of each layer in the order
   [Optimize.run] uses them — encode, solve, decode, constraint check —
   and then scores the result with d_bn ([Attack_bn.diversity]) and MTTC
   ([Engine.mttc]).  Each workload is built so that one layer does most
   of its work; NOTES.md gives the measured shares. *)

module Graph = Netdiv_graph.Graph
module Gen = Netdiv_graph.Gen
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Constr = Netdiv_core.Constr
module Encode = Netdiv_core.Encode
module Optimize = Netdiv_core.Optimize
module Mrf = Netdiv_mrf.Mrf
module Solver = Netdiv_mrf.Solver
module Trws = Netdiv_mrf.Trws
module Workload = Netdiv_workload.Workload
module Products = Netdiv_casestudy.Products
module Experiments = Netdiv_casestudy.Experiments
module Scaled = Netdiv_casestudy.Scaled
module Topology = Netdiv_casestudy.Topology
module Attack_bn = Netdiv_bayes.Attack_bn
module Engine = Netdiv_sim.Engine

type name = Casestudy | Table7 | Scaled160 | Zoned4k

let names =
  [
    ("casestudy", Casestudy);
    ("table7-1k", Table7);
    ("ics-scaled-160", Scaled160);
    ("zoned-4k", Zoned4k);
  ]

let label name = fst (List.find (fun (_, n) -> n = name) names)

(* [Tiny] is the smoke test's miniature of each workload. *)
type size = Full | Tiny

type scoring =
  | Tables of { seed : int; runs : int }
      (** the case study's Table V and Table VI over all five Section VII
          assignments *)
  | Entries of {
      entries : int list;
      target : int;
      dbn : bool;
      runs : int;
      seed : int;
    }  (** d_bn (when [dbn]) and MTTC from each entry to [target] *)

type input =
  | Net of {
      net : Network.t;
      constraints : Constr.t list list;
          (** one pipeline per constraint set; the last is the reported
              deployment *)
      scoring : scoring;
    }
  | Zoned of {
      model : Mrf.t;
      zone_of : int array;
      jobs : int;
      hosts : int;
      links : int;
    }

let cores () = Domain.recommended_domain_count ()

let generate ?(size = Full) name ~seed =
  let tiny = size = Tiny in
  let runs = if tiny then 20 else 1000 in
  match name with
  | Casestudy ->
      let net = Products.network () in
      Net
        {
          net;
          constraints =
            [
              [];
              Products.host_constraints net;
              Products.product_constraints net;
            ];
          scoring = Tables { seed; runs };
        }
  | Table7 ->
      (* input pinned to Workload.default's generator seed 1; the seed
         draws the MTTC streams.  Drawn from the seed, the instance moved
         the energy by 12.6% (quartile spread over seeds 1 to 10) and the
         solve's sweep count with it, which deploy_s's bound cannot hold
         on top of the host's own spread *)
      let p =
        if tiny then
          { Workload.default with hosts = 60; degree = 6; services = 4 }
        else Workload.default
      in
      Net
        {
          net = Workload.instance p;
          constraints = [ [] ];
          scoring =
            Entries
              { entries = [ 0 ]; target = p.hosts - 1; dbn = false; runs; seed };
        }
  | Scaled160 ->
      (* topology pinned to generator seed 1; the seed draws the MTTC
         streams.  Drawn from the seed, over seeds 1 to 5 the topology
         moved the cold deployment from 0.92 s to 5.0 s (d_bn's exact
         elimination), the peak heap from 5 to 60 MiB and rel_gap by 40%:
         a spread between seeds no bound of the benchmark can hold *)
      let s = Scaled.generate ~seed:1 ~scale:(if tiny then 1 else 5) () in
      Net
        {
          net = s.Scaled.network;
          constraints = [ [] ];
          scoring =
            Entries
              {
                entries = s.Scaled.entries;
                target = s.Scaled.target;
                dbn = true;
                runs;
                seed;
              };
        }
  | Zoned4k ->
      (* input pinned to default_zoned's stream, so the seed draws
         nothing here.  Drawn from the seed, over streams 1 to 5 the cold
         deployment ranged from 1.75 s to 2.69 s and the energy by 5%,
         on top of the host's own spread of about 16% on deploy_s *)
      let p =
        {
          Workload.default_zoned with
          z_hosts = (if tiny then 200 else 4000);
          z_zones = (if tiny then 4 else 8);
        }
      in
      let model, zone_of = Workload.stream_zoned p in
      Zoned
        {
          model;
          zone_of;
          (* never more domains than cores *)
          jobs = min 2 (cores ());
          hosts = p.Workload.z_hosts;
          links = Mrf.n_edges model / p.Workload.z_services;
        }

(* The library that generates a workload's input. *)
let gen_layer = function
  | Casestudy | Scaled160 -> "casestudy"
  | Table7 | Zoned4k -> "workload"

let hosts_links = function
  | Net { net; _ } -> (Network.n_hosts net, Graph.n_edges (Network.graph net))
  | Zoned { hosts; links; _ } -> (hosts, links)

let jobs = function Net _ -> 1 | Zoned { jobs; _ } -> jobs

(* Zone count and the edges that cross zones. *)
let zones = function
  | Net _ -> (1, 0)
  | Zoned { model; zone_of; _ } ->
      let boundary = ref 0 in
      for e = 0 to Mrf.n_edges model - 1 do
        let u, v = Mrf.edge_endpoints model e in
        if zone_of.(u) <> zone_of.(v) then incr boundary
      done;
      (1 + Array.fold_left max 0 zone_of, !boundary)

type solve = {
  model : Mrf.t;
  result : Solver.result;
  violations : int;
  recompute : unit -> float;  (** the energy recomputed from the labeling *)
  rerun : jobs:int -> Solver.result;  (** the same solve at a job count *)
}

type scored = {
  dbn : float list;  (** d_bn of the optimised deployments *)
  mttc : Engine.mttc_stats list;  (** MTTC of the optimised deployments *)
  dbn_calls : int;
  mttc_runs : int;
  bn_roots : (Assignment.t * int) list;
      (** (assignment, entry) of every attack BN evaluated *)
}

type deployment = { solves : solve list; scored : scored }

let unscored =
  { dbn = []; mttc = []; dbn_calls = 0; mttc_runs = 0; bn_roots = [] }

let optimize net constraints =
  let encoded =
    Span.with_ "core.encode" (fun () -> Encode.encode net constraints)
  in
  let result, _, _, _ =
    Span.with_ "mrf.solve" (fun () -> Optimize.solve_encoded_outcome encoded)
  in
  let assignment =
    Span.with_ "core.decode" (fun () ->
        Encode.decode encoded result.Solver.labeling)
  in
  let violated =
    Span.with_ "core.check" (fun () ->
        Constr.violations net assignment constraints)
  in
  ( assignment,
    {
      model = Encode.mrf encoded;
      result;
      violations = List.length violated;
      recompute = (fun () -> Encode.assignment_energy encoded assignment);
      rerun =
        (fun ~jobs ->
          let r, _, _, _ = Optimize.solve_encoded_outcome ~jobs encoded in
          r);
    } )

let optimised label =
  List.mem label [ "optimal"; "host-constr"; "product-constr" ]

let score_tables net constraints assignments ~seed ~runs =
  match (assignments, constraints) with
  | [ optimal; host_constrained; product_constrained ], [ _; c1; _ ] ->
      (* the baselines as Experiments.compute_assignments builds them *)
      let rng = Random.State.make [| seed |] in
      let a =
        {
          Experiments.optimal;
          host_constrained;
          product_constrained;
          random = Constr.apply_fixes net c1 (Assignment.random ~rng net);
          mono = Constr.apply_fixes net c1 (Assignment.mono net);
        }
      in
      let dbn_rows =
        Span.with_ "bayes.dbn" (fun () -> Experiments.diversity_table a)
      in
      let mttc_rows =
        Span.with_ "sim.mttc" (fun () -> Experiments.mttc_table ~seed ~runs a)
      in
      {
        dbn =
          List.filter_map
            (fun (r : Experiments.diversity_row) ->
              if optimised r.label then Some r.d_bn else None)
            dbn_rows;
        mttc =
          List.concat_map
            (fun (r : Experiments.mttc_row) ->
              if optimised r.label then List.map snd r.per_entry else [])
            mttc_rows;
        dbn_calls = List.length dbn_rows;
        mttc_runs =
          List.fold_left
            (fun n (r : Experiments.mttc_row) ->
              n + (runs * List.length r.per_entry))
            0 mttc_rows;
        bn_roots =
          List.map
            (fun (_, x) -> (x, Topology.host "c4"))
            (Experiments.labelled a);
      }
  | _ -> invalid_arg "Work.score_tables: needs the three Section VII runs"

let score_entries a ~entries ~target ~dbn ~runs ~seed =
  let dbn_values =
    if dbn then
      List.map
        (fun entry ->
          Span.with_ "bayes.dbn" (fun () ->
              Attack_bn.diversity a ~entry ~target))
        entries
    else []
  in
  let mttc =
    List.map
      (fun entry ->
        Span.with_ "sim.mttc" (fun () ->
            Engine.mttc
              ~rng:(Random.State.make [| seed; entry |])
              ~runs a ~entry ~target))
      entries
  in
  {
    dbn = dbn_values;
    mttc;
    dbn_calls = List.length dbn_values;
    mttc_runs = runs * List.length entries;
    bn_roots = (if dbn then List.map (fun e -> (a, e)) entries else []);
  }

let last l = List.nth l (List.length l - 1)

let deploy input =
  incr Span.deployment;
  Span.with_ "deploy" (fun () ->
      match input with
      | Net { net; constraints; scoring } ->
          let solve_all () = List.split (List.map (optimize net) constraints) in
          let assignments, solves =
            match scoring with
            | Tables _ -> Span.with_ "casestudy.assign" solve_all
            | Entries _ -> solve_all ()
          in
          let scored =
            match scoring with
            | Tables { seed; runs } ->
                score_tables net constraints assignments ~seed ~runs
            | Entries { entries; target; dbn; runs; seed } ->
                score_entries (last assignments) ~entries ~target ~dbn ~runs
                  ~seed
          in
          { solves; scored }
      | Zoned { model; zone_of; jobs; _ } ->
          let rerun ~jobs = Trws.solve_zoned ~zone_of ~jobs model in
          let result = Span.with_ "mrf.solve" (fun () -> rerun ~jobs) in
          {
            solves =
              [
                {
                  model;
                  result;
                  violations = 0;
                  recompute =
                    (fun () -> Mrf.energy model result.Solver.labeling);
                  rerun;
                };
              ];
            scored = unscored;
          })

let reported d = last d.solves

(* The correctness gate.  Energies agree to 1e-9 relative, since a
   solver may sum the same terms in another order than the recomputation
   does. *)
let failures d =
  let solve i s =
    let r = s.result in
    let e = s.recompute () in
    let tol = 1e-9 *. Float.max 1.0 (Float.abs e) in
    List.filter_map Fun.id
      [
        (if Float.is_finite r.Solver.energy && Float.abs (r.Solver.energy -. e) <= tol
         then None
         else
           Some
             (Printf.sprintf "solve %d: reported energy %.17g, recomputed %.17g"
                i r.Solver.energy e));
        (if r.Solver.lower_bound <= r.Solver.energy +. tol then None
         else
           Some
             (Printf.sprintf "solve %d: bound %.17g above energy %.17g" i
                r.Solver.lower_bound r.Solver.energy));
        (if s.violations = 0 then None
         else
           Some
             (Printf.sprintf "solve %d: %d constraint violations" i
                s.violations));
      ]
  in
  List.concat (List.mapi solve d.solves)
  @ List.filter_map
      (fun v ->
        if Float.is_finite v then None
        else Some (Printf.sprintf "d_bn %g is not finite" v))
      d.scored.dbn
  @ List.filter_map
      (fun (m : Engine.mttc_stats) ->
        if Float.is_finite m.mean_ticks then None
        else
          Some
            (Printf.sprintf "MTTC is not finite (%d of %d runs reached the \
                             target)"
               m.successes m.runs))
      d.scored.mttc

let energy d = (reported d).result.Solver.energy

let rel_gap d =
  let r = (reported d).result in
  (r.Solver.energy -. r.Solver.lower_bound) /. Float.abs r.Solver.energy

(* 0 when the workload scores nothing *)
let smallest = function [] -> 0.0 | l -> List.fold_left Float.min infinity l
let dbn_min d = smallest d.scored.dbn

let mttc_min d =
  smallest (List.map (fun (m : Engine.mttc_stats) -> m.mean_ticks) d.scored.mttc)

(* Every quality figure, bit for bit: equal seeds must repeat it. *)
let fingerprint d =
  String.concat " "
    (List.map (Printf.sprintf "%h")
       (List.concat_map
          (fun s -> [ s.result.Solver.energy; s.result.Solver.lower_bound ])
          d.solves
       @ d.scored.dbn
       @ List.map (fun (m : Engine.mttc_stats) -> m.mean_ticks) d.scored.mttc))

(* The metric catalogue, (name, unit), in BENCHMARK.json's order. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("deploy_s", "s");
    ("peak_heap_mb", "MiB");
    ("energy", "1");
    ("rel_gap", "fraction");
  ]

(* A layer that a workload does not call reports a time, a share or a
   count of 0. *)
let per_layer =
  [
    ("workload.gen_s", "s");
    ("casestudy.gen_s", "s");
    ("gen.hosts", "count");
    ("gen.links", "count");
    ("core.encode_s", "s");
    ("core.encode_alloc_mw", "Mw");
    ("core.decode_s", "s");
    ("core.check_s", "s");
    ("core.violations", "count");
    ("mrf.vars", "count");
    ("mrf.edges", "count");
    ("mrf.tables", "count");
    ("mrf.words", "count");
    ("mrf.solve_s", "s");
    ("mrf.sweeps", "count");
    ("mrf.s_per_sweep", "s");
    ("mrf.solve_alloc_mw", "Mw");
    ("mrf.converged", "fraction");
    ("mrf.zones", "count");
    ("mrf.zone_rounds", "count");
    ("mrf.boundary_edges", "count");
    ("par.jobs", "count");
    ("par.cores", "count");
    ("par.speedup_2j", "x");
    ("casestudy.assign_s", "s");
    ("bayes.dbn_s", "s");
    ("bayes.dbn_max_s", "s");
    ("bayes.calls", "count");
    ("bayes.bn_nodes_max", "count");
    ("bayes.alloc_mw", "Mw");
    ("bayes.d_bn_min", "1");
    ("sim.mttc_s", "s");
    ("sim.runs", "count");
    ("sim.runs_per_s", "1/s");
    ("sim.alloc_mw", "Mw");
    ("sim.mttc_min_ticks", "ticks");
    ("gc.minor_mw", "Mw");
    ("gc.major_collections", "count");
    ("share.encode", "fraction");
    ("share.solve", "fraction");
    ("share.decode", "fraction");
    ("share.check", "fraction");
    ("share.dbn", "fraction");
    ("share.mttc", "fraction");
    ("share.other", "fraction");
    ("trace.deploy_s", "s");
    ("trace.overhead", "fraction");
    ("trace.samples", "count");
  ]

let bn_nodes_max d =
  List.fold_left
    (fun m (a, entry) ->
      let bn, _ = Attack_bn.build a ~entry ~model:Attack_bn.Uniform_choice () in
      max m (Netdiv_bayes.Bn.n_nodes bn))
    0 d.scored.bn_roots
