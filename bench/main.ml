(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see EXPERIMENTS.md for the paper-vs-measured record), then
   runs Bechamel micro-benchmarks of the core operations.

     dune exec bench/main.exe

   The scalability sweeps (Tables VII-IX) default to reduced ranges so the
   whole run finishes in a few minutes; set NETDIV_BENCH_FULL=1 for the
   paper's full ranges (up to 6,000 hosts and 240,000 links).
   NETDIV_BENCH_RUNS overrides the 1,000 simulation runs per MTTC cell.
   NETDIV_BENCH_SMOKE=1 runs only the fast sections: parallel speedup,
   instrumentation overhead, potential interning, the zoned scale tier
   and lint analysis (the CI smoke used by tools/check.sh).

   Every run also writes BENCH.json (override the path with
   NETDIV_BENCH_JSON): per-section wall time, peak heap words and named
   metrics, machine-readable for regression tracking.  The parallel
   sections double as determinism checks — any jobs-dependent result
   turns into a nonzero exit status. *)

module Corpus = Netdiv_vuln.Corpus
module Similarity = Netdiv_vuln.Similarity
module Graph = Netdiv_graph.Graph
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Optimize = Netdiv_core.Optimize
module Encode = Netdiv_core.Encode
module Attack_bn = Netdiv_bayes.Attack_bn
module Engine = Netdiv_sim.Engine
module Workload = Netdiv_workload.Workload
module Obs = Netdiv_obs.Obs
module Topology = Netdiv_casestudy.Topology
module Products = Netdiv_casestudy.Products
module Experiments = Netdiv_casestudy.Experiments
module Metrics = Netdiv_metrics.Metrics

(* tier selection: the env vars are the historical CI interface, the
   --full / --smoke flags the human one (dune exec bench/main.exe --
   --full); either spelling wins *)
let argv_flag name = Array.exists (String.equal name) Sys.argv

let full_sweep =
  argv_flag "--full"
  ||
  match Sys.getenv_opt "NETDIV_BENCH_FULL" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let mttc_runs =
  match Sys.getenv_opt "NETDIV_BENCH_RUNS" with
  | Some s -> (try int_of_string s with Failure _ -> 1000)
  | None -> 1000

let smoke =
  argv_flag "--smoke"
  ||
  match Sys.getenv_opt "NETDIV_BENCH_SMOKE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* Min-of-N-cycles timing (the ci_bench discipline): report the fastest
   of [rounds] timed cycles, a major collection before each.  The
   minimum is the repetition least disturbed by the scheduler and the
   collector — single-shot timings of ~50 ms solves wobble by more than
   the speedups being measured. *)
let bench_rounds = if full_sweep then 5 else 3

let cycles_of ?(rounds = bench_rounds) f =
  let ts = Array.make (max 1 rounds) 0.0 in
  for i = 0 to Array.length ts - 1 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    ts.(i) <- Unix.gettimeofday () -. t0
  done;
  ts

let best_of ?rounds f = Array.fold_left Float.min infinity (cycles_of ?rounds f)

(* Min/median/max of a cycle array: the statistical trajectory behind a
   best-of headline number.  [spread "solve_1j" ts] emits
   solve_1j_min_s / solve_1j_med_s / solve_1j_max_s — tools/bench_page
   renders the band around the headline sparkline and tools/bench_diff
   prefers the median (scheduler-noise-resistant) when both runs carry
   it. *)
let sorted_copy ts =
  let s = Array.copy ts in
  Array.sort Float.compare s;
  s

let section title =
  Format.printf "@.======================================================@.";
  Format.printf "%s@." title;
  Format.printf "======================================================@."

(* A solve's energy and bound, called optimal only where the bound
   certifies it, and otherwise given with its gap. *)
let pp_energy ppf (r : Optimize.report) =
  let module S = Netdiv_mrf.Solver in
  let result = r.Optimize.solver_result in
  if S.certified result then
    Format.fprintf ppf "optimal energy %a (bound %a)" S.pp_float
      r.Optimize.energy S.pp_float r.Optimize.lower_bound
  else
    Format.fprintf ppf "energy %a (bound %a, gap %a)" S.pp_float
      r.Optimize.energy S.pp_float r.Optimize.lower_bound S.pp_float
      (S.optimality_gap result)

(* ---------------------------------------- machine-readable report *)

(* Accumulates per-section wall time, peak heap words and named float
   metrics, then writes them as BENCH.json (hand-rolled — no JSON
   dependency).  Section and metric names are code-controlled
   identifiers, so the writer does not need string escaping.  The
   determinism checks below bump [failures]; a nonzero count becomes a
   nonzero exit status so CI catches jobs-dependent results. *)
module Report = struct
  type entry = {
    name : string;
    wall_s : float;
    top_heap_words : int;
    metrics : (string * float) list;
  }

  let entries : entry list ref = ref []
  let current : (string * float) list ref = ref []
  let failures = ref 0
  let metric name value = current := (name, value) :: !current

  let fail msg =
    incr failures;
    Format.printf "FAIL: %s@." msg

  let timed name f =
    current := [];
    let t0 = Unix.gettimeofday () in
    f ();
    let wall_s = Unix.gettimeofday () -. t0 in
    let gc = Gc.quick_stat () in
    entries :=
      { name; wall_s; top_heap_words = gc.Gc.top_heap_words;
        metrics = List.rev !current }
      :: !entries

  let json_float v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

  (* Run provenance: lets a BENCH.json (and the bench_history snapshots
     built from it) answer "which commit, machine and job ladder
     produced these numbers" without external bookkeeping.  The
     tools/bench_json scanner ignores string values outside "name", so
     the extra header fields are schema-compatible with older tools. *)
  let sanitize s =
    String.map
      (fun c ->
        if c = '"' || c = '\\' || Char.code c < 0x20 then '_' else c)
      s

  let commit_id () =
    let line =
      try
        let ic =
          Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
        in
        let l = try Some (input_line ic) with End_of_file -> None in
        ignore (Unix.close_process_in ic);
        l
      with Unix.Unix_error _ | Sys_error _ -> None
    in
    match line with
    | Some c when String.trim c <> "" -> String.trim c
    | _ -> "unknown"

  let hostname () = try Unix.gethostname () with Unix.Unix_error _ -> "unknown"

  (* The report lands via the shared atomic writer (temp + fsync +
     rename): a benchmark killed mid-write must not leave a truncated
     BENCH.json for tools/bench_diff to choke on. *)
  let write path =
    let b = Buffer.create 4096 in
    Printf.bprintf b
      "{\n  \"full_sweep\": %b,\n  \"smoke\": %b,\n  \"mttc_runs\": %d,\n\
      \  \"commit\": \"%s\",\n  \"hostname\": \"%s\",\n  \"jobs\": \"%s\",\n\
      \  \"sections\": [\n"
      full_sweep smoke mttc_runs
      (sanitize (commit_id ()))
      (sanitize (hostname ()))
      (if full_sweep then "1,2,4,8" else "1,2,4");
    let all = List.rev !entries in
    let last = List.length all - 1 in
    List.iteri
      (fun i e ->
        Printf.bprintf b
          "    {\"name\": \"%s\", \"wall_s\": %s, \"top_heap_words\": %d"
          e.name (json_float e.wall_s) e.top_heap_words;
        List.iter
          (fun (k, v) -> Printf.bprintf b ", \"%s\": %s" k (json_float v))
          e.metrics;
        Printf.bprintf b "}%s\n" (if i = last then "" else ","))
      all;
    Printf.bprintf b "  ],\n  \"failures\": %d\n}\n" !failures;
    match Netdiv_fault.Io.write_atomic ~path (Buffer.contents b) with
    | Ok () -> ()
    | Error msg -> fail (Printf.sprintf "cannot write %s: %s" path msg)
end

(* emit the min/median/max variance band of a cycle array next to a
   best-of headline metric (see [sorted_copy] above for the contract) *)
let spread base ts =
  let s = sorted_copy ts in
  let n = Array.length s in
  if n > 0 then begin
    Report.metric (base ^ "_min_s") s.(0);
    Report.metric (base ^ "_med_s") s.(n / 2);
    Report.metric (base ^ "_max_s") s.(n - 1)
  end

(* A parallel speedup is a measurement only on a host with a core per
   job or domain, and only of work that [Pool] dispatches: a region
   estimated under [Pool.sequential_cutoff] runs [inline] at every job
   count.  Otherwise it is recorded as NaN (null in BENCH.json) and
   printed as "unmeasured", never as a ratio of time-sliced or inline
   runs. *)
let speedup ?(inline = false) ~cores ~jobs ratio =
  if cores < jobs || (inline && jobs > 1) then nan else ratio

let pp_speedup ppf s =
  if Float.is_nan s then Format.fprintf ppf "%10s" "unmeasured"
  else Format.fprintf ppf "%9.2fx" s

(* ------------------------------------------------- Tables II and III *)

let similarity_tables () =
  section "[Table II] OS vulnerability similarity (CVE/NVD 1999-2016)";
  Format.printf "%a@." Similarity.pp (Corpus.table Corpus.os_spec);
  section "[Table III] Web browser vulnerability similarity";
  Format.printf "%a@." Similarity.pp (Corpus.table Corpus.browser_spec);
  section "[Table III+] Database vulnerability similarity (curated)";
  Format.printf "%a@." Similarity.pp (Corpus.table Corpus.database_spec);
  (* verify the synthetic-NVD round trip on the fly *)
  let spec = Corpus.os_spec in
  let round =
    Similarity.of_nvd ~since:1999 ~until:2016 (Corpus.synthesize spec)
      (Array.to_list spec.Corpus.products)
  in
  let ok = ref true in
  let n = Similarity.size round in
  let reference = Corpus.table spec in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        Similarity.shared_count round i j
        <> Similarity.shared_count reference i j
      then ok := false
    done
  done;
  Format.printf "synthetic NVD round-trip reproduces Table II exactly: %b@."
    !ok

(* -------------------------------------------------------- Figure 1 *)

let figure1 () =
  section "[Figure 1] Motivational example: breach probability of the target";
  let module Gen = Netdiv_graph.Gen in
  let breach a =
    Attack_bn.p_compromise ~base_rate:1.0 ~sim_floor:0.0 a ~entry:0 ~target:3
      ~model:Attack_bn.Best_choice
  in
  let single sim =
    let services =
      [| { Network.sv_name = "app"; sv_products = [| "circle"; "triangle" |];
           sv_similarity = [| 1.0; sim; sim; 1.0 |] } |]
    in
    Network.create ~graph:(Gen.line 4) ~services
      ~hosts:
        (Array.init 4 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services = [ (0, [||]) ] }))
  in
  let alternate net = Assignment.make net (fun ~host ~service:_ -> host mod 2) in
  Format.printf "(a) single-label, similarity 0.0: %.3f   (paper: 0)@."
    (breach (alternate (single 0.0)));
  Format.printf "(b) single-label, similarity 0.5: %.3f   (paper: ~0.125)@."
    (breach (alternate (single 0.5)));
  let services =
    [|
      { Network.sv_name = "app"; sv_products = [| "circle"; "triangle" |];
        sv_similarity = [| 1.0; 0.5; 0.5; 1.0 |] };
      { Network.sv_name = "square"; sv_products = [| "square" |];
        sv_similarity = [| 1.0 |] };
    |]
  in
  let net =
    Network.create ~graph:(Gen.line 4) ~services
      ~hosts:
        (Array.init 4 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services =
                 (if h = 0 then [ (0, [||]) ] else [ (0, [||]); (1, [||]) ]) }))
  in
  let c =
    Assignment.make net (fun ~host ~service ->
        if service = 0 then host mod 2 else 0)
  in
  Format.printf "(c) multi-label, two exploits:    %.3f   (paper: ~0.5)@."
    (breach c)

(* -------------------------------------------------------- Figure 2 *)

let figure2 () =
  section "[Figure 2] Example network: optimal vs homogeneous assignment";
  let graph =
    Graph.of_edges ~n:6
      [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 4); (3, 4); (3, 5); (4, 5) ]
  in
  let services =
    [|
      { Network.sv_name = "browser"; sv_products = [| "wb1"; "wb2"; "wb3" |];
        sv_similarity = [| 1.0; 0.3; 0.0; 0.3; 1.0; 0.1; 0.0; 0.1; 1.0 |] };
      { Network.sv_name = "database"; sv_products = [| "db1"; "db2"; "db3" |];
        sv_similarity = [| 1.0; 0.2; 0.05; 0.2; 1.0; 0.0; 0.05; 0.0; 1.0 |] };
    |]
  in
  let hosts =
    Array.init 6 (fun h ->
        { Network.h_name = Printf.sprintf "h%d" h;
          h_services = [ (0, [||]); (1, [||]) ] })
  in
  let net = Network.create ~graph ~services ~hosts in
  let r = Optimize.run net [] in
  let e = Encode.encode net [] in
  Format.printf "%a@." pp_energy r;
  Format.printf "homogeneous       %.4f@."
    (Encode.assignment_energy e (Assignment.mono net));
  Format.printf "random (seed 1)   %.4f@."
    (Encode.assignment_energy e
       (Assignment.random ~rng:(Random.State.make [| 1 |]) net))

(* ---------------------------------------------- case study artifacts *)

let case_assignments = lazy (
  let net = Products.network () in
  (net, Experiments.compute_assignments net))

let figure4 () =
  section "[Figure 4] Case-study optimal assignments";
  let net, a = Lazy.force case_assignments in
  let print_products label assignment h =
    Format.printf "%-10s" label;
    Array.iter
      (fun s ->
        Format.printf " %-9s"
          (Network.product_name net ~service:s
             (Assignment.get assignment ~host:h ~service:s)))
      (Network.host_services net h);
    Format.printf "@."
  in
  for h = 0 to Network.n_hosts net - 1 do
    if Array.length (Network.host_services net h) > 0 then begin
      Format.printf "%s:@." (Network.host_name net h);
      print_products "  (a)" a.Experiments.optimal h;
      print_products "  (b)" a.Experiments.host_constrained h;
      print_products "  (c)" a.Experiments.product_constrained h
    end
  done

let table5 () =
  section "[Table V] Network diversity metric d_bn (entry c4, target t5)";
  let _, a = Lazy.force case_assignments in
  let paper =
    [ ("optimal", 0.81457); ("host-constr", 0.48590);
      ("product-constr", 0.48119); ("random", 0.26622); ("mono", 0.06709) ]
  in
  Format.printf "%-16s %10s %10s %10s %12s@." "assignment" "log10 P'"
    "log10 P" "d_bn" "paper d_bn";
  List.iter
    (fun (r : Experiments.diversity_row) ->
      Format.printf "%-16s %10.3f %10.3f %10.5f %12.5f@." r.label
        r.log_p_ref r.log_p_sim r.d_bn
        (List.assoc r.label paper))
    (Experiments.diversity_table a)

let table6 () =
  section
    (Printf.sprintf "[Table VI] MTTC in ticks (%d runs per cell)" mttc_runs);
  let _, a = Lazy.force case_assignments in
  let paper =
    [ ("optimal", [ 45.313; 37.561; 52.663; 52.491; 24.053 ]);
      ("host-constr", [ 28.041; 16.812; 44.359; 48.472; 15.243 ]);
      ("product-constr", [ 14.549; 15.817; 45.118; 46.257; 14.749 ]);
      ("mono", [ 14.345; 12.654; 19.338; 18.865; 15.916 ]) ]
  in
  Format.printf "%-16s" "assignment";
  List.iter (Format.printf "%9s") Topology.entry_points;
  Format.printf "@.";
  List.iter
    (fun (r : Experiments.mttc_row) ->
      Format.printf "%-16s" r.label;
      List.iter
        (fun (_, (s : Engine.mttc_stats)) -> Format.printf "%9.2f" s.mean_ticks)
        r.per_entry;
      Format.printf "@.";
      Format.printf "%-16s" "  (paper)";
      List.iter (Format.printf "%9.2f") (List.assoc r.label paper);
      Format.printf "@.")
    (Experiments.mttc_table ~runs:mttc_runs a)

(* --------------------------------------------- scalability sweeps *)

let time_instance ~hosts ~degree ~services =
  let net =
    Workload.instance
      { hosts; degree; services; products_per_service = 4; seed = 1 }
  in
  let t0 = Unix.gettimeofday () in
  let report = Optimize.run net [] in
  ignore report.Optimize.energy;
  Unix.gettimeofday () -. t0

let table7 () =
  section "[Table VII] Optimization time (s) vs number of hosts";
  let sizes =
    if full_sweep then [ 100; 200; 400; 600; 800; 1000; 2000; 4000; 6000 ]
    else [ 100; 200; 400; 600; 800; 1000; 2000 ]
  in
  Format.printf "%-30s" "# hosts";
  List.iter (Format.printf "%9d") sizes;
  Format.printf "@.";
  let row label degree services =
    Format.printf "%-30s" label;
    List.iter
      (fun hosts ->
        Format.printf "%9.3f%!" (time_instance ~hosts ~degree ~services))
      sizes;
    Format.printf "@."
  in
  row "mid-density (deg 20, 15 svc)" 20 15;
  let high_sizes = if full_sweep then sizes else [ 100; 200; 400; 600 ] in
  Format.printf "%-30s" "# hosts";
  List.iter (Format.printf "%9d") high_sizes;
  Format.printf "@.";
  Format.printf "%-30s" "high-density (deg 40, 25 svc)";
  List.iter
    (fun hosts ->
      Format.printf "%9.3f%!" (time_instance ~hosts ~degree:40 ~services:25))
    high_sizes;
  Format.printf "@."

let table8 () =
  section "[Table VIII] Optimization time (s) vs average degree";
  let degrees =
    if full_sweep then [ 5; 10; 15; 20; 25; 30; 35; 40; 45; 50 ]
    else [ 5; 10; 20; 30; 40; 50 ]
  in
  Format.printf "%-30s" "# degree";
  List.iter (Format.printf "%9d") degrees;
  Format.printf "@.";
  Format.printf "%-30s" "mid-scale (1000 hosts, 15 svc)";
  List.iter
    (fun degree ->
      Format.printf "%9.3f%!" (time_instance ~hosts:1000 ~degree ~services:15))
    degrees;
  Format.printf "@.";
  if full_sweep then begin
    Format.printf "%-30s" "large (6000 hosts, 25 svc)";
    List.iter
      (fun degree ->
        Format.printf "%9.3f%!"
          (time_instance ~hosts:6000 ~degree ~services:25))
      degrees;
    Format.printf "@."
  end

let table9 () =
  section "[Table IX] Optimization time (s) vs number of services";
  let services = [ 5; 10; 15; 20; 25; 30 ] in
  Format.printf "%-30s" "# services";
  List.iter (Format.printf "%9d") services;
  Format.printf "@.";
  Format.printf "%-30s" "mid-scale (1000 hosts, deg 20)";
  List.iter
    (fun s ->
      Format.printf "%9.3f%!" (time_instance ~hosts:1000 ~degree:20 ~services:s))
    services;
  Format.printf "@.";
  if full_sweep then begin
    Format.printf "%-30s" "large (6000 hosts, deg 40)";
    List.iter
      (fun s ->
        Format.printf "%9.3f%!"
          (time_instance ~hosts:6000 ~degree:40 ~services:s))
      services;
    Format.printf "@."
  end

(* ---------------------------------------------- diversity metrics *)

let metrics_table () =
  section "[Metrics] d1 / least-effort / d2 / d3 per assignment (entry c4, target t5)";
  let net, a = Lazy.force case_assignments in
  let entry = Topology.host "c4" and target = Topology.host "t5" in
  Format.printf "%-16s %8s %6s %8s %10s@." "assignment" "d1" "k" "d2" "d3";
  List.iter
    (fun (label, assignment) ->
      let k =
        match Metrics.least_effort ~limit:5 assignment ~entry ~target with
        | Ok e -> string_of_int (List.length e)
        | Error `Above_limit -> ">5"
        | Error `Unreachable -> "inf"
      in
      Format.printf "%-16s %8.4f %6s %8.4f %10.5f@." label
        (Metrics.d1 assignment) k
        (Metrics.d2 assignment ~entry ~target)
        (Metrics.d3 assignment ~entry ~target))
    (Experiments.labelled a);
  ignore net

(* --------------------------------------------------- ablation benches *)

let ablation_solvers () =
  section "[Ablation] solvers on a 400-host random network (deg 10, 5 svc)";
  let net =
    Workload.instance
      { hosts = 400; degree = 10; services = 5; products_per_service = 4;
        seed = 3 }
  in
  let e = Encode.encode net [] in
  let mono = Encode.assignment_energy e (Assignment.mono net) in
  Format.printf "%-10s %12s %12s %10s %8s@." "solver" "energy" "bound"
    "time (s)" "vs mono";
  List.iter
    (fun solver ->
      let r = Optimize.run ~solver net [] in
      Format.printf "%-10s %12.2f %12.2f %10.3f %7.1f%%@."
        (Optimize.solver_name solver)
        r.Optimize.energy r.Optimize.lower_bound r.Optimize.runtime_s
        (100.0 *. r.Optimize.energy /. mono))
    [ Optimize.Trws_icm; Optimize.Trws; Optimize.Icm; Optimize.Sa ];
  Format.printf "%-10s %12.2f@." "mono" mono

let ablation_topologies () =
  section "[Ablation] topology families at ~400 hosts, average degree ~6";
  let module T = Netdiv_graph.Topologies in
  let module St = Netdiv_graph.Stats in
  let rng () = Random.State.make [| 11 |] in
  let zoned =
    (T.zoned ~rng:(rng ()) ~zone_sizes:(Array.make 20 20) ~intra_degree:5
       ~gateway_links:2 ())
      .T.graph
  in
  let graphs =
    [
      ("uniform", Netdiv_graph.Gen.avg_degree ~rng:(rng ()) ~n:400 ~degree:6);
      ("scale-free", T.barabasi_albert ~rng:(rng ()) ~n:400 ~m:3);
      ("small-world", T.watts_strogatz ~rng:(rng ()) ~n:400 ~k:6 ~beta:0.2);
      ("zoned-ics", zoned);
    ]
  in
  Format.printf "%-12s %7s %7s %9s %12s %12s %9s@." "topology" "edges"
    "maxdeg" "cluster" "opt energy" "mono" "time (s)";
  List.iter
    (fun (label, graph) ->
      let services =
        Array.init 5 (fun sv ->
            { Netdiv_core.Network.sv_name = Printf.sprintf "svc%d" sv;
              sv_products = Array.init 4 (fun k -> Printf.sprintf "p%d" k);
              sv_similarity =
                Workload.synthetic_similarity
                  ~rng:(Random.State.make [| 5; sv |])
                  ~products:4 })
      in
      let hosts =
        Array.init (Netdiv_graph.Graph.n_nodes graph) (fun h ->
            { Netdiv_core.Network.h_name = Printf.sprintf "h%d" h;
              h_services = List.init 5 (fun sv -> (sv, [||])) })
      in
      let net = Network.create ~graph ~services ~hosts in
      let r = Optimize.run net [] in
      let e = Encode.encode net [] in
      let mono = Encode.assignment_energy e (Assignment.mono net) in
      Format.printf "%-12s %7d %7d %9.3f %12.2f %12.2f %9.3f@." label
        (Netdiv_graph.Graph.n_edges graph)
        (Netdiv_graph.Graph.max_degree graph)
        (St.average_clustering graph) r.Optimize.energy mono
        r.Optimize.runtime_s)
    graphs

let ablation_weighted () =
  section "[Ablation] severity-weighted similarity on the case study";
  let plain = Products.network () in
  let weighted = Products.network_weighted () in
  let entry = Topology.host "c4" and target = Topology.host "t5" in
  List.iter
    (fun (label, net) ->
      let r = Optimize.run net [] in
      let dbn =
        Netdiv_bayes.Attack_bn.diversity r.Optimize.assignment ~entry ~target
      in
      Format.printf "%-10s %a  d_bn %8.5f@." label pp_energy r dbn)
    [ ("plain", plain); ("weighted", weighted) ];
  (* do the two objectives agree on the deployment? *)
  let a_plain = (Optimize.run plain []).Optimize.assignment in
  let a_weighted = (Optimize.run weighted []).Optimize.assignment in
  let differing = ref 0 in
  for h = 0 to Network.n_hosts plain - 1 do
    Array.iter
      (fun s ->
        if
          Assignment.get a_plain ~host:h ~service:s
          <> Assignment.get a_weighted ~host:h ~service:s
        then incr differing)
      (Network.host_services plain h)
  done;
  Format.printf "slots assigned differently under the weighted metric: %d@."
    !differing

let ablation_constraints () =
  section "[Ablation] optimization cost & diversity vs number of Fix constraints";
  let net = Products.network () in
  let all = Products.host_constraints net in
  Format.printf "%-14s %10s %12s %10s@." "# constraints" "energy" "bound"
    "time (s)";
  List.iter
    (fun k ->
      let cs = List.filteri (fun i _ -> i < k) all in
      let r = Optimize.run net cs in
      Format.printf "%-14d %10.4f %12.4f %10.3f@." k r.Optimize.energy
        r.Optimize.lower_bound r.Optimize.runtime_s)
    [ 0; 3; 6; 9; 11 ]

(* ---------------------------------------------- scaled realistic ICS *)

let scaled_ics () =
  section "[Scaled] realistic zoned ICS (case-study roles at N x scale)";
  let module Scaled = Netdiv_casestudy.Scaled in
  let scales = if full_sweep then [ 1; 5; 20; 50; 100; 200 ] else [ 1; 5; 20; 50 ] in
  Format.printf "%6s %7s %8s %10s %12s %12s %7s@." "scale" "hosts" "links"
    "opt (s)" "energy" "bound" "gap";
  List.iter
    (fun scale ->
      let s = Scaled.generate ~scale () in
      let r = Optimize.run s.Scaled.network [] in
      let gap =
        100.0
        *. (r.Optimize.energy -. r.Optimize.lower_bound)
        /. Float.max r.Optimize.energy 1e-9
      in
      Format.printf "%6d %7d %8d %10.3f %12.2f %12.2f %6.1f%%@." scale
        (Network.n_hosts s.Scaled.network)
        (Graph.n_edges (Network.graph s.Scaled.network))
        r.Optimize.runtime_s r.Optimize.energy r.Optimize.lower_bound gap;
      if scale <= 5 then begin
        let mono = Assignment.mono s.Scaled.network in
        let entry = List.hd s.Scaled.entries in
        let opt_stats =
          Engine.mttc_parallel ~seed:5 ~runs:300 r.Optimize.assignment
            ~entry ~target:s.Scaled.target ()
        in
        let mono_stats =
          Engine.mttc_parallel ~seed:5 ~runs:300 mono ~entry
            ~target:s.Scaled.target ()
        in
        Format.printf
          "       MTTC from corporate: optimal %.1f vs mono %.1f ticks@."
          opt_stats.Engine.mean_ticks mono_stats.Engine.mean_ticks
      end)
    scales

(* ------------------------------------------- attacker capability *)

let ablation_attacker () =
  section "[Ablation] attacker capability levels (case study, entry c4, MTTC)";
  let _, a = Lazy.force case_assignments in
  let entry = Topology.host "c4" and target = Topology.host "t5" in
  Format.printf "%-16s %14s %14s %14s@." "assignment" "reconnaissance"
    "uniform" "static arsenal";
  List.iter
    (fun (label, assignment) ->
      let mean strategy seed =
        let stats, _ =
          Engine.mttc_summary
            ~rng:(Random.State.make [| seed |])
            ~strategy ~runs:mttc_runs assignment ~entry ~target
        in
        if stats.Engine.successes = 0 then nan else stats.Engine.mean_ticks
      in
      Format.printf "%-16s %14.2f %14.2f %14.2f@." label
        (mean Engine.Best_exploit 41)
        (mean Engine.Uniform_exploit 42)
        (mean Engine.Arsenal_exploit 43))
    (List.filter
       (fun (l, _) -> l = "optimal" || l = "mono")
       (Experiments.labelled a))

(* ------------------------------------------- defense in depth *)

let ablation_defense_in_depth () =
  section "[Ablation] asset-weighted optimization (protecting t5)";
  let net, _ = Lazy.force case_assignments in
  let target = Topology.host "t5" in
  let dist = Netdiv_graph.Traversal.bfs (Network.graph net) target in
  let weight u v =
    if min dist.(u) dist.(v) <= 1 && dist.(u) >= 0 && dist.(v) >= 0 then 5.0
    else 1.0
  in
  let plain = Optimize.run net [] in
  let weighted = Optimize.run ~edge_weight:weight net [] in
  Format.printf "%-22s %12s %12s@." "" "plain opt" "weighted opt";
  let unweighted_energy a =
    Encode.assignment_energy (Encode.encode net []) a
  in
  Format.printf "%-22s %12.4f %12.4f@." "unweighted energy"
    (unweighted_energy plain.Optimize.assignment)
    (unweighted_energy weighted.Optimize.assignment);
  List.iter
    (fun entry_name ->
      let entry = Topology.host entry_name in
      let mttc a seed =
        (Engine.mttc_parallel ~seed ~runs:mttc_runs a ~entry ~target ())
          .Engine.mean_ticks
      in
      Format.printf "%-22s %12.2f %12.2f@."
        (Printf.sprintf "MTTC from %s" entry_name)
        (mttc plain.Optimize.assignment 51)
        (mttc weighted.Optimize.assignment 52))
    Topology.entry_points

(* ------------------------------------------- certified optimality *)

let extension_certified () =
  section "[Exact] min-sum elimination certificates";
  (* the Fig. 2 example *)
  let graph =
    Graph.of_edges ~n:6
      [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 4); (3, 4); (3, 5); (4, 5) ]
  in
  let services =
    [|
      { Network.sv_name = "browser"; sv_products = [| "wb1"; "wb2"; "wb3" |];
        sv_similarity = [| 1.0; 0.3; 0.0; 0.3; 1.0; 0.1; 0.0; 0.1; 1.0 |] };
      { Network.sv_name = "database"; sv_products = [| "db1"; "db2"; "db3" |];
        sv_similarity = [| 1.0; 0.2; 0.05; 0.2; 1.0; 0.0; 0.05; 0.0; 1.0 |] };
    |]
  in
  let hosts =
    Array.init 6 (fun h ->
        { Network.h_name = Printf.sprintf "h%d" h;
          h_services = [ (0, [||]); (1, [||]) ] })
  in
  let fig2 = Network.create ~graph ~services ~hosts in
  let case = Products.network () in
  let scaled =
    let module Scaled = Netdiv_casestudy.Scaled in
    (Scaled.generate ~seed:1 ~scale:5 ()).Scaled.network
  in
  Format.printf "%-18s %12s %9s %12s@." "model" "exact" "time (s)"
    "trws+icm";
  List.iter
    (fun (name, net, constraints) ->
      let exact = Optimize.run ~solver:Optimize.Exact net constraints in
      let approx = Optimize.run net constraints in
      Format.printf "%-18s %12.6f %9.4f %12.6f@." name exact.Optimize.energy
        exact.Optimize.runtime_s approx.Optimize.energy;
      if exact.Optimize.outcome <> Netdiv_mrf.Runner.Converged then
        Report.fail (name ^ ": exact solve is not certified");
      if not (Float.equal exact.Optimize.lower_bound exact.Optimize.energy)
      then Report.fail (name ^ ": certified bound differs from its energy");
      if exact.Optimize.energy > approx.Optimize.energy +. 1e-9 then
        Report.fail (name ^ ": certified optimum above the default pipeline"))
    [
      ("Fig. 2", fig2, []);
      ("case study", case, []);
      ("case study C1", case, Products.host_constraints case);
      ("case study C2", case, Products.product_constraints case);
      ("ics-scaled-160", scaled, []);
    ]

(* ------------------------------------------- detection & response *)

let extension_defense () =
  section "[Extension] detection & response: P(t5 compromised) vs detection rate";
  let _, a = Lazy.force case_assignments in
  let entry = Topology.host "c4" and target = Topology.host "t5" in
  let rates = [ 0.0; 0.01; 0.03; 0.1 ] in
  Format.printf "%-16s" "assignment";
  List.iter (fun r -> Format.printf "  det=%-6.2f" r) rates;
  Format.printf "@.";
  List.iter
    (fun (label, assignment) ->
      Format.printf "%-16s" label;
      List.iter
        (fun rate ->
          let stats =
            Engine.mttc_defended
              ~rng:(Random.State.make [| 71 |])
              ~defense:{ Engine.detect_rate = rate; immunize = true }
              ~max_ticks:2000 ~runs:(max 200 (mttc_runs / 2))
              assignment ~entry ~target
          in
          Format.printf "  %10.3f"
            (float_of_int stats.Engine.successes
            /. float_of_int stats.Engine.runs))
        rates;
      Format.printf "@.")
    (List.filter
       (fun (l, _) -> l = "optimal" || l = "mono")
       (Experiments.labelled a))

(* ------------------------------------------- incremental refinement *)

let extension_refine () =
  section "[Extension] incremental re-optimization after a policy change";
  let s = Netdiv_casestudy.Scaled.generate ~scale:50 () in
  let net = s.Netdiv_casestudy.Scaled.network in
  let base = Optimize.run net [] in
  (* the new policy: pin host 0's first service to its first candidate *)
  let service = (Network.host_services net 0).(0) in
  let fresh =
    [ Netdiv_core.Constr.Fix
        { host = 0; service;
          product = (Network.candidates net ~host:0 ~service).(0) } ]
  in
  let full = Optimize.run net fresh in
  let refined = Optimize.refine ~previous:base.Optimize.assignment net fresh in
  Format.printf "%-22s %12s %10s@." "" "energy" "time (s)";
  Format.printf "%-22s %12.2f %10.3f@." "full re-solve" full.Optimize.energy
    full.Optimize.runtime_s;
  Format.printf "%-22s %12.2f %10.3f@." "warm-started refine"
    refined.Optimize.energy refined.Optimize.runtime_s;
  Format.printf "constraints satisfied: full %b, refine %b@."
    full.Optimize.constraints_ok refined.Optimize.constraints_ok

(* ------------------------------------------- host risk ranking *)

let extension_ranking () =
  section "[Extension] riskiest hosts under the optimal deployment (entry c4)";
  let net, a = Lazy.force case_assignments in
  let marginals =
    Attack_bn.host_marginals ~samples:50_000
      ~rng:(Random.State.make [| 81 |])
      a.Experiments.optimal ~entry:(Topology.host "c4")
      ~model:Attack_bn.Uniform_choice
  in
  let sorted =
    List.sort (fun (_, p) (_, q) -> compare q p) (Array.to_list marginals)
  in
  List.iteri
    (fun i (h, p) ->
      if i < 8 then
        Format.printf "%2d. %-6s %8.5f@." (i + 1) (Network.host_name net h) p)
    sorted

(* ------------------------------------------- cost-aware diversification *)

let extension_cost () =
  section "[Extension] cost-constrained diversification (Pareto front)";
  let net, _ = Lazy.force case_assignments in
  (* commercial products carry license costs; open source is free *)
  let license ~host:_ ~service ~product =
    match (service, product) with
    | 0, (0 | 1) -> 2.0   (* Windows *)
    | 1, (0 | 1) -> 0.5   (* Internet Explorer (support contract) *)
    | 2, (0 | 1) -> 4.0   (* MS SQL Server *)
    | _ -> 0.0
  in
  let points =
    Netdiv_core.Cost.pareto ~cost:license
      ~lambdas:[ 0.0; 0.005; 0.01; 0.02; 0.05; 0.1; 0.5; 2.0 ]
      net []
  in
  Format.printf "%10s %12s %12s@." "lambda" "cost" "energy";
  List.iter
    (fun (p : Netdiv_core.Cost.point) ->
      Format.printf "%10.3f %12.2f %12.4f@." p.Netdiv_core.Cost.lambda
        p.Netdiv_core.Cost.cost p.Netdiv_core.Cost.energy)
    points;
  match
    Netdiv_core.Cost.cheapest_under ~cost:license ~budget:40.0 net []
  with
  | Some p ->
      Format.printf
        "most diverse deployment under a 40-unit budget: cost %.2f,          energy %.4f@."
        p.Netdiv_core.Cost.cost p.Netdiv_core.Cost.energy
  | None -> Format.printf "no deployment fits a 40-unit budget@."

(* ------------------------------------------- segmentation analysis *)

let extension_segmentation () =
  section "[Extension] segmentation: minimum cuts isolating t5";
  let net, _ = Lazy.force case_assignments in
  let g = Network.graph net in
  let target = Topology.host "t5" in
  List.iter
    (fun entry_name ->
      let entry = Topology.host entry_name in
      let cut = Netdiv_graph.Cut.min_edge_cut g ~source:entry ~sink:target in
      Format.printf "%-4s -> t5: %d edge-disjoint paths; cut {%s}@."
        entry_name (List.length cut)
        (String.concat ", "
           (List.map
              (fun (u, v) ->
                Printf.sprintf "%s-%s" (Network.host_name net u)
                  (Network.host_name net v))
              cut)))
    Topology.entry_points

(* ------------------------------------------- anytime quality *)

let extension_anytime () =
  section
    "[Anytime] outcome & gap-at-deadline on a 1000-host instance (deg 20, \
     15 svc)";
  let module Runner = Netdiv_mrf.Runner in
  let net =
    Workload.instance
      { hosts = 1000; degree = 20; services = 15; products_per_service = 4;
        seed = 1 }
  in
  let encoded = Encode.encode net [] in
  let budgets =
    [ Some 0.02; Some 0.1; Some 0.5; Some 2.0; None ]
  in
  Format.printf "%-10s %-28s %12s %12s %8s %10s@." "budget" "outcome"
    "energy" "bound" "gap" "time (s)";
  List.iter
    (fun seconds ->
      let t0 = Obs.Clock.now () in
      let result, outcome, _, _ =
        Optimize.solve_encoded_outcome ?budget:seconds encoded
      in
      let elapsed = Obs.Clock.now () -. t0 in
      let gap =
        let g = Netdiv_mrf.Solver.optimality_gap result in
        if Float.is_finite g then
          Printf.sprintf "%.1f%%"
            (100.0 *. g
            /. Float.max result.Netdiv_mrf.Solver.energy 1e-9)
        else "n/a"
      in
      Format.printf "%-10s %-28s %12.2f %12s %8s %10.3f@."
        (match seconds with
        | Some s -> Printf.sprintf "%gs" s
        | None -> "unlimited")
        (Format.asprintf "%a" Runner.pp_outcome outcome)
        result.Netdiv_mrf.Solver.energy
        (Format.asprintf "%a" Netdiv_mrf.Solver.pp_float
           result.Netdiv_mrf.Solver.lower_bound)
        gap elapsed)
    budgets

(* ---------------------------- parallel speedup & determinism checks *)

(* The 4-zone segmented instance shared by the speedup and the
   observability-overhead sections: four mutually isolated zones
   (air-gapped ICS cells).  The component decomposition is this
   section's unit of parallelism — one domain per air-gapped zone;
   [intra_component_speedup] times the same split on zones joined by
   gateway links.  Both sections here must build the exact same
   instance so their solver_energy fingerprints stay comparable. *)
let segmented_instance () =
  let zones = 4 and zone_hosts = 200 in
  let n_hosts = zones * zone_hosts in
  let edges = ref [] in
  for z = 0 to zones - 1 do
    let g =
      Netdiv_graph.Gen.avg_degree
        ~rng:(Random.State.make [| 1; z |])
        ~n:zone_hosts ~degree:8
    in
    Graph.iter_edges
      (fun u v ->
        edges := ((z * zone_hosts) + u, (z * zone_hosts) + v) :: !edges)
      g
  done;
  let graph = Graph.of_edges ~n:n_hosts !edges in
  let services =
    Array.init 5 (fun sv ->
        { Network.sv_name = Printf.sprintf "svc%d" sv;
          sv_products = Array.init 4 (fun k -> Printf.sprintf "p%d" k);
          sv_similarity =
            Workload.synthetic_similarity
              ~rng:(Random.State.make [| 5; sv |])
              ~products:4 })
  in
  let hosts =
    Array.init n_hosts (fun h ->
        { Network.h_name = Printf.sprintf "h%d" h;
          h_services = List.init 5 (fun sv -> (sv, [||])) })
  in
  let net = Network.create ~graph ~services ~hosts in
  (net, zone_hosts)

(* jobs=1 best and median times from scalability_speedup, reused by
   observability_overhead and fault_overhead as their tracing-off
   reference.  The cross-section comparison uses the medians: the two
   sections measure the identical code path minutes apart, so their
   best-of figures differ by scheduler and frequency drift that the
   median resists (the one hard 3% bound is recorder_overhead's
   contemporaneous on-vs-off comparison). *)
let segmented_solve_1j_s = ref nan
let segmented_solve_1j_med_s = ref nan

let scalability_speedup () =
  section
    "[Parallel] serial-vs-parallel speedup (4-zone segmented instance)";
  let net, zone_hosts = segmented_instance () in
  let job_counts = if full_sweep then [ 1; 2; 4; 8 ] else [ 1; 2; 4 ] in
  (* One untimed warmup per job count (captures the deterministic
     result and faults code + instance into cache), then best-of-5
     timed runs taken round-robin across job counts with a major
     collection before each: measuring all repetitions of one job
     count back to back biases later rows, which pay the heap growth
     and GC debt accumulated by earlier ones. *)
  let reports =
    List.map (fun jobs -> (jobs, Optimize.run ~jobs net [])) job_counts
  in
  let times : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun jobs -> Hashtbl.replace times jobs (ref [])) job_counts;
  for _round = 1 to 5 do
    List.iter
      (fun jobs ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        ignore (Optimize.run ~jobs net []);
        let t = Unix.gettimeofday () -. t0 in
        let cell = Hashtbl.find times jobs in
        cell := t :: !cell)
      job_counts
  done;
  let cycles jobs = Array.of_list !(Hashtbl.find times jobs) in
  let best jobs = Array.fold_left Float.min infinity (cycles jobs) in
  let results =
    List.map (fun (jobs, r) -> (jobs, (best jobs, r))) reports
  in
  let _, (t_serial, reference) = List.hd results in
  segmented_solve_1j_s := t_serial;
  (let s = sorted_copy (cycles 1) in
   segmented_solve_1j_med_s := s.(Array.length s / 2));
  let cores = Domain.recommended_domain_count () in
  Report.metric "cores" (float_of_int cores);
  Format.printf "%-6s %10s %10s %14s@." "jobs" "time (s)" "speedup" "energy";
  List.iter
    (fun (jobs, (t, report)) ->
      let s = speedup ~cores ~jobs (t_serial /. t) in
      Format.printf "%-6d %10.3f %a %14.2f@." jobs t pp_speedup s
        report.Optimize.energy;
      Report.metric (Printf.sprintf "solve_%dj_s" jobs) t;
      spread (Printf.sprintf "solve_%dj" jobs) (cycles jobs);
      Report.metric (Printf.sprintf "speedup_%dj" jobs) s;
      if
        not
          (report.Optimize.energy = reference.Optimize.energy
          && Assignment.equal report.Optimize.assignment
               reference.Optimize.assignment)
      then
        Report.fail
          (Printf.sprintf "solver result at --jobs %d differs from --jobs 1"
             jobs))
    results;
  Report.metric "solver_energy" reference.Optimize.energy;
  Report.metric "solver_gap"
    (Netdiv_mrf.Solver.optimality_gap reference.Optimize.solver_result);
  (* the simulation fan-out must give identical statistics for the same
     seed at any domain count *)
  let a = reference.Optimize.assignment in
  (* entry and target must share a zone: nothing crosses an air gap *)
  let entry = 0 and target = zone_hosts - 1 in
  (* one untimed run captures the (domain-count-invariant) statistics;
     the timing is min-of-N — at smoke scale both domain counts run the
     batch inline, so a single-shot ratio was pure timer noise and the
     mttc_speedup_4d metric wobbled below 1.0 *)
  let mttc domains =
    let stats =
      Engine.mttc_parallel ~domains ~seed:11 ~runs:mttc_runs a ~entry ~target
        ()
    in
    let t =
      best_of (fun () ->
          Engine.mttc_parallel ~domains ~seed:11 ~runs:mttc_runs a ~entry
            ~target ())
    in
    (t, stats)
  in
  let t1, s1 = mttc 1 in
  let t4, s4 = mttc 4 in
  let s = speedup ~cores ~jobs:4 (t1 /. t4) in
  Format.printf
    "mttc %d runs: 1 domain %.3fs, 4 domains %.3fs (%a); stats equal: %b@."
    mttc_runs t1 t4 pp_speedup s (s1 = s4);
  Report.metric "mttc_1d_s" t1;
  Report.metric "mttc_4d_s" t4;
  Report.metric "mttc_speedup_4d" s;
  if s1 <> s4 then
    Report.fail "mttc_parallel statistics depend on the domain count"

(* ------------------ component-split speedup, gateway-linked zones *)

(* Gateway-linked zoned instance: unlike [segmented_instance] the zones
   are joined by gateway links, so the host graph is connected.  The
   encoding joins only the same-service slots of linked hosts, so the
   MRF still splits into one connected component per service, and
   [--jobs] solves those components in parallel: this section times
   that split.  At the --full tier the instance holds 10,000 hosts and
   5 services (5 components of 10,000 nodes); the smoke tier shrinks it
   to 1,500 hosts and 3 services (3 components of 1,500 nodes).  The
   section key and metric names predate this reading and stay, so the
   BENCH.json history remains comparable. *)
let intra_instance () =
  let zones, zone_hosts, n_services, n_products =
    if full_sweep then (10, 1000, 5, 4) else (5, 300, 3, 4)
  in
  let n_hosts = zones * zone_hosts in
  let z =
    Netdiv_graph.Topologies.zoned
      ~rng:(Random.State.make [| 23 |])
      ~zone_sizes:(Array.make zones zone_hosts)
      ()
  in
  let services =
    Array.init n_services (fun sv ->
        { Network.sv_name = Printf.sprintf "svc%d" sv;
          sv_products =
            Array.init n_products (fun k -> Printf.sprintf "p%d" k);
          sv_similarity =
            Workload.synthetic_similarity
              ~rng:(Random.State.make [| 7; sv |])
              ~products:n_products })
  in
  let hosts =
    Array.init n_hosts (fun h ->
        { Network.h_name = Printf.sprintf "h%d" h;
          h_services = List.init n_services (fun sv -> (sv, [||])) })
  in
  Network.create ~graph:z.Netdiv_graph.Topologies.graph ~services ~hosts

let intra_component_speedup () =
  section
    (Printf.sprintf
       "[Parallel] component-split speedup (gateway-linked zoned \
        instance, one MRF component per service, %s tier)"
       (if full_sweep then "full" else "smoke"));
  let net = intra_instance () in
  let job_counts = [ 1; 2; 4 ] in
  (* warmups capture the deterministic per-jobs results; the timings are
     min-of-N taken round-robin across job counts (see best_of) so no
     row pays the heap debt of earlier ones *)
  let reports =
    List.map (fun jobs -> (jobs, Optimize.run ~jobs net [])) job_counts
  in
  let times : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun jobs -> Hashtbl.replace times jobs (ref [])) job_counts;
  for _round = 1 to bench_rounds do
    List.iter
      (fun jobs ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        ignore (Optimize.run ~jobs net []);
        let t = Unix.gettimeofday () -. t0 in
        let cell = Hashtbl.find times jobs in
        cell := t :: !cell)
      job_counts
  done;
  let cycles jobs = Array.of_list !(Hashtbl.find times jobs) in
  let best jobs = Array.fold_left Float.min infinity (cycles jobs) in
  let _, reference = List.hd reports in
  let t_serial = best 1 in
  let cores = Domain.recommended_domain_count () in
  (* at the smoke tier the zone round's estimated work (about 13.9M
     units) is under Pool.sequential_cutoff (20M), so every job count
     solves the components one after another *)
  let inline = not full_sweep in
  Report.metric "cores" (float_of_int cores);
  Format.printf "%-6s %10s %10s %14s@." "jobs" "time (s)" "speedup" "energy";
  List.iter
    (fun (jobs, report) ->
      let t = best jobs in
      let s = speedup ~inline ~cores ~jobs (t_serial /. t) in
      Format.printf "%-6d %10.3f %a %14.2f@." jobs t pp_speedup s
        report.Optimize.energy;
      Report.metric (Printf.sprintf "solve_%dj_s" jobs) t;
      spread (Printf.sprintf "solve_%dj" jobs) (cycles jobs);
      Report.metric (Printf.sprintf "speedup_%dj" jobs) s;
      (* the hard gate of the whole exercise: the component split must
         be bitwise job-count-invariant, not merely close *)
      if
        not
          (report.Optimize.energy = reference.Optimize.energy
          && Assignment.equal report.Optimize.assignment
               reference.Optimize.assignment)
      then
        Report.fail
          (Printf.sprintf
             "component-split result at --jobs %d differs from --jobs 1"
             jobs))
    reports;
  Report.metric "solver_energy" reference.Optimize.energy;
  (* the >= 2x target is only measurable where 4 cores exist; the
     determinism checks above run unconditionally *)
  let s4 = t_serial /. best 4 in
  if full_sweep && cores >= 4 && s4 < 2.0 then
    Report.fail
      (Printf.sprintf
         "component-split speedup at 4 jobs is %.2fx (< 2.0x target)" s4)

(* ------------------------------- observability overhead (tracing off) *)

let observability_overhead () =
  section "[Obs] tracing overhead on the 4-zone segmented instance";
  (* disabled-path microbenchmark: with tracing off and no recorder
     installed, a span is two atomic loads and a branch on each side;
     two million pairs give a stable per-pair figure even under timer
     jitter *)
  let pairs = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to pairs do
    Obs.begin_span "off";
    Obs.end_span "off"
  done;
  let pair_ns = (Unix.gettimeofday () -. t0) /. float_of_int pairs *. 1e9 in
  Format.printf "disabled begin/end pair: %.1f ns@." pair_ns;
  Report.metric "span_disabled_ns" pair_ns;
  if pair_ns > 200.0 then
    Report.fail
      (Printf.sprintf "disabled span pair costs %.0f ns (> 200 ns budget)"
         pair_ns);
  let net, _ = segmented_instance () in
  (* untimed warmups capture the deterministic result under each mode *)
  let ref_off = Optimize.run ~jobs:1 net [] in
  Obs.set_enabled true;
  Obs.reset ();
  let ref_on = Optimize.run ~jobs:1 net [] in
  Obs.set_enabled false;
  (* best-of-5, alternating off/on with a major collection before each
     timed run — same protocol as scalability_speedup, so the two
     sections' times stay comparable *)
  let offs = Array.make 5 0.0 and ons = Array.make 5 0.0 in
  for round = 0 to 4 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Optimize.run ~jobs:1 net []);
    offs.(round) <- Unix.gettimeofday () -. t0;
    Obs.set_enabled true;
    Obs.reset ();
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Optimize.run ~jobs:1 net []);
    ons.(round) <- Unix.gettimeofday () -. t0;
    Obs.set_enabled false
  done;
  Obs.reset ();
  let best_off = ref (Array.fold_left Float.min infinity offs)
  and best_on = ref (Array.fold_left Float.min infinity ons) in
  Format.printf "solve tracing off: %.3fs, tracing on: %.3fs (+%.1f%%)@."
    !best_off !best_on
    (((!best_on /. !best_off) -. 1.0) *. 100.0);
  Report.metric "solve_off_s" !best_off;
  spread "solve_off" offs;
  Report.metric "solve_on_s" !best_on;
  spread "solve_on" ons;
  Report.metric "overhead_on_pct" (((!best_on /. !best_off) -. 1.0) *. 100.0);
  Report.metric "solver_energy" ref_off.Optimize.energy;
  if
    not
      (ref_on.Optimize.energy = ref_off.Optimize.energy
      && Assignment.equal ref_on.Optimize.assignment
           ref_off.Optimize.assignment)
  then Report.fail "solver result differs with tracing enabled";
  (* cross-section tripwire: scalability_speedup's jobs=1 solve runs
     the identical code path (tracing is off in both), so any real gap
     here would mean the disabled instrumentation grew a per-call cost.
     Medians are compared because the sections run minutes apart and
     their best-of figures carry scheduler/frequency drift; the budget
     matches bench_diff's 25% noise tolerance.  The tracing-on
     overhead above is recorded, not gated; bench_diff gates
     solve_off_s across commits. *)
  let base = !segmented_solve_1j_med_s in
  if Float.is_nan base then
    Report.fail "scalability_speedup did not run before observability_overhead"
  else begin
    let med_off =
      let s = sorted_copy offs in
      s.(Array.length s / 2)
    in
    let drift_pct = ((med_off /. base) -. 1.0) *. 100.0 in
    Format.printf
      "tracing-off vs scalability jobs=1 (medians): %+.1f%% (gate: +25%%)@."
      drift_pct;
    Report.metric "off_vs_baseline_pct" drift_pct;
    if drift_pct > 25.0 then
      Report.fail
        (Printf.sprintf
           "tracing-off solve is %.1f%% slower than the jobs=1 baseline (> \
            25%% drift budget)"
           drift_pct)
  end

(* ------------------------------ flight-recorder overhead (installed) *)

(* The black-box counterpart of observability_overhead: the recorder is
   meant to stay installed on production solves, so both its paths are
   gated — a sample with tracing off and no recorder installed (atomic
   loads and a branch) against the 200 ns microbench budget, and the
   installed whole-solve overhead against a 3% budget, the only 3%
   bound in the bench.  The solver result must be bitwise identical
   with the recorder on and off. *)
let recorder_overhead () =
  section "[Obs] flight-recorder overhead on the 4-zone segmented instance";
  let module Recorder = Netdiv_obs.Recorder in
  let records = 2_000_000 in
  let record () = Obs.sample ~name:"bench.record" 0.0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to records do
    record ()
  done;
  let off_ns = (Unix.gettimeofday () -. t0) /. float_of_int records *. 1e9 in
  let on_ns =
    Recorder.with_recorder
      (Recorder.create "bench-micro")
      (fun () ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to records do
          record ()
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int records *. 1e9)
  in
  Format.printf "record: uninstalled %.1f ns, installed %.1f ns@." off_ns
    on_ns;
  Report.metric "record_uninstalled_ns" off_ns;
  Report.metric "record_installed_ns" on_ns;
  if off_ns > 200.0 then
    Report.fail
      (Printf.sprintf "uninstalled record costs %.0f ns (> 200 ns \
                       budget)" off_ns);
  let net, _ = segmented_instance () in
  (* untimed warmups capture the deterministic result under each mode;
     the bench recorder has no dump_path, so nothing touches the disk *)
  let ref_off = Optimize.run ~jobs:1 net [] in
  let r = Recorder.create "bench" in
  let ref_on =
    Recorder.with_recorder r (fun () -> Optimize.run ~jobs:1 net [])
  in
  let offs = Array.make 5 0.0 and ons = Array.make 5 0.0 in
  for round = 0 to 4 do
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Optimize.run ~jobs:1 net []);
    offs.(round) <- Unix.gettimeofday () -. t0;
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (Recorder.with_recorder r (fun () -> Optimize.run ~jobs:1 net []));
    ons.(round) <- Unix.gettimeofday () -. t0
  done;
  let best_off = Array.fold_left Float.min infinity offs
  and best_on = Array.fold_left Float.min infinity ons in
  let overhead_pct = ((best_on /. best_off) -. 1.0) *. 100.0 in
  Format.printf
    "solve recorder off: %.3fs, recorder on: %.3fs (+%.1f%%), %d events@."
    best_off best_on overhead_pct (Recorder.recorded r);
  Report.metric "solve_off_s" best_off;
  spread "solve_off" offs;
  Report.metric "solve_on_s" best_on;
  spread "solve_on" ons;
  Report.metric "overhead_on_pct" overhead_pct;
  (* the key predates the event ring; it now counts events *)
  Report.metric "recorder_frames" (float_of_int (Recorder.recorded r));
  Report.metric "solver_energy" ref_off.Optimize.energy;
  if
    not
      (ref_on.Optimize.energy = ref_off.Optimize.energy
      && Assignment.equal ref_on.Optimize.assignment
           ref_off.Optimize.assignment)
  then Report.fail "solver result differs with the flight recorder installed";
  (* the acceptance gate: a solve with the black box installed stays
     within 3% of the recorder-free time.  tools/bench_diff additionally
     gates overhead_on_pct across commits. *)
  if overhead_pct > 3.0 then
    Report.fail
      (Printf.sprintf
         "recorder-on solve is %.1f%% slower than recorder-off (> 3%% \
          budget)"
         overhead_pct)

(* --------------------------------- fault injection overhead (disabled) *)

(* The robustness counterpart of observability_overhead: injection
   points are compiled into the pool, the runner and the I/O layer, so
   the disabled path must be free — one atomic load and a branch — and
   a chaos run (faults actually firing) must still land on the exact
   fault-free assignment after recovery. *)
let fault_overhead () =
  section "[Fault] injection overhead on the 4-zone segmented instance";
  let module Fault = Netdiv_fault.Fault in
  (* disabled-path microbenchmark, same budget as a disabled span *)
  let p = Fault.point "bench.disabled" in
  let checks = 2_000_000 in
  let t0 = Unix.gettimeofday () in
  for k = 1 to checks do
    if Fault.should_fail ~key:k p then ignore (Sys.opaque_identity k)
  done;
  let check_ns = (Unix.gettimeofday () -. t0) /. float_of_int checks *. 1e9 in
  Format.printf "disabled injection check: %.1f ns@." check_ns;
  Report.metric "check_disabled_ns" check_ns;
  if check_ns > 200.0 then
    Report.fail
      (Printf.sprintf "disabled fault check costs %.0f ns (> 200 ns budget)"
         check_ns);
  let net, _ = segmented_instance () in
  (* untimed warmup captures the deterministic fault-free result *)
  let ref_off = Optimize.run ~jobs:1 net [] in
  let offs = cycles_of ~rounds:5 (fun () -> Optimize.run ~jobs:1 net []) in
  let best_off = ref (Array.fold_left Float.min infinity offs) in
  Format.printf "solve, injection compiled in but disabled: %.3fs@." !best_off;
  Report.metric "solve_off_s" !best_off;
  spread "solve_off" offs;
  Report.metric "solver_energy" ref_off.Optimize.energy;
  (* chaos determinism: crash every parallel chunk; sequential recovery
     must reproduce the fault-free assignment bit for bit *)
  Fault.set_spec (Some "rate=1.0,only=pool.chunk");
  Fault.reset ();
  let chaos =
    Fun.protect
      ~finally:(fun () ->
        Fault.set_spec None;
        Fault.reset ())
      (fun () ->
        let r = Optimize.run ~jobs:4 net [] in
        Report.metric "chaos_faults_fired" (float_of_int (Fault.fired_count ()));
        r)
  in
  if
    not
      (chaos.Optimize.energy = ref_off.Optimize.energy
      && Assignment.equal chaos.Optimize.assignment ref_off.Optimize.assignment)
  then Report.fail "solver result differs under injected chunk crashes";
  (* cross-section tripwire, same shape as observability_overhead's:
     the compiled-in fault checks must not show up against the jobs=1
     baseline.  Medians, 25% drift budget — the sections run minutes
     apart; tools/bench_diff gates solve_off_s across commits. *)
  let base = !segmented_solve_1j_med_s in
  if Float.is_nan base then
    Report.fail "scalability_speedup did not run before fault_overhead"
  else begin
    let med_off =
      let s = sorted_copy offs in
      s.(Array.length s / 2)
    in
    let drift_pct = ((med_off /. base) -. 1.0) *. 100.0 in
    Format.printf
      "injection-off vs scalability jobs=1 (medians): %+.1f%% (gate: +25%%)@."
      drift_pct;
    Report.metric "off_vs_baseline_pct" drift_pct;
    if drift_pct > 25.0 then
      Report.fail
        (Printf.sprintf
           "injection-off solve is %.1f%% slower than the jobs=1 baseline \
            (> 25%% drift budget)"
           drift_pct)
  end

let interning_memory () =
  section "[Parallel] interned edge potentials on a 1,000-host MRF";
  let net =
    Workload.instance
      { hosts = 1000; degree = 10; services = 5; products_per_service = 4;
        seed = 1 }
  in
  let encoded = Encode.encode net [] in
  let model = Encode.mrf encoded in
  let module Mrf = Netdiv_mrf.Mrf in
  let edges = Mrf.n_edges model in
  let tables = Mrf.n_tables model in
  let interned = Mrf.pot_words model in
  let unshared = Mrf.pot_words_unshared model in
  (* materialize the per-edge copies the uninterned layout would pin and
     measure the live-heap delta directly *)
  Gc.full_major ();
  let live_interned = (Gc.stat ()).Gc.live_words in
  let copies =
    Array.init edges (fun e -> Array.copy (Mrf.edge_cost model e))
  in
  Gc.full_major ();
  let live_unshared = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity copies);
  let saved = live_unshared - live_interned in
  Format.printf
    "edges %d; distinct tables %d; potential words %d interned vs %d \
     unshared@."
    edges tables interned unshared;
  Format.printf
    "live heap: %d words with interning, +%d words for per-edge copies \
     (%.0fx potential storage)@."
    live_interned saved
    (float_of_int unshared /. float_of_int (max 1 interned));
  Report.metric "edges" (float_of_int edges);
  Report.metric "distinct_tables" (float_of_int tables);
  Report.metric "pot_words_interned" (float_of_int interned);
  Report.metric "pot_words_unshared" (float_of_int unshared);
  Report.metric "live_words_interned" (float_of_int live_interned);
  Report.metric "live_words_saved" (float_of_int saved);
  let fp = Mrf.footprint model in
  Format.printf "%a@." Mrf.pp_footprint fp;
  Report.metric "words_per_host" (float_of_int fp.Mrf.f_words /. 1000.0);
  Report.metric "words_per_edge" fp.Mrf.f_words_per_edge

(* ------------------------------------------ hierarchical 100k scale *)

(* The 100k-host tentpole: a zoned instance streamed zone-by-zone into
   the compact CSR encoder and solved by block-coordinate zone
   decomposition.  The full tier runs the paper-scale 100,000-host
   instance; smoke a 4,000-host miniature of the same shape.  Gates:
   compact words/host at scale must be at most half of what the flat
   boxed-record layout uses at 1/10 scale; the zoned dual bound must
   stay a valid lower bound (checked against the flat solver on a small
   instance); multi-zone results must not depend on the job count; and
   the pre-allocation estimate must not under-predict the real model. *)
let hierarchical_scale () =
  section "[Hierarchical] zoned instance at scale (CSR model + zoned TRW-S)";
  let module Mrf = Netdiv_mrf.Mrf in
  let module Trws = Netdiv_mrf.Trws in
  let module Solver = Netdiv_mrf.Solver in
  let hosts = if full_sweep then 100_000 else 4_000 in
  let zones = if full_sweep then 100 else 8 in
  let p = { Workload.default_zoned with z_hosts = hosts; z_zones = zones } in
  Format.printf "%a@." Workload.pp_zoned_params p;
  let est = Workload.estimate_zoned_words p in
  let t0 = Unix.gettimeofday () in
  let model, zone_of = Workload.stream_zoned p in
  let gen_s = Unix.gettimeofday () -. t0 in
  let fp = Mrf.footprint model in
  Format.printf "%a@." Mrf.pp_footprint fp;
  let words_per_host = float_of_int fp.Mrf.f_words /. float_of_int hosts in
  (* flat baseline at 1/10 scale: the boxed layout this model replaced *)
  let tenth =
    { p with Workload.z_hosts = hosts / 10; z_zones = max 1 (zones / 10) }
  in
  let small_model, _ = Workload.stream_zoned tenth in
  let small_fp = Mrf.footprint small_model in
  let flat_per_host_tenth =
    float_of_int small_fp.Mrf.f_flat_words
    /. float_of_int tenth.Workload.z_hosts
  in
  let t1 = Unix.gettimeofday () in
  let result = Trws.solve ~zone_of ~jobs:4 model in
  let solve_s = Unix.gettimeofday () -. t1 in
  let gap =
    (result.Solver.energy -. result.Solver.lower_bound)
    /. Float.max 1.0 (Float.abs result.Solver.energy)
  in
  Format.printf
    "generate %.3fs  solve %.3fs  energy %a  bound %a  gap %.2e  rounds \
     %d@.words/host %.1f compact vs %.1f flat at 1/10 scale@."
    gen_s solve_s Solver.pp_float result.Solver.energy Solver.pp_float
    result.Solver.lower_bound gap result.Solver.iterations words_per_host
    flat_per_host_tenth;
  (* validity and determinism gates on a small instance *)
  let sp = { Workload.default_zoned with z_hosts = 1000; z_zones = 4 } in
  let sm, szone = Workload.stream_zoned sp in
  let flat = Trws.solve sm in
  let zoned1 = Trws.solve ~zone_of:szone ~jobs:1 sm in
  let zoned4 = Trws.solve ~zone_of:szone ~jobs:4 sm in
  if
    not
      (zoned1.Solver.energy = zoned4.Solver.energy
      && zoned1.Solver.lower_bound = zoned4.Solver.lower_bound
      && zoned1.Solver.labeling = zoned4.Solver.labeling)
  then Report.fail "zoned result depends on the job count";
  if zoned1.Solver.lower_bound > flat.Solver.energy +. 1e-9 then
    Report.fail "zoned dual bound exceeds the flat solver's energy";
  if words_per_host > 0.5 *. flat_per_host_tenth then
    Report.fail "compact words/host exceed half the flat layout at 1/10 scale";
  if est < fp.Mrf.f_words then
    Report.fail "estimate_zoned_words under-predicts the real footprint";
  Report.metric "hosts" (float_of_int hosts);
  Report.metric "zones" (float_of_int zones);
  Report.metric "gen_s" gen_s;
  Report.metric "solve_s" solve_s;
  Report.metric "words_per_host" words_per_host;
  Report.metric "words_per_edge" fp.Mrf.f_words_per_edge;
  Report.metric "flat_words_per_host_tenth" flat_per_host_tenth;
  Report.metric "dual_gap" gap;
  Report.metric "solver_energy" result.Solver.energy;
  Report.metric "zoned_small_energy" zoned1.Solver.energy;
  Report.metric "flat_small_energy" flat.Solver.energy

(* ------------------------------------------------- lint analysis *)

(* Whole-repo static analysis cost: parsing with the compiler's parser,
   the surface rules, symbol tables, the call graph and the effect
   fixpoint over lib/ and bin/ with the usual reference roots.  The wall
   budget is deliberately generous — the analysis runs in well under a
   second today — so the gate only trips on a super-linear regression in
   the resolver or the fixpoint, not on machine noise. *)
let lint_analysis () =
  section "[Lint] whole-repo interprocedural effect analysis";
  if Sys.file_exists "lib" && Sys.file_exists "bin" then begin
    let module Lint = Netdiv_lint.Lint in
    let paths = [ "lib"; "bin" ] in
    let ref_paths = Lint.default_ref_paths paths in
    let report = ref None in
    let t =
      best_of (fun () ->
          report := Some (Lint.analyze_paths ~ref_paths paths))
    in
    (match !report with
    | Some r ->
        Format.printf
          "analyzed %d files, %d bindings, %d raw findings: best of %d runs \
           %.4fs@."
          r.Lint.r_files r.Lint.r_bindings
          (List.length r.Lint.r_findings)
          bench_rounds t;
        Report.metric "lint_files" (float_of_int r.Lint.r_files);
        Report.metric "lint_bindings" (float_of_int r.Lint.r_bindings)
    | None -> ());
    Report.metric "lint_full_s" t;
    let budget_s = 5.0 in
    if t > budget_s then
      Report.fail
        (Printf.sprintf "lint analysis took %.2fs (budget %.1fs)" t budget_s)
  end
  else
    (* dune exec may copy the bench into a sandbox without the sources;
       report the skip rather than measuring nothing silently *)
    Format.printf "skipped: lib/ and bin/ are not visible from the cwd@."

(* ------------------------------------------- Bechamel micro-benches *)

let micro_benchmarks () =
  section "[Micro] Bechamel micro-benchmarks (ns per run)";
  let open Bechamel in
  let net, a = Lazy.force case_assignments in
  let small = Workload.instance
      { hosts = 100; degree = 10; services = 5; products_per_service = 4;
        seed = 1 } in
  let small_encoded = Encode.encode small [] in
  let entry = Topology.host "c4" and target = Topology.host "t5" in
  let tests =
    [
      Test.make ~name:"table2.similarity-table"
        (Staged.stage (fun () -> Corpus.table Corpus.os_spec));
      Test.make ~name:"table2.synthesize-nvd"
        (Staged.stage (fun () -> Corpus.synthesize Corpus.database_spec));
      Test.make ~name:"fig4.encode-casestudy"
        (Staged.stage (fun () -> Encode.encode net []));
      Test.make ~name:"fig4.optimize-casestudy"
        (Staged.stage (fun () -> Optimize.run net []));
      Test.make ~name:"table5.dbn-metric"
        (Staged.stage (fun () ->
             Attack_bn.diversity a.Experiments.optimal ~entry ~target));
      Test.make ~name:"table6.one-simulation"
        (let rng = Random.State.make [| 3 |] in
         Staged.stage (fun () ->
             Engine.run ~rng a.Experiments.optimal ~entry ~target));
      Test.make ~name:"table7.trws-100-hosts"
        (Staged.stage (fun () ->
             Optimize.solve_encoded_outcome small_encoded));
    ]
  in
  let grouped = Test.make_grouped ~name:"netdiv" ~fmt:"%s/%s" tests in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name est acc -> (name, est) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ t ] -> Format.printf "%-36s %14.0f ns/run@." name t
      | _ -> Format.printf "%-36s %14s@." name "n/a")
    rows

let () =
  Format.printf "netdiv benchmark harness (full sweep: %b, smoke: %b)@."
    full_sweep smoke;
  if not smoke then begin
    Report.timed "similarity_tables" similarity_tables;
    Report.timed "figure1" figure1;
    Report.timed "figure2" figure2;
    Report.timed "figure4" figure4;
    Report.timed "table5" table5;
    Report.timed "table6" table6;
    Report.timed "table7" table7;
    Report.timed "table8" table8;
    Report.timed "table9" table9;
    Report.timed "metrics_table" metrics_table;
    Report.timed "scaled_ics" scaled_ics;
    Report.timed "ablation_attacker" ablation_attacker;
    Report.timed "ablation_defense_in_depth" ablation_defense_in_depth;
    Report.timed "ablation_solvers" ablation_solvers;
    Report.timed "ablation_topologies" ablation_topologies;
    Report.timed "ablation_weighted" ablation_weighted;
    Report.timed "ablation_constraints" ablation_constraints;
    Report.timed "extension_certified" extension_certified;
    Report.timed "extension_defense" extension_defense;
    Report.timed "extension_refine" extension_refine;
    Report.timed "extension_ranking" extension_ranking;
    Report.timed "extension_cost" extension_cost;
    Report.timed "extension_segmentation" extension_segmentation;
    Report.timed "extension_anytime" extension_anytime
  end;
  (* intra_component_speedup runs after the overhead sections: the
     obs/fault 25%-drift gates compare against scalability's jobs=1 time
     and assume an undisturbed heap between the paired measurements *)
  Report.timed "scalability_speedup" scalability_speedup;
  Report.timed "observability_overhead" observability_overhead;
  Report.timed "recorder_overhead" recorder_overhead;
  Report.timed "fault_overhead" fault_overhead;
  Report.timed "intra_component_speedup" intra_component_speedup;
  Report.timed "interning_memory" interning_memory;
  Report.timed "hierarchical_scale" hierarchical_scale;
  Report.timed "lint_analysis" lint_analysis;
  if not smoke then Report.timed "micro_benchmarks" micro_benchmarks;
  let json_path =
    Option.value (Sys.getenv_opt "NETDIV_BENCH_JSON") ~default:"BENCH.json"
  in
  Report.write json_path;
  Format.printf "@.report written to %s@." json_path;
  if !Report.failures > 0 then begin
    Format.printf "%d determinism check(s) FAILED.@." !Report.failures;
    exit 1
  end;
  Format.printf "@.done.@."
