(* Tests for the anytime harness (Runner), which every Optimize solve
   runs through: a ~0-second budget makes every solver return within its
   next interrupt poll with a feasible labeling and [Budget_exhausted];
   pinned solves hold the results bit for bit, and a generous budget or a
   checkpoint file leaves them unchanged at every job count; stalls
   degrade through the fallback cascade and still yield
   constraint-satisfying assignments. *)

open Netdiv_mrf
module Optimize = Netdiv_core.Optimize
module Constr = Netdiv_core.Constr
module Network = Netdiv_core.Network
module Workload = Netdiv_workload.Workload

let rng seed = Random.State.make [| seed |]

let random_mrf rng n k p =
  let b = Mrf.Builder.create ~label_counts:(Array.make n k) in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init k (fun _ -> Random.State.float rng 1.0))
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then
        Mrf.Builder.add_edge b u v
          (Array.init (k * k) (fun _ -> Random.State.float rng 1.0))
    done
  done;
  Mrf.Builder.build b

let outcome = Alcotest.testable Runner.pp_outcome ( = )

(* the labeling is complete, in range, and consistent with the reported
   energy — the anytime feasibility guarantee *)
let check_feasible name mrf (r : Solver.result) =
  Alcotest.(check int)
    (name ^ ": labeling length")
    (Mrf.n_nodes mrf)
    (Array.length r.Solver.labeling);
  Array.iteri
    (fun i l ->
      if l < 0 || l >= Mrf.label_count mrf i then
        Alcotest.failf "%s: label %d out of range at node %d" name l i)
    r.Solver.labeling;
  Alcotest.(check (float 1e-6))
    (name ^ ": energy matches labeling")
    (Mrf.energy mrf r.Solver.labeling)
    r.Solver.energy

let instance ~hosts ?(degree = 10) ?(services = 5) ?(products = 4)
    ?(seed = 1) () =
  Workload.instance
    { hosts; degree; services; products_per_service = products; seed }

(* ------------------------------------------------- zero-budget anytime *)

let test_zero_budget_stages () =
  let mrf = random_mrf (rng 42) 200 4 0.02 in
  List.iter
    (fun stage ->
      let name = Runner.stage_name stage in
      let report = Runner.run ~budget:0.0 ~stages:[ stage ] mrf in
      Alcotest.check outcome
        (name ^ ": outcome")
        Runner.Budget_exhausted report.Runner.outcome;
      check_feasible name mrf report.Runner.result;
      (* the first poll fires before the first sweep *)
      if report.Runner.result.Solver.iterations > 1 then
        Alcotest.failf "%s: ran %d sweeps under a zero budget" name
          report.Runner.result.Solver.iterations)
    [
      Runner.trws (); Runner.trws_icm (); Runner.bp (); Runner.icm ();
      Runner.sa (); Runner.bnb ();
    ]

let test_zero_budget_brute () =
  (* brute polls every 1024 labelings, so give it a space it can cover
     between polls: 3^12 = 531,441 *)
  let mrf = random_mrf (rng 7) 12 3 0.4 in
  let report = Runner.run ~budget:0.0 ~stages:[ Runner.brute () ] mrf in
  Alcotest.check outcome "brute: outcome" Runner.Budget_exhausted
    report.Runner.outcome;
  check_feasible "brute" mrf report.Runner.result;
  if report.Runner.result.Solver.iterations > 1024 then
    Alcotest.failf "brute: enumerated %d labelings under a zero budget"
      report.Runner.result.Solver.iterations

let test_optimize_zero_budget () =
  let net = instance ~hosts:200 () in
  List.iter
    (fun solver ->
      let name = Optimize.solver_name solver in
      let report = Optimize.run ~solver ~budget:0.0 net [] in
      Alcotest.check outcome
        (name ^ ": outcome")
        Runner.Budget_exhausted report.Optimize.outcome;
      Alcotest.(check bool)
        (name ^ ": constraints ok")
        true report.Optimize.constraints_ok;
      if not (Float.is_finite report.Optimize.energy) then
        Alcotest.failf "%s: non-finite energy" name)
    [
      Optimize.Trws; Optimize.Trws_icm; Optimize.Bp; Optimize.Icm;
      Optimize.Sa; Optimize.Exact;
    ]

(* ------------------------------------------------- pinned solves *)

let digest (r : Solver.result) =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (Array.to_list (Array.map string_of_int r.Solver.labeling))))

(* energy and bound bits, labeling digest and outcome of a report *)
let fingerprint (r : Optimize.report) =
  Format.asprintf "%h %h %s %a" r.Optimize.energy r.Optimize.lower_bound
    (digest r.Optimize.solver_result)
    Runner.pp_outcome r.Optimize.outcome

let test_pinned_solves () =
  let net = instance ~hosts:60 () in
  List.iter
    (fun (solver, expected) ->
      Alcotest.(check string)
        (Optimize.solver_name solver)
        expected
        (fingerprint (Optimize.run ~solver net [])))
    [
      ( Optimize.Trws,
        "0x1.02b6f46dd7527p+8 0x1.8000000000003p+1 \
         51d6b6223333e190b193932214f56e8c converged" );
      ( Optimize.Trws_icm,
        "0x1.b08e59826e872p+7 0x1.8000000000003p+1 \
         0ade1c7231f3a6b80f86208435b28376 converged" );
      ( Optimize.Bp,
        "0x1.e11013fb6061fp+7 -infinity 8671a834c35a0af504899e152a4fee2d \
         stalled" );
      ( Optimize.Icm,
        "0x1.c250665b829b5p+7 -infinity 60c35aa6f84f2b1520f5d60dd1ef04aa \
         converged" );
      ( Optimize.Sa,
        "0x1.883fd0a343465p+7 -infinity 82f4ece4b2db3ffa5bd1ee3edf92d107 \
         converged" );
    ];
  (* refine warm-starts ICM from the previous assignment, projected into
     an encoding where host 0's first service is pinned *)
  let base = Optimize.run net [] in
  let service = (Network.host_services net 0).(0) in
  let fix =
    Constr.Fix
      {
        host = 0;
        service;
        product = (Network.candidates net ~host:0 ~service).(0);
      }
  in
  Alcotest.(check string)
    "refine"
    "0x1.b3ffbd3b70983p+7 -infinity b8ae84a149b0048fd4344e0eb0a4d914 \
     converged"
    (fingerprint
       (Optimize.refine ~previous:base.Optimize.assignment net [ fix ]))

(* ------------------------------------------------- option composition *)

(* A generous budget or a checkpoint file changes nothing in the result
   of a solve, whatever [jobs] is: all of them take the one solve path. *)
let test_options_compose () =
  let net = instance ~hosts:60 () in
  let ck = Filename.temp_file "netdiv_runner" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove ck) @@ fun () ->
  List.iter
    (fun solver ->
      List.iter
        (fun jobs ->
          let name =
            Printf.sprintf "%s, jobs %s"
              (Optimize.solver_name solver)
              (match jobs with None -> "none" | Some j -> string_of_int j)
          in
          let plain = fingerprint (Optimize.run ~solver ?jobs net []) in
          List.iter
            (fun (how, r) ->
              Alcotest.(check string)
                (name ^ ", " ^ how)
                plain (fingerprint r))
            [
              ("budget", Optimize.run ~solver ?jobs ~budget:300.0 net []);
              ("checkpoint", Optimize.run ~solver ?jobs ~checkpoint:ck net []);
            ])
        [ None; Some 1; Some 2 ])
    [
      Optimize.Trws; Optimize.Trws_icm; Optimize.Bp; Optimize.Icm;
      Optimize.Sa;
    ]

(* ------------------------------------------------- generous budgets *)

let test_generous_budget_bnb () =
  let mrf = random_mrf (rng 5) 12 3 0.3 in
  let exact = Brute.solve mrf in
  let report =
    Runner.run
      ~budget:300.0
      ~stages:[ Runner.bnb () ]
      mrf
  in
  Alcotest.check outcome "bnb: outcome" Runner.Converged
    report.Runner.outcome;
  Alcotest.(check (float 1e-9))
    "bnb: certified optimum" exact.Solver.energy
    report.Runner.result.Solver.energy

(* ------------------------------------------------- fallback cascade *)

let test_cascade_falls_back_on_stall () =
  let mrf = random_mrf (rng 9) 50 3 0.1 in
  let report =
    Runner.run ~patience:0.0
      ~stages:[ Runner.sa (); Runner.icm () ]
      mrf
  in
  (match report.Runner.outcome with
  | Runner.Fell_back ("sa", _) -> ()
  | o ->
      Alcotest.failf "expected a fallback from sa, got %a" Runner.pp_outcome
        o);
  check_feasible "cascade" mrf report.Runner.result;
  match report.Runner.stage_timings with
  | [ ("sa", _); ("icm", _) ] -> ()
  | l ->
      Alcotest.failf "expected sa and icm stage timings, got [%s]"
        (String.concat "; " (List.map fst l))

let test_exact_cascade_constraints () =
  let net = instance ~hosts:30 ~degree:6 ~services:3 () in
  let service = (Network.host_services net 0).(0) in
  let constraints =
    [
      Constr.Fix
        {
          host = 0;
          service;
          product = (Network.candidates net ~host:0 ~service).(0);
        };
    ]
  in
  let report =
    Optimize.run ~solver:Optimize.Exact
      ~budget:30.0
      ~patience:0.0 net constraints
  in
  (match report.Optimize.outcome with
  | Runner.Fell_back ("bnb", _) -> ()
  | o ->
      Alcotest.failf "expected a fallback from bnb, got %a"
        Runner.pp_outcome o);
  Alcotest.(check bool)
    "cascade satisfies the Fix constraint" true
    report.Optimize.constraints_ok

(* ------------------------------------------------- budget mechanics *)

let test_icm_restarts_jobs_invariant () =
  let mrf = random_mrf (rng 13) 40 3 0.2 in
  let solve jobs =
    (Runner.run ~stages:[ Runner.icm_restarts ~jobs () ] mrf).Runner.result
  in
  let one = solve 1 in
  let four = solve 4 in
  Alcotest.(check (float 1e-9)) "same energy" one.Solver.energy
    four.Solver.energy;
  Alcotest.(check bool) "same labeling" true
    (one.Solver.labeling = four.Solver.labeling);
  (* the restarts can only improve on a single warm-started ICM *)
  let single = (Runner.run ~stages:[ Runner.icm () ] mrf).Runner.result in
  Alcotest.(check bool) "no worse than single icm" true
    (one.Solver.energy <= single.Solver.energy +. 1e-9)

let test_empty_stages () =
  let mrf = random_mrf (rng 2) 4 2 0.5 in
  match Runner.run ~stages:[] mrf with
  | _ -> Alcotest.fail "accepted an empty cascade"
  | exception Invalid_argument _ -> ()

let test_unbudgeted_converges () =
  let mrf = random_mrf (rng 31) 40 3 0.2 in
  let report = Runner.run ~stages:[ Runner.icm () ] mrf in
  Alcotest.check outcome "converges unbudgeted" Runner.Converged
    report.Runner.outcome

(* ------------------------------------------------- non-finite rendering *)

let dummy energy lower_bound =
  {
    Solver.labeling = [| 0 |];
    energy;
    lower_bound;
    iterations = 1;
    converged = false;
    runtime_s = 0.0;
  }

let test_gap_nonfinite () =
  Alcotest.(check (float 0.0))
    "no bound -> infinite gap" infinity
    (Solver.optimality_gap (dummy 1.0 neg_infinity));
  Alcotest.(check (float 0.0))
    "nan energy -> infinite gap" infinity
    (Solver.optimality_gap (dummy nan 0.5));
  Alcotest.(check (float 0.0))
    "nan bound -> infinite gap" infinity
    (Solver.optimality_gap (dummy 1.0 nan));
  Alcotest.(check (float 1e-9))
    "finite gap untouched" 0.5
    (Solver.optimality_gap (dummy 1.0 0.5))

let test_pp_result_nonfinite () =
  let render r = Format.asprintf "%a" Solver.pp_result r in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let no_bound = render (dummy 1.0 neg_infinity) in
  Alcotest.(check bool)
    "neg_infinity bound renders as none" true
    (contains no_bound "bound none");
  Alcotest.(check bool)
    "no raw -inf in output" false
    (contains no_bound "-inf");
  let nan_energy = render (dummy nan neg_infinity) in
  Alcotest.(check bool)
    "nan energy renders as undefined" true
    (contains nan_energy "energy undefined");
  Alcotest.(check bool)
    "no raw nan in output" false
    (contains nan_energy "energy nan")

let () =
  Alcotest.run "runner"
    [
      ( "anytime",
        [
          Alcotest.test_case "zero budget, every stage" `Quick
            test_zero_budget_stages;
          Alcotest.test_case "zero budget, brute force" `Quick
            test_zero_budget_brute;
          Alcotest.test_case "zero budget through Optimize.run" `Quick
            test_optimize_zero_budget;
          Alcotest.test_case "pinned solves" `Quick test_pinned_solves;
          Alcotest.test_case "options compose" `Quick test_options_compose;
          Alcotest.test_case "generous budget certifies (bnb)" `Quick
            test_generous_budget_bnb;
        ] );
      ( "cascade",
        [
          Alcotest.test_case "stall falls back" `Quick
            test_cascade_falls_back_on_stall;
          Alcotest.test_case "exact cascade keeps constraints" `Quick
            test_exact_cascade_constraints;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "icm restarts jobs-invariant" `Quick
            test_icm_restarts_jobs_invariant;
        ] );
      ( "budget",
        [
          Alcotest.test_case "empty cascade rejected" `Quick
            test_empty_stages;
          Alcotest.test_case "unbudgeted run converges" `Quick
            test_unbudgeted_converges;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "optimality gap non-finite" `Quick
            test_gap_nonfinite;
          Alcotest.test_case "pp_result non-finite" `Quick
            test_pp_result_nonfinite;
        ] );
    ]
