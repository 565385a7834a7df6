module S = Netdiv_mrf.Solver
module Obs = Netdiv_obs.Obs
module Runner = Netdiv_mrf.Runner
module Trws_solver = Netdiv_mrf.Trws
module Bp_solver = Netdiv_mrf.Bp
module Icm_solver = Netdiv_mrf.Icm
module Sa_solver = Netdiv_mrf.Sa
module Bnb_solver = Netdiv_mrf.Bnb

type solver = Trws | Trws_icm | Bp | Icm | Sa | Exact

type report = {
  assignment : Assignment.t;
  energy : float;
  lower_bound : float;
  solver_result : S.result;
  constraints_ok : bool;
  violated : Constr.t list;
  runtime_s : float;
  outcome : Runner.outcome;
  stage_timings : (string * float) list;
  retries : int;
}

(* Checkpoint snapshots that could not be written (the solve continues;
   only durability of intermediate state is lost). *)
let c_ckpt_failed = Obs.Counter.make "optimize.checkpoint_failures"

(* Resume is graceful by design: an unreadable, corrupt or mismatched
   checkpoint must never kill a solve that could simply start fresh —
   a warning on stderr is the whole failure mode. *)
let load_resume path model =
  match Netdiv_fault.Io.read_file path with
  | Error msg ->
      Printf.eprintf "netdiv: cannot read checkpoint %s: %s; starting fresh\n%!"
        path msg;
      None
  | Ok s -> (
      match Serial.checkpoint_of_string s with
      | Error msg ->
          Printf.eprintf
            "netdiv: invalid checkpoint %s: %s; starting fresh\n%!" path msg;
          None
      | Ok ck ->
          let module M = Netdiv_mrf.Mrf in
          let lab = ck.Serial.ck_labeling in
          let fits =
            Array.length lab = M.n_nodes model
            && Array.for_all (fun l -> l >= 0) lab
            &&
            let ok = ref true in
            Array.iteri
              (fun v l -> if l >= M.label_count model v then ok := false)
              lab;
            !ok
          in
          if fits then Some lab
          else begin
            Printf.eprintf
              "netdiv: checkpoint %s does not fit this encoding; starting \
               fresh\n\
               %!"
              path;
            None
          end)

let save_checkpoint path (r : S.result) =
  let ck =
    {
      Serial.ck_energy = r.S.energy;
      ck_iterations = r.S.iterations;
      ck_labeling = r.S.labeling;
    }
  in
  match Netdiv_fault.Io.write_atomic ~path (Serial.checkpoint_to_string ck) with
  | Ok () -> ()
  | Error msg ->
      Obs.Counter.incr c_ckpt_failed;
      Printf.eprintf "netdiv: checkpoint write to %s failed: %s\n%!" path msg

let solver_name = function
  | Trws -> "trws"
  | Trws_icm -> "trws+icm"
  | Bp -> "bp"
  | Icm -> "icm"
  | Sa -> "sa"
  | Exact -> "bnb"

(* Fallback cascade per solver choice: the primary stage first; stalled
   primaries degrade to perturbed restarts (local searches) or to the
   approximate pipeline (Exact).  [jobs] parallelizes the stages that
   have a job-count-invariant parallel form: TRW-S and BP schedules,
   multi-restart ICM, SA restarts. *)
let cascade ?jobs solver ~trws_config ~bp_config =
  match solver with
  | Trws -> [ Runner.trws ~config:trws_config ?jobs () ]
  | Trws_icm -> [ Runner.trws_icm ~config:trws_config ?jobs () ]
  | Bp -> [ Runner.bp ~config:bp_config ?jobs () ]
  | Icm -> (
      match jobs with
      | None ->
          [
            Runner.icm ();
            Runner.perturbed ~seed:17 (Runner.icm ());
            Runner.perturbed ~seed:43 (Runner.icm ());
          ]
      | Some _ ->
          (* the parallel restarts subsume the perturbed retries: each
             restart past the first already perturbs the warm start *)
          [ Runner.icm_restarts ?jobs () ])
  | Sa ->
      [
        Runner.sa ?jobs ();
        Runner.perturbed ~seed:91
          (Runner.sa
             ~config:{ Sa_solver.default_config with seed = 0x7e57 }
             ?jobs ());
      ]
  | Exact -> [ Runner.bnb (); Runner.trws_icm ~config:trws_config ?jobs () ]

let solve_encoded_outcome ?(solver = Trws_icm) ?max_iters ?budget ?patience
    ?jobs ?checkpoint ?resume encoded =
  let model = Encode.mrf encoded in
  let trws_config =
    match max_iters with
    | None -> Trws_solver.default_config
    | Some m -> { Trws_solver.default_config with max_iters = m }
  in
  let bp_config =
    match max_iters with
    | None -> Bp_solver.default_config
    | Some m -> { Bp_solver.default_config with max_iters = m }
  in
  match (budget, patience, checkpoint, resume) with
  | None, None, None, None ->
      (* direct path: with [jobs] absent these are the legacy serial
         trajectories, bit-for-bit; with [jobs] present TRW-S and BP run
         their parallel schedules and SA fans its restarts over the
         pool — all job-count-invariant *)
      let result =
        match solver with
        | Trws -> Trws_solver.solve ~config:trws_config ?jobs model
        | Bp -> Bp_solver.solve ~config:bp_config ?jobs model
        | Icm -> Icm_solver.solve model
        | Sa -> (
            match jobs with
            | None -> Sa_solver.solve model
            | Some j ->
                Sa_solver.solve
                  ~config:{ Sa_solver.default_config with domains = j }
                  model)
        | Exact -> Bnb_solver.solve model
        | Trws_icm ->
            let r = Trws_solver.solve ~config:trws_config ?jobs model in
            let p = Icm_solver.solve ~init:r.S.labeling model in
            if p.S.energy < r.S.energy then
              {
                p with
                S.lower_bound = r.S.lower_bound;
                runtime_s = r.S.runtime_s +. p.S.runtime_s;
                iterations = r.S.iterations + p.S.iterations;
              }
            else { r with S.runtime_s = r.S.runtime_s +. p.S.runtime_s }
      in
      ( result,
        (if result.S.converged then Runner.Converged else Runner.Stalled),
        [ (solver_name solver, result.S.runtime_s) ],
        0 )
  | _ ->
      let init = Option.bind resume (fun path -> load_resume path model) in
      let on_best = Option.map save_checkpoint checkpoint in
      let report =
        Runner.run ?budget ?patience ?init ?on_best
          ~stages:(cascade ?jobs solver ~trws_config ~bp_config)
          model
      in
      ( report.Runner.result,
        report.Runner.outcome,
        report.Runner.stage_timings,
        report.Runner.retries )

let run ?solver ?prconst ?big_m ?preference ?edge_weight ?max_iters ?budget
    ?patience ?jobs ?checkpoint ?resume net constraints =
  let (encoded, result, outcome, stage_timings, retries), runtime_s =
    S.timed (fun () ->
        let encoded =
          Obs.span ~name:"optimize.encode" (fun () ->
              Encode.encode ?prconst ?big_m ?preference ?edge_weight net
                constraints)
        in
        let result, outcome, stage_timings, retries =
          Obs.span ~name:"optimize.solve" (fun () ->
              solve_encoded_outcome ?solver ?max_iters ?budget ?patience
                ?jobs ?checkpoint ?resume encoded)
        in
        (encoded, result, outcome, stage_timings, retries))
  in
  let assignment, violated =
    Obs.span ~name:"optimize.decode" (fun () ->
        let assignment = Encode.decode encoded result.S.labeling in
        (assignment, Constr.violations net assignment constraints))
  in
  {
    assignment;
    energy = result.S.energy;
    lower_bound = result.S.lower_bound;
    solver_result = result;
    constraints_ok = violated = [];
    violated;
    runtime_s;
    outcome;
    stage_timings;
    retries;
  }

let refine ?prconst ?big_m ?preference ?edge_weight ~previous net
    constraints =
  let (encoded, result), runtime_s =
    S.timed (fun () ->
        let encoded =
          Encode.encode ?prconst ?big_m ?preference ?edge_weight net
            constraints
        in
        (* project the previous assignment into the new encoding: slots
           whose old product is no longer selectable (a fresh Fix, a
           shrunk candidate list) fall back to their first label *)
        let model = Encode.mrf encoded in
        let init =
          Array.init (Encode.n_vars encoded) (fun v ->
              let h, s = Encode.slot_of encoded v in
              let p = Assignment.get previous ~host:h ~service:s in
              let cands = Encode.labels_of encoded v in
              let rec find i =
                if i >= Array.length cands then 0
                else if cands.(i) = p then i
                else find (i + 1)
              in
              find 0)
        in
        (encoded, Icm_solver.solve ~init model))
  in
  let assignment = Encode.decode encoded result.S.labeling in
  let violated = Constr.violations net assignment constraints in
  {
    assignment;
    energy = result.S.energy;
    lower_bound = neg_infinity;
    solver_result = result;
    constraints_ok = violated = [];
    violated;
    runtime_s;
    outcome =
      (if result.S.converged then Runner.Converged else Runner.Stalled);
    stage_timings = [ ("icm", result.S.runtime_s) ];
    retries = 0;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>energy %a (bound %a), constraints %s, %.3fs@]"
    S.pp_float r.energy S.pp_float r.lower_bound
    (if r.constraints_ok then "satisfied"
     else Printf.sprintf "VIOLATED (%d)" (List.length r.violated))
    r.runtime_s
