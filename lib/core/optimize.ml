module S = Netdiv_mrf.Solver
module Obs = Netdiv_obs.Obs
module Runner = Netdiv_mrf.Runner

type solver = Trws | Trws_icm | Icm | Sa | Exact

type report = {
  assignment : Assignment.t;
  energy : float;
  lower_bound : float;
  solver_result : S.result;
  constraints_ok : bool;
  violated : Constr.t list;
  runtime_s : float;
  outcome : Runner.outcome;
  retries : int;
}

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
      (* the solve continues; only durability of intermediate state is
         lost *)
      Obs.instant "checkpoint-failed";
      Printf.eprintf "netdiv: checkpoint write to %s failed: %s\n%!" path msg

let solver_name = function
  | Trws -> "trws"
  | Trws_icm -> "trws+icm"
  | Icm -> "icm"
  | Sa -> "sa"
  | Exact -> "exact"

(* The one stage per solver choice.  [jobs] parallelizes the stages that
   have a job-count-invariant parallel form: TRW-S schedules,
   multi-restart ICM, SA restarts. *)
let stage ?jobs = function
  | Trws -> Runner.trws ?jobs ()
  | Trws_icm -> Runner.trws_icm ?jobs ()
  | Icm when jobs = None -> Runner.icm ()
  | Icm -> Runner.icm_restarts ?jobs ()
  | Sa -> Runner.sa ?jobs ()
  | Exact -> Runner.exact ?jobs ()

(* The one solve path: every solve is the solver's stage under the
   anytime harness, warm-started from [init] when given. *)
let solve ?(solver = Trws_icm) ?budget ?jobs ?checkpoint ?init encoded =
  Runner.run ?budget ?init
    ?on_best:(Option.map save_checkpoint checkpoint)
    ~stage:(stage ?jobs solver) (Encode.mrf encoded)

let resume_init resume encoded =
  Option.bind resume (fun path -> load_resume path (Encode.mrf encoded))

let solve_encoded_outcome ?solver ?budget ?jobs ?checkpoint ?resume encoded =
  let r =
    solve ?solver ?budget ?jobs ?checkpoint ?init:(resume_init resume encoded)
      encoded
  in
  (r.Runner.result, r.Runner.outcome, r.Runner.stage_timings, r.Runner.retries)

(* Encode, solve, decode and check: the report builder behind [run] and
   [refine].  [init] picks the warm start once the encoding exists. *)
let optimize ?solver ?prconst ?big_m ?preference ?edge_weight ?budget ?jobs
    ?checkpoint ~init net constraints =
  let t0 = Obs.Clock.now () in
  let encoded =
    Obs.span ~name:"optimize.encode" (fun () ->
        Encode.encode ?prconst ?big_m ?preference ?edge_weight net constraints)
  in
  let r =
    Obs.span ~name:"optimize.solve" (fun () ->
        solve ?solver ?budget ?jobs ?checkpoint ?init:(init encoded) encoded)
  in
  let runtime_s = Obs.Clock.now () -. t0 in
  let result = r.Runner.result in
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
    outcome = r.Runner.outcome;
    retries = r.Runner.retries;
  }

let run ?solver ?prconst ?big_m ?preference ?edge_weight ?budget ?jobs
    ?checkpoint ?resume net constraints =
  optimize ?solver ?prconst ?big_m ?preference ?edge_weight ?budget ?jobs
    ?checkpoint ~init:(resume_init resume) net constraints

(* Project the previous assignment into the new encoding: slots whose old
   product is no longer selectable (a fresh Fix, a shrunk candidate list)
   fall back to their first label. *)
let project previous encoded =
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

let refine ?prconst ?big_m ?preference ?edge_weight ~previous net constraints
    =
  optimize ~solver:Icm ?prconst ?big_m ?preference ?edge_weight
    ~init:(fun encoded -> Some (project previous encoded))
    net constraints

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>energy %a (bound %a, gap %a), constraints %s, %.3fs@]" S.pp_float
    r.energy S.pp_float r.lower_bound S.pp_float
    (S.optimality_gap r.solver_result)
    (if r.constraints_ok then "satisfied"
     else Printf.sprintf "VIOLATED (%d)" (List.length r.violated))
    r.runtime_s
