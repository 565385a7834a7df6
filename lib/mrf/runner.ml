(* The anytime harness is the sanctioned wall-clock boundary: solvers
   do not time themselves, and the harness reads the clock for the
   budget and the stage timings only, through the Netdiv_obs clock shim
   so harness timings and trace spans share one time base.  Which
   assignment is returned can depend on the clock solely when the
   caller explicitly passes a time budget; an unbudgeted run's
   interrupt never reads the clock. *)

module Obs = Netdiv_obs.Obs
module Recorder = Netdiv_obs.Recorder
module Fault = Netdiv_fault.Fault

type outcome =
  | Converged
  | Budget_exhausted
  | Stalled
  | Fell_back of string * outcome
  | Degraded of string * outcome

let rec pp_outcome ppf = function
  | Converged -> Format.pp_print_string ppf "converged"
  | Budget_exhausted -> Format.pp_print_string ppf "budget exhausted"
  | Stalled -> Format.pp_print_string ppf "stalled"
  | Fell_back (stage, rest) ->
      Format.fprintf ppf "fell back from %s; %a" stage pp_outcome rest
  | Degraded (rung, rest) ->
      Format.fprintf ppf "degraded to %s; %a" rung pp_outcome rest

let rec outcome_converged = function
  | Converged -> true
  | Budget_exhausted | Stalled -> false
  | Fell_back (_, rest) | Degraded (_, rest) -> outcome_converged rest

type stage = {
  name : string;
  solve :
    interrupt:(unit -> bool) ->
    init:int array option ->
    Mrf.t ->
    Solver.result;
}

let stage_name s = s.name

let trws ?jobs () =
  {
    name = "trws";
    solve =
      (fun ~interrupt ~init:_ mrf -> Trws.solve ~interrupt ?jobs mrf);
  }

let trws_icm ?jobs () =
  {
    name = "trws+icm";
    solve =
      (fun ~interrupt ~init:_ mrf ->
        let r = Trws.solve ~interrupt ?jobs mrf in
        let p = Icm.solve ~interrupt ~init:r.Solver.labeling mrf in
        let merged =
          if p.Solver.energy < r.Solver.energy then
            { p with Solver.lower_bound = r.Solver.lower_bound }
          else r
        in
        {
          merged with
          Solver.iterations = r.Solver.iterations + p.Solver.iterations;
          converged = r.Solver.converged && p.Solver.converged;
        });
  }

let bp ?jobs () =
  {
    name = "bp";
    solve =
      (fun ~interrupt ~init:_ mrf -> Bp.solve ~interrupt ?jobs mrf);
  }

let icm () =
  {
    name = "icm";
    solve =
      (fun ~interrupt ~init mrf -> Icm.solve ~interrupt ?init mrf);
  }

let icm_restarts ?jobs () =
  let restarts = 4 and seed = 0x1c3 and strength = 0.25 in
  {
    name = "icm-restarts";
    solve =
      (fun ~interrupt ~init mrf ->
        (* restart 0 keeps the warm start untouched; later restarts
           perturb it (or draw a fresh random labeling) with an rng
           derived from the restart index alone, so the set of runs
           is identical for any job count *)
        let one r =
          let init_r =
            if r = 0 then init
            else begin
              let rng =
                Random.State.make
                  [| Netdiv_par.Pool.split_seed seed r |]
              in
              match init with
              | Some x ->
                  let x = Array.copy x in
                  for i = 0 to Array.length x - 1 do
                    if Random.State.float rng 1.0 < strength then
                      x.(i) <- Random.State.int rng (Mrf.label_count mrf i)
                  done;
                  Some x
              | None ->
                  Some
                    (Array.init (Mrf.n_nodes mrf) (fun i ->
                         Random.State.int rng (Mrf.label_count mrf i)))
            end
          in
          Icm.solve ~interrupt ?init:init_r mrf
        in
        (* ≈ a dozen ICM sweeps, each touching every (label, edge)
           slot once; lets the pool run smoke-sized restart batches
           inline instead of spawning domains *)
        let cost = 12 * (Mrf.pot_words_unshared mrf + Mrf.n_nodes mrf) in
        let results =
          Netdiv_par.Pool.map_range ?jobs ~cost ~lo:0 ~hi:restarts one
        in
        let best = ref results.(0) in
        Array.iter
          (fun r ->
            if r.Solver.energy < !best.Solver.energy then best := r)
          results;
        let iterations =
          Array.fold_left (fun acc r -> acc + r.Solver.iterations) 0 results
        in
        let converged = Array.for_all (fun r -> r.Solver.converged) results in
        { !best with Solver.iterations = iterations; converged });
  }

let sa ?jobs () =
  let config =
    Option.map (fun j -> { Sa.default_config with Sa.domains = j }) jobs
  in
  {
    name = "sa";
    solve =
      (fun ~interrupt ~init mrf -> Sa.solve ?config ~interrupt ?init mrf);
  }

let bnb () =
  {
    name = "bnb";
    solve =
      (fun ~interrupt ~init:_ mrf -> Bnb.solve ~interrupt mrf);
  }

let brute () =
  {
    name = "brute";
    solve =
      (fun ~interrupt ~init:_ mrf -> Brute.solve ~interrupt mrf);
  }

type run_report = {
  result : Solver.result;
  outcome : outcome;
  stage_timings : (string * float) list;
  retries : int;
}

(* Retry / degradation telemetry and the [runner.stage] injection
   point.  Attempt keys come from a process-wide counter: the harness
   runs stages single-threaded, so the sequence is deterministic and a
   recorded schedule replays exactly. *)
let c_retries = Obs.Counter.make "runner.retries"
let c_degraded = Obs.Counter.make "runner.degraded"
let c_dump_errors = Obs.Counter.make "runner.dump_errors"

(* Flush the installed flight recorder (if any) to its dump path (if
   any): every degradation, watchdog abandonment, escaping exception
   and completed run ships its black box.  A failed dump must never
   mask the solve outcome, so the error is only counted. *)
let dump_black_box reason =
  match Recorder.current () with
  | None -> ()
  | Some r -> (
      match Recorder.dump ~reason r with
      | Ok () -> ()
      | Error _ -> Obs.Counter.incr c_dump_errors)
let p_stage = Fault.point "runner.stage"
let attempt_seq = Atomic.make 0

(* The failures a retry can meaningfully absorb: injected faults and
   genuinely transient environment errors.  Everything else —
   [Pool.Race], [Invalid_argument], [Assert_failure] — is a programmer
   error or a sanitizer report and must propagate unchanged. *)
let recoverable = function
  | Fault.Injected _ | Out_of_memory | Sys_error _ -> true
  | _ -> false

(* Degradation ladder rungs, climbed when retries on the current rung
   keep failing: the model as given, then the same model forced onto
   generic kernels (rules the specialized message paths out), then
   plain ICM warm-started from the best labeling so far. *)
let rung_name = function
  | 1 -> "generic-kernel"
  | 2 -> "icm-fallback"
  | r -> "rung-" ^ string_of_int r

(* failed attempts retried on each rung before the ladder escalates *)
let retries_per_rung = 2

let run ?budget ?init ?on_best ~stages mrf =
  if stages = [] then invalid_arg "Runner.run: empty cascade";
  let exhausted = ref false in
  (* polled from solver inner loops, possibly from spawned domains:
     only reads wall clock and sets a monotone flag *)
  let interrupt =
    match budget with
    | None -> fun () -> false
    | Some s ->
        let deadline = Obs.Clock.now () +. s in
        fun () ->
          if Obs.Clock.now () >= deadline then begin
            exhausted := true;
            true
          end
          else false
  in
  let done_sweeps = ref 0 in
  let best : Solver.result option ref = ref None in
  (match init with
  | None -> ()
  | Some lab ->
      (* resume support: a checkpointed labeling seeds the cascade's
         best-so-far, so stages warm-start from it and the watchdog can
         always fall back to it *)
      best :=
        Some
          {
            Solver.labeling = Array.copy lab;
            energy = Mrf.energy mrf lab;
            lower_bound = neg_infinity;
            iterations = 0;
            converged = false;
          });
  let timings = ref [] in
  let fell = ref [] in
  let retries_used = ref 0 in
  let rung = ref 0 in
  let rungs_entered = ref [] in
  let degraded_model = lazy (Mrf.despecialize mrf) in
  let icm_fallback = icm () in
  let escalate () =
    (* skip the generic-kernel rung when there is nothing to
       despecialize — it would re-run the identical computation *)
    let next = if !rung = 0 && not (Mrf.specialized mrf) then 2 else !rung + 1 in
    rung := next;
    rungs_entered := rung_name next :: !rungs_entered;
    Obs.Counter.incr c_degraded;
    Obs.instant ("degrade:" ^ rung_name next);
    (* flush immediately: if the degraded rung dies too, the black box
       already tells the story up to this point *)
    dump_black_box "degraded"
  in
  let rec go = function
    | [] -> assert false
    | stage :: rest ->
        Obs.instant ("stage:" ^ stage.name);
        let stage_start = Obs.Clock.now () in
        let warm = Option.map (fun r -> r.Solver.labeling) !best in
        (* One attempt on the current degradation rung.  The injected
           [runner.stage] check sits before the solve so a scheduled
           fault kills the attempt, not the harness. *)
        let solve_once () =
          if Fault.enabled () then
            Fault.check ~key:(Atomic.fetch_and_add attempt_seq 1) p_stage;
          let model = if !rung >= 1 then Lazy.force degraded_model else mrf in
          let s = if !rung >= 2 then icm_fallback else stage in
          Obs.span
            ~name:("runner.stage:" ^ s.name)
            (fun () -> s.solve ~interrupt ~init:warm model)
        in
        (* Retry at once, escalating the ladder when a rung's retries
           are spent. *)
        let rec attempt tries_left =
          match solve_once () with
          | r -> Some r
          | exception exn when recoverable exn ->
              let bt = Printexc.get_raw_backtrace () in
              Obs.Counter.incr c_retries;
              incr retries_used;
              Obs.instant ("retry:" ^ stage.name);
              if tries_left > 0 then attempt (tries_left - 1)
              else if !rung < 2 then begin
                escalate ();
                attempt retries_per_rung
              end
              else if Option.is_some !best then begin
                (* watchdog: the whole ladder failed, but an anytime
                   labeling exists — abandon the stage, keep the result *)
                Obs.instant ("watchdog:" ^ stage.name);
                dump_black_box "watchdog";
                None
              end
              else begin
                dump_black_box (Printexc.to_string exn);
                Printexc.raise_with_backtrace exn bt
              end
        in
        let outcome_of = function
          | None ->
              (* stage abandoned after exhausting every rung *)
              fell := stage.name :: !fell;
              if rest <> [] then go rest else Stalled
          | Some r ->
              done_sweeps := !done_sweeps + r.Solver.iterations;
              let prev = !best in
              let merged =
                match prev with
                | None -> r
                | Some b ->
                    let better =
                      if r.Solver.energy <= b.Solver.energy then r else b
                    in
                    {
                      better with
                      Solver.lower_bound =
                        max r.Solver.lower_bound b.Solver.lower_bound;
                    }
              in
              best := Some merged;
              (match on_best with
              | Some f
                when (match prev with
                     | None -> true
                     | Some b -> merged.Solver.energy < b.Solver.energy) ->
                  f merged
              | _ -> ());
              if r.Solver.converged then Converged
              else if !exhausted then Budget_exhausted
              else if rest <> [] then begin
                fell := stage.name :: !fell;
                go rest
              end
              else Stalled
        in
        let g0 = Gc.quick_stat () in
        let r = attempt retries_per_rung in
        let g1 = Gc.quick_stat () in
        (* one measurement feeds both sinks: the report's stage_timings
           list (public API) and the metrics registry — previously two
           separate gettimeofday code paths *)
        let stage_elapsed = Obs.Clock.now () -. stage_start in
        timings := (stage.name, stage_elapsed) :: !timings;
        Obs.Histogram.record
          (Obs.Histogram.make ("runner.stage." ^ stage.name))
          stage_elapsed;
        (* allocation attribution per stage, as seen by this domain:
           which rung of the cascade actually churns the heap *)
        Obs.Histogram.record
          (Obs.Histogram.make ("runner.stage_minor_words." ^ stage.name))
          (g1.Gc.minor_words -. g0.Gc.minor_words);
        Obs.Histogram.record
          (Obs.Histogram.make ("runner.stage_major_words." ^ stage.name))
          (g1.Gc.major_words -. g0.Gc.major_words);
        outcome_of r
  in
  let base = go stages in
  let outcome =
    List.fold_left (fun o name -> Fell_back (name, o)) base !fell
  in
  let outcome =
    List.fold_left (fun o name -> Degraded (name, o)) outcome !rungs_entered
  in
  let result =
    match !best with Some r -> r | None -> assert false
  in
  let result =
    {
      result with
      Solver.iterations = !done_sweeps;
      converged = outcome_converged outcome;
    }
  in
  dump_black_box (Format.asprintf "%a" pp_outcome outcome);
  { result; outcome; stage_timings = List.rev !timings; retries = !retries_used }
