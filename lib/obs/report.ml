(* Convergence/profiling report logic.  See report.mli.

   Everything here is pure analysis over an already-captured
   [Obs.event list] — a trace or a flight-recorder dump, which carry
   the same events — so `netdiv report` renders both through one code
   path; parsing JSON back into events stays in bin/ with the repo's
   JSON reader. *)

let samples (events : Obs.event list) =
  List.filter_map
    (fun (e : Obs.event) ->
      if e.Obs.kind = Obs.Sample then Some (e.Obs.name, e) else None)
    events

(* ---------------------------------------------------------- hot spans *)

let pp_hot_spans ~k ppf events =
  match List.filteri (fun i _ -> i < k) (Export.span_rollup events) with
  | [] -> Format.fprintf ppf "@,hot spans: none"
  | rows ->
      Format.fprintf ppf "@,hot spans (by total time):@,  %-34s %8s %12s %12s"
        "name" "count" "total_s" "max_s";
      List.iter
        (fun (name, count, total, mx) ->
          Format.fprintf ppf "@,  %-34s %8d %12.6f %12.6f" name count total mx)
        rows

(* ------------------------------------------------- message throughput *)

let pp_throughput ppf events =
  (* solvers sample their per-solve count of computed message updates
     at the end of every run, so summing the samples recovers the
     global count even across several solves in one stream *)
  let msgs =
    List.filter_map
      (fun (name, (e : Obs.event)) ->
        if name = "mrf.messages" then Some e.Obs.value else None)
      (samples events)
  in
  if msgs <> [] then begin
    let msgs = List.fold_left ( +. ) 0.0 msgs in
    (* messages are produced inside sweep spans; their total wall time
       is the denominator *)
    let sweep_s =
      List.fold_left
        (fun acc (name, _, total, _) ->
          if name = "trws.sweep" then acc +. total
          else acc)
        0.0 (Export.span_rollup events)
    in
    Format.fprintf ppf
      "@,message throughput:@,  %16s %12s %16s@,  %16.0f %12.6f %16.3e"
      "messages" "sweep_s" "msgs/s" msgs sweep_s
      (if sweep_s > 0.0 then msgs /. sweep_s else 0.0)
  end

(* ------------------------------------------------------ the last solve *)

(* Convergence sections describe the last solve in the stream: the
   events after the last [trws.zoned] begin when the stream holds zoned
   samples, otherwise after the last monolithic solve begin.  A wrapped
   ring may have lost that begin; then the whole stream is the solve. *)
let last_solve events =
  let zoned =
    List.exists
      (fun (name, _) -> String.starts_with ~prefix:"trws.zoned." name)
      (samples events)
  in
  let starts (e : Obs.event) =
    e.Obs.kind = Obs.Begin
    &&
    if zoned then e.Obs.name = "trws.zoned"
    else List.mem e.Obs.name [ "trws.solve"; "sa.solve" ]
  in
  let rec after tail = function
    | [] -> tail
    | e :: rest -> after (if starts e then rest else tail) rest
  in
  after events events

(* Per solver: the sample carrying the round or iteration number, the
   best energy and the dual bound (if the solver has one).  Each
   evaluation emits the counter first, so every point carries the
   number the solver gave it — never its position in a wrapped ring. *)
let trajectories =
  [
    ("trws.zoned.round", "trws.zoned.energy", Some "trws.zoned.lower_bound");
    ("trws.iter", "trws.energy", Some "trws.lower_bound");
    ("sa.iter", "sa.energy", None);
  ]

type point = { t : float; iter : int; energy : float; bound : float }

let trajectory solve =
  let ss = samples solve in
  match
    List.find_opt
      (fun (_, energy, _) -> List.mem_assoc energy ss)
      trajectories
  with
  | None -> []
  | Some (counter, energy, bound) ->
      let iter = ref None in
      List.fold_left
        (fun points (name, (e : Obs.event)) ->
          if name = counter then begin
            iter := Some (int_of_float e.Obs.value);
            points
          end
          else
            match (points, !iter) with
            | _, Some i when name = energy ->
                { t = e.Obs.ts; iter = i; energy = e.Obs.value;
                  bound = neg_infinity }
                :: points
            | p :: rest, _ when Some name = bound ->
                { p with bound = e.Obs.value } :: rest
            | _ -> points)
        [] ss
      |> List.rev

(* ------------------------------------------------------ time-to-gap *)

type milestone = { m_gap_pct : float; m_t : float; m_iter : int }

(* the repo-wide relative-gap convention (see bench hierarchical_scale
   and Solver.optimality_gap): gap normalized by max(1, |energy|) *)
let rel_gap p =
  if Float.is_finite p.bound then
    (p.energy -. p.bound) /. Float.max 1.0 (Float.abs p.energy)
  else infinity

let milestone_thresholds = [ 50.0; 20.0; 10.0; 5.0; 2.0; 1.0; 0.5; 0.1 ]

let milestones points =
  List.filter_map
    (fun pct ->
      List.find_opt (fun p -> rel_gap p *. 100.0 <= pct) points
      |> Option.map (fun p -> { m_gap_pct = pct; m_t = p.t; m_iter = p.iter }))
    milestone_thresholds

let gap_milestones events = milestones (trajectory (last_solve events))

(* ------------------------------------- zone and boundary samples *)

type zone_gap = {
  z_zone : int;
  z_energy : float;
  z_bound : float;
  z_gap : float;
  z_converged : bool;
}

type boundary = {
  b_round : int;
  b_disagree : int;
  b_zone_bound : float;
  b_edge_bound : float;
  b_step : float;
}

(* The zoned schedule's per-round samples, attributed to the round
   sample that precedes them; samples before any round sample (cut off
   by a wrapped ring) are dropped.  Returns the last round's zones and
   the boundary rows in recording order. *)
let rounds solve =
  let round = ref None in
  let zones : (int, int * zone_gap) Hashtbl.t = Hashtbl.create 16 in
  let rows = ref [] in
  List.iter
    (fun (name, (e : Obs.event)) ->
      let v = e.Obs.value in
      match (!round, String.split_on_char '.' name) with
      | _, [ "trws"; "zoned"; "round" ] -> round := Some (int_of_float v)
      | Some r, [ "trws"; "zone"; z; field ] -> (
          match int_of_string_opt z with
          | None -> ()
          | Some z ->
              let zg =
                match Hashtbl.find_opt zones z with
                | Some (r', zg) when r' = r -> zg
                | _ ->
                    { z_zone = z; z_energy = nan; z_bound = nan; z_gap = nan;
                      z_converged = false }
              in
              let zg =
                match field with
                | "energy" -> { zg with z_energy = v }
                | "bound" -> { zg with z_bound = v }
                | "converged" -> { zg with z_converged = v <> 0.0 }
                | _ -> zg
              in
              Hashtbl.replace zones z
                (r, { zg with z_gap = zg.z_energy -. zg.z_bound }))
      | Some r, [ "trws"; "boundary"; "disagree" ] ->
          rows :=
            { b_round = r; b_disagree = int_of_float v; b_zone_bound = nan;
              b_edge_bound = nan; b_step = nan }
            :: !rows
      | _, [ "trws"; "boundary"; field ] -> (
          match !rows with
          | b :: rest -> (
              match field with
              | "zone_bound" -> rows := { b with b_zone_bound = v } :: rest
              | "edge_bound" -> rows := { b with b_edge_bound = v } :: rest
              | "step" -> rows := { b with b_step = v } :: rest
              | _ -> ())
          | [] -> ())
      | _ -> ())
    (samples solve);
  let last = Hashtbl.fold (fun _ (r, _) acc -> max acc r) zones min_int in
  ( Hashtbl.fold
      (fun _ (r, zg) acc -> if r = last then zg :: acc else acc)
      zones [],
    List.rev !rows )

let zone_attribution events =
  fst (rounds (last_solve events))
  |> List.sort (fun a b ->
         let c = Float.compare b.z_gap a.z_gap in
         if c <> 0 then c else compare a.z_zone b.z_zone)

(* -------------------------------------------------- stall diagnosis *)

let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let last l = List.nth l (List.length l - 1)

let diagnosis points boundaries =
  match (boundaries, points) with
  | [], [] -> "no convergence samples recorded"
  | _ :: _, _ ->
      (* zoned solve: the boundary rows carry the round-level story *)
      let tail = last_n 3 boundaries in
      let d = (last tail).b_disagree in
      if d = 0 then
        "zones agree on every boundary edge (primal/dual reconciled)"
      else if
        List.length tail >= 3 && List.for_all (fun b -> b.b_disagree = d) tail
      then
        Printf.sprintf
          "boundary disagreement plateaued at %d edge(s) — re-solve the \
           top-gap zones or shrink the subgradient step"
          d
      else
        Printf.sprintf
          "boundary disagreement still shrinking (%d edge(s) at dump)" d
  | [], _ :: _ when not (Float.is_finite (last points).bound) ->
      (* SA carries no dual bound: judge the energy alone *)
      Printf.sprintf "no dual bound: best energy %.6f after %d evaluations"
        (List.fold_left (fun acc p -> Float.min acc p.energy) infinity points)
        (List.length points)
  | [], _ :: _ ->
      let gap = rel_gap (last points) in
      if gap <= 0.0 then "converged: dual gap closed"
      else
        let recent = last_n 3 points in
        let stalled =
          (* flat best energy AND best bound across the recent bound
             evaluations — the same condition that drives the solver's
             stall counter, reconstructed without knowing its tolerance *)
          match recent with
          | a :: rest when List.length recent >= 3 ->
              List.for_all
                (fun p -> p.energy = a.energy && p.bound = a.bound)
                rest
          | _ -> false
        in
        if stalled then
          Printf.sprintf
            "stalled: no energy/bound progress over the last %d bound \
             evaluations (gap %.3g%%)"
            (List.length recent) (gap *. 100.0)
        else Printf.sprintf "still progressing (gap %.3g%%)" (gap *. 100.0)

let diagnose events =
  let solve = last_solve events in
  diagnosis (trajectory solve) (snd (rounds solve))

(* ----------------------------------------------------- full renderer *)

let pp_convergence ppf events =
  let solve = last_solve events in
  let points = trajectory solve in
  let _, boundaries = rounds solve in
  Format.fprintf ppf "@[<v>diagnosis: %s" (diagnosis points boundaries);
  (match List.filter (fun (e : Obs.event) -> e.Obs.kind = Obs.Instant) events
   with
  | [] -> ()
  | ms ->
      Format.fprintf ppf "@,marks:";
      List.iter
        (fun (m : Obs.event) ->
          Format.fprintf ppf "@,  %10.6fs  %s" m.Obs.ts m.Obs.name)
        ms);
  (match milestones points with
  | [] -> ()
  | ms ->
      Format.fprintf ppf "@,time to gap:@,  %8s %12s %8s" "gap<=" "t_s" "iter";
      List.iter
        (fun m ->
          Format.fprintf ppf "@,  %7g%% %12.6f %8d" m.m_gap_pct m.m_t m.m_iter)
        ms);
  (match zone_attribution solve with
  | [] -> ()
  | zs ->
      Format.fprintf ppf
        "@,zone gap attribution (re-solve the top zones first):@,\
         \  %6s %16s %16s %12s %s"
        "zone" "energy" "bound" "gap" "converged";
      List.iter
        (fun z ->
          Format.fprintf ppf "@,  %6d %16.6f %16.6f %12.6f %b" z.z_zone
            z.z_energy z.z_bound z.z_gap z.z_converged)
        zs);
  (match boundaries with
  | [] -> ()
  | bs ->
      Format.fprintf ppf "@,boundary reconciliation:@,  %6s %10s %16s %16s %12s"
        "round" "disagree" "zone_bound" "edge_bound" "step";
      List.iter
        (fun b ->
          Format.fprintf ppf "@,  %6d %10d %16.6f %16.6f %12.6g" b.b_round
            b.b_disagree b.b_zone_bound b.b_edge_bound b.b_step)
        bs);
  (match points with
  | [] -> ()
  | _ ->
      let p = last points in
      Format.fprintf ppf
        "@,trajectory: %d points (last: iter %d, energy %.6f, bound %.6f)"
        (List.length points) p.iter p.energy p.bound);
  Format.fprintf ppf "@]"

let pp ?(top = 10) ~format ppf events =
  let count k =
    List.length (List.filter (fun (e : Obs.event) -> e.Obs.kind = k) events)
  in
  Format.fprintf ppf
    "@[<v>format  %s@,events  %d@,spans   %d begun, %d ended@,\
     marks   %d instants, %d counter samples@,%a%a%a@]"
    format (List.length events) (count Obs.Begin) (count Obs.End)
    (count Obs.Instant) (count Obs.Sample) pp_convergence events
    (pp_hot_spans ~k:top) events pp_throughput events
