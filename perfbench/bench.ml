(* Scored-deployment benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   The parent runs fresh child processes one after another, so that every
   set-up starts cold.  A child generates the workload's input from the
   seed and makes one cold deployment; the end of that deployment, counted
   from the moment the parent started the process, is its set-up time.

   --trace 0 runs three children.  The middle one goes on to repeat warm
   deployments for S seconds: deploy_s is their median, with the sample
   count and every sample in the provenance.  setup_s and peak_heap_mb
   are the medians of the three cold starts.

   Both times are given at the host speed at which a fixed calibration
   loop ([calibrate]) takes [calib_nominal_s].  On a shared machine other
   tenants slow everything down by up to 1.9x for minutes at a time
   (NOTES.md), so each child times the loop right after its cold
   deployment and after every warm one, and every sample is scaled by
   the loop times around it.  The unscaled medians are in the provenance.

   --trace 1 runs one child that alternates untraced and traced warm
   deployments for S seconds, reports the per-layer metrics and writes
   its spans to perfbench/_out/.  --tiny runs the smoke test's miniature
   inputs.

   Every deployment passes the correctness gate ([Work.failures]) and
   must reproduce the cold deployment's quality figures bit for bit.  The
   last line of stdout is the result object; the line before it is the
   run's provenance.  The exit code is 0 only when every deployment
   passed. *)

module W = Perfbench.Work
module Span = Perfbench.Span
module Solver = Netdiv_mrf.Solver
module Mrf = Netdiv_mrf.Mrf

let now = Unix.gettimeofday

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_string s = Printf.sprintf "%S" s
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The calibration loop: fixed work that never changes with the program
   under test, a sort and hash-table updates, which takes about
   [calib_nominal_s] on the 2-core Xeon host the benchmark was tuned on. *)
let calibrate () =
  let t = now () in
  let a = Array.init 200_000 (fun i -> float_of_int (i * 7919 mod 200_003)) in
  Array.sort Float.compare a;
  let h = Hashtbl.create 1024 in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i * 31 mod 50_021) i
  done;
  ignore (Sys.opaque_identity (a, h));
  now () -. t

let calib_nominal_s = 0.1

(* ------------------------------------------------------------ child *)

(* Child output: one "key value" line per fact, read by the parent. *)
let emit key value = Printf.printf "%s %s\n%!" key value
let emit_float key v = emit key (Printf.sprintf "%.17g" v)

(* The per-layer metrics of a traced child, by name.  [traced] holds the
   traced deployments' durations and [d] the last deployment. *)
let layers ~name ~input ~gen_s ~untraced ~traced ~rerun_pairs d =
  let n = float_of_int (List.length traced) in
  let spans = Span.self_times (Span.spans ()) in
  let fold f name init =
    List.fold_left
      (fun acc (s, self) ->
        if String.equal s.Span.name name then f acc s self else acc)
      init spans
  in
  let per_deploy name = fold (fun acc s _ -> acc +. Span.duration s) name 0.0 /. n in
  let deploy_total = fold (fun acc s _ -> acc +. Span.duration s) "deploy" 0.0 in
  let share name = fold (fun acc _ self -> acc +. self) name 0.0 /. deploy_total in
  let mw name = fold (fun acc s _ -> acc +. s.Span.alloc_words) name 0.0 /. n /. 1e6 in
  let solves = d.W.solves in
  let sweeps =
    List.fold_left (fun acc s -> acc + s.W.result.Solver.iterations) 0 solves
  in
  let converged =
    List.length (List.filter (fun s -> s.W.result.Solver.converged) solves)
  in
  let hosts, links = W.hosts_links input in
  let zones, boundary = W.zones input in
  let fp = Mrf.footprint (W.reported d).W.model in
  let solve_s = per_deploy "mrf.solve" and mttc_s = per_deploy "sim.mttc" in
  let gen layer = if String.equal (W.gen_layer name) layer then gen_s else 0.0 in
  let count i = float_of_int i in
  let untraced_s = median untraced and traced_s = median traced in
  [
    ("workload.gen_s", gen "workload");
    ("casestudy.gen_s", gen "casestudy");
    ("gen.hosts", count hosts);
    ("gen.links", count links);
    ("core.encode_s", per_deploy "core.encode");
    ("core.encode_alloc_mw", mw "core.encode");
    ("core.decode_s", per_deploy "core.decode");
    ("core.check_s", per_deploy "core.check");
    ("core.violations", count (List.fold_left (fun a s -> a + s.W.violations) 0 solves));
    ("mrf.vars", count fp.Mrf.f_nodes);
    ("mrf.edges", count fp.Mrf.f_edges);
    ("mrf.tables", count fp.Mrf.f_tables);
    ("mrf.words", count fp.Mrf.f_words);
    ("mrf.solve_s", solve_s);
    ("mrf.sweeps", count sweeps);
    ("mrf.s_per_sweep", ratio solve_s (count sweeps));
    ("mrf.solve_alloc_mw", mw "mrf.solve");
    ("mrf.converged", count converged /. count (List.length solves));
    ("mrf.zones", count zones);
    ("mrf.zone_rounds", if zones > 1 then count sweeps else 0.0);
    ("mrf.boundary_edges", count boundary);
    ("par.jobs", count (W.jobs input));
    ("par.cores", count (W.cores ()));
    ( "par.speedup_2j",
      match rerun_pairs with
      | [] -> nan
      | pairs ->
          median (List.map fst pairs) /. median (List.map snd pairs) );
    ("casestudy.assign_s", per_deploy "casestudy.assign");
    ("bayes.dbn_s", per_deploy "bayes.dbn");
    ("bayes.dbn_max_s", fold (fun m s _ -> Float.max m (Span.duration s)) "bayes.dbn" 0.0);
    ("bayes.calls", count d.W.scored.W.dbn_calls);
    ("bayes.bn_nodes_max", count (W.bn_nodes_max d));
    ("bayes.alloc_mw", mw "bayes.dbn");
    ("bayes.d_bn_min", W.dbn_min d);
    ("sim.mttc_s", mttc_s);
    ("sim.runs", count d.W.scored.W.mttc_runs);
    ("sim.runs_per_s", ratio (count d.W.scored.W.mttc_runs) mttc_s);
    ("sim.alloc_mw", mw "sim.mttc");
    ("sim.mttc_min_ticks", W.mttc_min d);
    ("gc.minor_mw", fold (fun a s _ -> a +. s.Span.minor_words) "deploy" 0.0 /. n /. 1e6);
    ( "gc.major_collections",
      fold (fun a s _ -> a +. float_of_int s.Span.major_collections) "deploy" 0.0 /. n );
    ("share.encode", share "core.encode");
    ("share.solve", share "mrf.solve");
    ("share.decode", share "core.decode");
    ("share.check", share "core.check");
    ("share.dbn", share "bayes.dbn");
    ("share.mttc", share "sim.mttc");
    ("share.other", share "deploy" +. share "casestudy.assign");
    ("trace.deploy_s", traced_s);
    ("trace.overhead", (traced_s /. untraced_s) -. 1.0);
    ("trace.samples", n);
  ]

let child ~name ~size ~seed ~seconds ~trace ~measure =
  let origin = now () in
  let input = W.generate ~size name ~seed in
  let gen_s = now () -. origin in
  let attempted = ref 0 and failed = ref 0 in
  let fail msg =
    incr failed;
    prerr_endline ("perfbench: " ^ msg)
  in
  let expected = ref None in
  (* one deployment through the gate; [None] when it failed *)
  let attempt () =
    incr attempted;
    let t = now () in
    match W.deploy input with
    | exception e ->
        fail ("deployment raised " ^ Printexc.to_string e);
        None
    | d -> (
        let dt = now () -. t in
        let fp = W.fingerprint d in
        let differs =
          match !expected with
          | None ->
              expected := Some fp;
              []
          | Some e when String.equal e fp -> []
          | Some _ -> [ "quality figures differ from the cold deployment's" ]
        in
        match differs @ W.failures d with
        | [] -> Some (dt, d)
        | ps ->
            fail (String.concat "; " ps);
            None)
  in
  let cold = attempt () in
  emit_float "setup_end" (now ());
  emit "heap_words" (string_of_int (Gc.quick_stat ()).Gc.top_heap_words);
  emit "jobs" (string_of_int (W.jobs input));
  Option.iter
    (fun (_, d) ->
      emit "fingerprint" (W.fingerprint d);
      emit_float "energy" (W.energy d);
      emit_float "rel_gap" (W.rel_gap d);
      emit_float "d_bn_min" (W.dbn_min d);
      emit_float "mttc_min_ticks" (W.mttc_min d))
    cold;
  (* after the heap figure, which the loop's allocation would raise *)
  let calib = ref (calibrate ()) in
  emit_float "calib" !calib;
  if measure && Option.is_some cold then begin
    let untraced = ref [] and traced = ref [] in
    let last = ref cold in
    let record samples = function
      | Some (dt, d) ->
          samples := dt :: !samples;
          last := Some (dt, d)
      | None -> ()
    in
    let t_warm = now () and warm = ref 0 in
    (* at least two warm deployments however short S is; a failure ends
       the loop *)
    while (now () -. t_warm < seconds || !warm < 2) && !failed = 0 do
      let result = attempt () in
      let c = calibrate () in
      Option.iter
        (fun (dt, _) -> emit_float "scaled" (dt /. ((!calib +. c) /. 2.0)))
        result;
      calib := c;
      record untraced result;
      if trace then begin
        Span.enabled := true;
        record traced (attempt ());
        Span.enabled := false
      end;
      incr warm
    done;
    List.iter (emit_float "sample") !untraced;
    match !last with
    | Some (_, d) when trace && !failed = 0 ->
        (* the reported solve at jobs 1 and at jobs 2, in pairs: at least
           one pair and up to five within two seconds; unmeasured on
           fewer than two cores *)
        let pairs = ref [] in
        if W.cores () >= 2 then begin
          let s = W.reported d in
          let time jobs =
            let t = now () in
            let r = s.W.rerun ~jobs in
            (now () -. t, r.Solver.energy)
          in
          let t_par = now () in
          while !pairs = [] || (now () -. t_par < 2.0 && List.length !pairs < 5) do
            incr attempted;
            let t1, e1 = time 1 in
            let t2, e2 = time 2 in
            if not (Float.equal e1 e2) then
              fail (Printf.sprintf "energy %.17g at jobs 1 but %.17g at jobs 2" e1 e2);
            pairs := (t1, t2) :: !pairs
          done
        end;
        List.iter
          (fun (k, v) ->
            if String.equal k "par.speedup_2j" && !pairs = [] then
              emit ("layer:" ^ k) "unmeasured"
            else emit_float ("layer:" ^ k) v)
          (layers ~name ~input ~gen_s ~untraced:!untraced ~traced:!traced
             ~rerun_pairs:!pairs d);
        if size = W.Full then begin
          let dir = Filename.concat "perfbench" "_out" in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Span.dump ~origin
            (Filename.concat dir
               (Printf.sprintf "trace-%s-seed%d.jsonl" (W.label name) seed))
        end
    | _ -> ()
  end;
  emit "attempted" (string_of_int !attempted);
  emit "failed" (string_of_int !failed);
  exit (if !failed = 0 then 0 else 1)

(* ----------------------------------------------------------- parent *)

let run_child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let started = now () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let facts =
    List.filter_map
      (fun line ->
        match String.index_opt line ' ' with
        | Some i ->
            Some
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) )
        | None -> None)
      (String.split_on_char '\n' out)
  in
  (started, facts, status = Unix.WEXITED 0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let commit () =
  match String.trim (read_file (Filename.concat ".git" "HEAD")) with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      try String.trim (read_file (Filename.concat ".git" r))
      with Sys_error _ -> "unknown")
  | head -> head

let parent ~workload ~seed ~seconds ~trace ~tiny =
  (* the measuring child runs between set-up-only children *)
  let roles =
    if trace then [ "measure" ]
    else [ "setup"; "measure"; "setup" ]
  in
  let args role =
    [
      "--child"; role;
      "--workload"; workload;
      "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%.17g" seconds;
      "--trace"; (if trace then "1" else "0");
    ]
    @ if tiny then [ "--tiny" ] else []
  in
  let runs = List.map (fun role -> run_child (args role)) roles in
  let all key =
    List.concat_map
      (fun (_, facts, _) ->
        List.filter_map
          (fun (k, v) -> if String.equal k key then Some v else None)
          facts)
      runs
  in
  let floats key = List.map float_of_string (all key) in
  let ints key = List.fold_left ( + ) 0 (List.map int_of_string (all key)) in
  let first key = match all key with v :: _ -> v | [] -> "" in
  let children = List.length runs in
  let exited_ok = List.for_all (fun (_, _, ok) -> ok) runs in
  let reported = List.length (all "fingerprint") = children in
  let agree = List.length (List.sort_uniq String.compare (all "fingerprint")) = 1 in
  if not agree then prerr_endline "perfbench: children disagree on the quality figures";
  let attempted = max 1 (ints "attempted") in
  let failed =
    ints "failed"
    + (if agree then 0 else 1)
    + List.length (List.filter (fun (_, _, ok) -> not ok) runs)
  in
  let correct = exited_ok && reported && agree && failed = 0 in
  (* (wall time, time at nominal host speed) of each child's set-up *)
  let setups =
    List.filter_map
      (fun (started, facts, _) ->
        match (List.assoc_opt "setup_end" facts, List.assoc_opt "calib" facts) with
        | Some e, Some c ->
            let wall = float_of_string e -. started in
            Some (wall, wall /. float_of_string c *. calib_nominal_s)
        | _ -> None)
      runs
  in
  let samples = floats "sample" in
  let nominal key = List.map (fun r -> r *. calib_nominal_s) (floats key) in
  let metrics =
    if not correct then []
    else if trace then
      List.map
        (fun (name, unit) ->
          let v =
            match all ("layer:" ^ name) with
            | [ "unmeasured" ] -> json_string "unmeasured"
            | [ v ] -> json_float (float_of_string v)
            | _ -> "null"
          in
          (name, v, unit))
        W.per_layer
    else
      let value = function
        | "setup_s" -> median (List.map snd setups)
        | "deploy_s" -> median (nominal "scaled")
        | "peak_heap_mb" ->
            median (floats "heap_words")
            *. float_of_int (Sys.word_size / 8)
            /. 1048576.0
        | key -> float_of_string (first key)
      in
      List.map
        (fun (name, unit) -> (name, json_float (value name), unit))
        W.end_to_end
  in
  let field (k, v) = Printf.sprintf "%s: %s" (json_string k) v in
  let obj fields = "{" ^ String.concat ", " (List.map field fields) ^ "}" in
  print_endline
    (obj
       [
         ( "provenance",
           obj
             [
               ("workload", json_string workload);
               ("seed", string_of_int seed);
               ("seconds", json_float seconds);
               ("trace", if trace then "1" else "0");
               ("tiny", if tiny then "true" else "false");
               ("commit", json_string (commit ()));
               ("nproc", string_of_int (W.cores ()));
               ("jobs", json_string (first "jobs"));
               ("children", string_of_int children);
               ("calib_median_s", json_float (median (floats "calib")));
               ("setup_wall_median_s", json_float (median (List.map fst setups)));
               ("setup_wall_samples_s", "[" ^ String.concat ", " (List.map (fun (w, _) -> json_float w) setups) ^ "]");
               ("samples", string_of_int (List.length samples));
               ("deploy_wall_median_s", json_float (median samples));
               ("deploy_wall_samples_s", "[" ^ String.concat ", " (List.map json_float samples) ^ "]");
               ("failed_frac", json_float (float_of_int failed /. float_of_int attempted));
               ("energy", json_string (first "energy"));
               ("rel_gap", json_string (first "rel_gap"));
               ("d_bn_min", json_string (first "d_bn_min"));
               ("mttc_min_ticks", json_string (first "mttc_min_ticks"));
               ("fingerprint", json_string (first "fingerprint"));
             ] );
       ]);
  print_endline
    (obj
       [
         ("correct", if correct then "true" else "false");
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           obj
             (List.map
                (fun (name, v, unit) ->
                  (name, obj [ ("value", v); ("unit", json_string unit) ]))
                metrics) );
       ]);
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false and role = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds of warm deployments");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--tiny", Arg.Set tiny, " miniature inputs (smoke test)");
      ("--child", Arg.Set_string role, "setup|measure run as a child");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let name =
    match List.assoc_opt !workload W.names with
    | Some n -> n
    | None ->
        prerr_endline
          ("perfbench: unknown workload '" ^ !workload ^ "'; one of "
          ^ String.concat ", " (List.map fst W.names));
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds < 0.0 then begin
    prerr_endline "perfbench: --trace takes 0 or 1, --seconds a non-negative number";
    exit 2
  end;
  let size = if !tiny then W.Tiny else W.Full in
  match !role with
  | "" ->
      parent ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~trace:(!trace = 1) ~tiny:!tiny
  | ("setup" | "measure") as r ->
      child ~name ~size ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~measure:(String.equal r "measure")
  | r ->
      prerr_endline ("perfbench: unknown child role '" ^ r ^ "'");
      exit 2
