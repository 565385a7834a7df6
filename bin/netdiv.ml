(* netdiv: command-line front end for the network-diversity toolkit.

   Subcommands:
     similarity   print a CVE/NVD vulnerability-similarity table
     optimize     optimally diversify a random network and report energies
     casestudy    run the Stuxnet-inspired ICS case study (Tables V/VI)
     simulate     agent-based worm propagation on the case study
     scalability  runtime sweep over random networks (Tables VII-IX) *)

module Corpus = Netdiv_vuln.Corpus
module Similarity = Netdiv_vuln.Similarity
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Optimize = Netdiv_core.Optimize
module Encode = Netdiv_core.Encode
module Workload = Netdiv_workload.Workload
module Engine = Netdiv_sim.Engine
module Topology = Netdiv_casestudy.Topology
module Products = Netdiv_casestudy.Products
module Experiments = Netdiv_casestudy.Experiments
module Metrics = Netdiv_metrics.Metrics
module Runner = Netdiv_mrf.Runner
module Mrf = Netdiv_mrf.Mrf
module Trws = Netdiv_mrf.Trws
module Solver = Netdiv_mrf.Solver
module Obs = Netdiv_obs.Obs
module Obs_export = Netdiv_obs.Export
module Recorder = Netdiv_obs.Recorder
module Obs_report = Netdiv_obs.Report
module Json = Netdiv_vuln.Json

open Cmdliner

(* ------------------------------------------------------------ similarity *)

let similarity_cmd =
  let corpus =
    let doc = "Corpus to print: os, browser or database." in
    Arg.(value & opt string "os" & info [ "corpus" ] ~docv:"NAME" ~doc)
  in
  let synthesize =
    let doc =
      "Round-trip through a synthetic NVD: generate CVE entries matching \
       the curated counts and recompute the table from them."
    in
    Arg.(value & flag & info [ "synthesize" ] ~doc)
  in
  let run corpus synthesize =
    match Corpus.find_spec corpus with
    | None -> `Error (false, Printf.sprintf "unknown corpus %S" corpus)
    | Some spec ->
        let table =
          if synthesize then
            Similarity.of_nvd ~since:1999 ~until:2016
              (Corpus.synthesize spec)
              (Array.to_list spec.Corpus.products)
          else Corpus.table spec
        in
        Format.printf "%a@." Similarity.pp table;
        `Ok ()
  in
  let doc = "print a vulnerability-similarity table (paper Tables II/III)" in
  Cmd.v
    (Cmd.info "similarity" ~doc)
    Term.(ret (const run $ corpus $ synthesize))

(* -------------------------------------------------------------- optimize *)

let solver_conv =
  let parse = function
    | "trws" -> Ok Optimize.Trws
    | "trws+icm" -> Ok Optimize.Trws_icm
    | "icm" -> Ok Optimize.Icm
    | "sa" -> Ok Optimize.Sa
    | "exact" -> Ok Optimize.Exact
    | s -> Error (`Msg (Printf.sprintf "unknown solver %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Optimize.solver_name s) in
  Arg.conv (parse, print)

let time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per solve.  The solve returns the best \
           assignment found when the budget expires.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Parallelize the solver over N domains (0 = auto: \
           $(b,NETDIV_JOBS) or the recommended domain count).  The \
           assignment is identical for every N; omitting the option \
           keeps the serial solver.")

let jobs_of = function
  | None -> None
  | Some n when n >= 1 -> Some n
  | Some _ -> Some (Netdiv_par.Pool.resolve_jobs ())

(* --------------------------------------------------------- observability *)

(* A Chrome trace is one JSON document carrying a traceEvents list; a
   flight-recorder dump is a header line followed by JSONL events;
   anything else is a JSONL trace.  Each event object is paired with its
   position, for error messages. *)
let load_events contents =
  match Json.parse contents with
  | Ok json when Json.member "traceEvents" json <> None -> (
      match Option.bind (Json.member "traceEvents" json) Json.to_list with
      | Some evs ->
          let at i e = (Printf.sprintf "event %d" i, e) in
          Ok ("chrome", None, List.mapi at evs)
      | None -> Error "traceEvents is not a list")
  | _ -> (
      let rec lines lineno acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest when String.trim line = "" ->
            lines (lineno + 1) acc rest
        | line :: rest -> (
            let at = Printf.sprintf "line %d" lineno in
            match Json.parse line with
            | Ok j -> lines (lineno + 1) ((at, j) :: acc) rest
            | Error msg -> Error (Printf.sprintf "%s: %s" at msg))
      in
      match lines 1 [] (String.split_on_char '\n' contents) with
      | Ok ((_, header) :: events)
        when Json.member "netdiv_recorder" header <> None ->
          let version = Json.member "netdiv_recorder" header in
          if Option.bind version Json.to_float = Some 2.0 then
            Ok ("dump", Some header, events)
          else Error "unsupported flight-recorder dump version (expected 2)"
      | Ok events -> Ok ("jsonl", None, events)
      | Error _ as e -> e)

(* JSON numbers cannot carry non-finite floats, so the exporters write
   them as strings ("inf", "-inf", "nan"); accept both shapes here. *)
let json_num j =
  match Json.to_float j with
  | Some v -> Some v
  | None -> Option.bind (Json.to_str j) float_of_string_opt

(* Decode one trace-event object (the shape Obs_export writes for traces
   and dumps alike) back into an {!Obs.event}; [ts] is microseconds in
   the format.  [None] on a missing or mistyped field. *)
let event_of_json ev =
  let str k = Option.bind (Json.member k ev) Json.to_str in
  let num k = Option.bind (Json.member k ev) json_num in
  let kind =
    match str "ph" with
    | Some "B" -> Some Obs.Begin
    | Some "E" -> Some Obs.End
    | Some "i" -> Some Obs.Instant
    | Some "C" -> Some Obs.Sample
    | _ -> None
  in
  let value =
    if kind = Some Obs.Sample then
      Option.bind (Json.path [ "args"; "value" ] ev) json_num
    else Some 0.0
  in
  match (str "name", kind, num "ts", value) with
  | Some name, Some kind, Some us, Some value ->
      Some
        {
          Obs.kind;
          name;
          ts = us /. 1e6;
          value;
          tid = (match num "tid" with Some t -> int_of_float t | None -> 0);
        }
  | _ -> None

(* Every event of a trace or dump, with its format and a dump's header
   line; [Error] names the first event that does not decode. *)
let decode_events contents =
  match load_events contents with
  | Error _ as e -> e
  | Ok (format, header, objs) ->
      let rec decode acc = function
        | [] -> Ok (format, header, List.rev acc)
        | (pos, j) :: rest -> (
            match event_of_json j with
            | Some e -> decode (e :: acc) rest
            | None ->
                Error
                  (pos
                 ^ " is not a trace event (needs a name, a ph of B/E/i/C, a \
                    numeric ts, and args.value on C)"))
      in
      decode [] objs

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the event stream (spans, instants and samples) while \
           the command runs and write it to $(docv).  A $(b,.jsonl) \
           suffix selects the line-delimited event log; any other name \
           gets Chrome trace_event JSON, loadable in chrome://tracing or \
           Perfetto.  $(b,netdiv report) renders either.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Record the event stream while the command runs and print its \
           $(b,netdiv report) after the command finishes: the same \
           report, timestamps relative to the first event, that \
           $(b,netdiv report) renders from a $(b,--trace) file of the \
           run.")

(* Enables tracing around [f] when either output was requested; the
   trace and report are still written when [f] raises so a failing run
   can be diagnosed from its partial trace.  The report reads back the
   JSONL a [--trace] file holds, so it is the [netdiv report] of that
   file by construction. *)
let with_obs ~trace ~metrics f =
  if trace = None && not metrics then f ()
  else begin
    Obs.set_enabled true;
    let finish () =
      Obs.set_enabled false;
      Option.iter
        (fun path ->
          match Obs_export.write_trace ~path with
          | Ok () -> Format.printf "wrote trace %s@." path
          | Error msg ->
              Format.eprintf "netdiv: could not write trace %s: %s@." path msg)
        trace;
      if metrics then
        match decode_events (Obs_export.jsonl_string ()) with
        | Ok (_, _, events) ->
            Format.printf "%a@." (Obs_report.pp ?top:None ~format:"live") events
        | Error msg -> Format.eprintf "netdiv: unreadable trace: %s@." msg
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let flight_record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-record" ] ~docv:"FILE"
        ~doc:
          "Keep a fixed-size flight recorder installed for the solve: a \
           ring holding the last events of the same stream $(b,--trace) \
           writes, dumped to $(docv) as a header line plus JSONL events.  \
           O(capacity) memory whatever the instance size — cheap enough \
           to leave on at 100k hosts where $(b,--trace) is too heavy.  \
           The dump also happens on degradation, watchdog abandonment \
           and escaping exceptions; read it back with $(b,netdiv report).")

(* Installs a flight recorder around [f] when requested.  The anytime
   runner dumps with its outcome as the reason; paths that bypass the
   runner (the zoned scalability solve) are covered by the completion
   dump here, which defers to any more specific dump already written. *)
let with_flight_record ~flight f =
  match flight with
  | None -> f ()
  | Some path ->
      let r = Recorder.create ~dump_path:path "netdiv" in
      let dump reason =
        match Recorder.dump ~reason r with
        | Ok () -> Format.printf "wrote flight record %s@." path
        | Error msg ->
            Format.eprintf "netdiv: could not write flight record %s: %s@."
              path msg
      in
      Recorder.with_recorder r (fun () ->
          match f () with
          | v ->
              (match Recorder.last_dump r with
              | Some reason ->
                  Format.printf "wrote flight record %s (%s)@." path reason
              | None -> dump "completed");
              v
          | exception e ->
              if Recorder.last_dump r = None then
                dump (Printexc.to_string e);
              raise e)

let optimize_cmd =
  let hosts =
    Arg.(value & opt int 200 & info [ "hosts" ] ~docv:"N" ~doc:"Host count.")
  in
  let degree =
    Arg.(value & opt int 10 & info [ "degree" ] ~docv:"D" ~doc:"Average degree.")
  in
  let services =
    Arg.(value & opt int 5 & info [ "services" ] ~docv:"S" ~doc:"Services per host.")
  in
  let products =
    Arg.(value & opt int 4 & info [ "products" ] ~docv:"P" ~doc:"Products per service.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let solver =
    Arg.(value & opt solver_conv Optimize.Trws_icm
         & info [ "solver" ] ~docv:"SOLVER"
             ~doc:"Solver: trws+icm, trws, icm, sa or exact (min-sum \
                   elimination when its plan fits, else trws+icm).")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Write an atomic best-assignment snapshot to $(docv) \
                   every time the solve improves.")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Warm-start the solve from a checkpoint written by \
                   $(b,--checkpoint); an invalid or mismatched file warns \
                   and starts fresh.")
  in
  let run hosts degree services products_per_service seed solver
      time_budget jobs checkpoint resume flight trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_flight_record ~flight @@ fun () ->
    let net =
      Workload.instance { hosts; degree; services; products_per_service; seed }
    in
    Format.printf "%a@." Network.pp net;
    let report =
      Optimize.run ~solver ?budget:time_budget
        ?jobs:(jobs_of jobs) ?checkpoint ?resume net []
    in
    let encoded = Encode.encode net [] in
    let mono = Encode.assignment_energy encoded (Assignment.mono net) in
    let random =
      Encode.assignment_energy encoded
        (Assignment.random ~rng:(Random.State.make [| seed |]) net)
    in
    Format.printf "solver  %s@." (Optimize.solver_name solver);
    Format.printf "outcome %a@." Runner.pp_outcome report.Optimize.outcome;
    if report.Optimize.retries > 0 then
      Format.printf "retries %d@." report.Optimize.retries;
    (* surface the replay spec whenever injection actually fired, so a
       chaos run can be reproduced bit for bit from its own output *)
    if Netdiv_fault.Fault.fired_count () > 0 then
      Format.printf "faults  %s@." (Netdiv_fault.Fault.fired_spec ());
    Format.printf "optimal %a@." Optimize.pp_report report;
    Format.printf "mono    energy %.3f@.random  energy %.3f@." mono random
  in
  let doc = "diversify a random network and compare against baselines" in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const run $ hosts $ degree $ services $ products $ seed $ solver
      $ time_budget_arg $ jobs_arg $ checkpoint $ resume $ flight_record_arg
      $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------- casestudy *)

(* Simulation run counts: zero runs have no mean, so a count below 1 is
   rejected instead of printing NaN. *)
let runs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let casestudy_cmd =
  let runs =
    Arg.(value & opt runs_conv 1000
         & info [ "runs" ] ~docv:"N" ~doc:"Simulation runs per MTTC cell.")
  in
  let seed = Arg.(value & opt int 2020 & info [ "seed" ] ~doc:"Random seed.") in
  let show_assignments =
    Arg.(value & flag
         & info [ "assignments" ]
             ~doc:"Also print the three optimal assignments (Fig. 4).")
  in
  let run runs seed show_assignments time_budget jobs trace metrics =
    with_obs ~trace ~metrics @@ fun () ->
    let net = Products.network () in
    let a =
      Experiments.compute_assignments ~seed
        ?budget:time_budget ?jobs:(jobs_of jobs) net
    in
    if show_assignments then begin
      Format.printf "=== optimal assignment (Fig. 4a) ===@.%a@." Assignment.pp
        a.Experiments.optimal;
      Format.printf "=== host-constrained (Fig. 4b) ===@.%a@." Assignment.pp
        a.Experiments.host_constrained;
      Format.printf "=== product-constrained (Fig. 4c) ===@.%a@."
        Assignment.pp a.Experiments.product_constrained
    end;
    Format.printf "=== Table V: BN diversity metric (entry c4, target t5) ===@.";
    Format.printf "%-16s %10s %10s %10s@." "assignment" "log10 P'" "log10 P"
      "d_bn";
    List.iter
      (fun (r : Experiments.diversity_row) ->
        Format.printf "%-16s %10.3f %10.3f %10.5f@." r.label r.log_p_ref
          r.log_p_sim r.d_bn)
      (Experiments.diversity_table a);
    Format.printf "@.=== Table VI: MTTC in ticks (%d runs each) ===@." runs;
    Format.printf "%-16s" "assignment";
    List.iter (Format.printf "%10s") Topology.entry_points;
    Format.printf "@.";
    List.iter
      (fun (r : Experiments.mttc_row) ->
        Format.printf "%-16s" r.label;
        List.iter
          (fun (_, (s : Engine.mttc_stats)) ->
            Format.printf "%10.2f" s.mean_ticks)
          r.per_entry;
        Format.printf "@.")
      (Experiments.mttc_table ~seed ~runs a)
  in
  let doc = "run the Stuxnet-inspired ICS case study (paper Section VII)" in
  Cmd.v
    (Cmd.info "casestudy" ~doc)
    Term.(
      const run $ runs $ seed $ show_assignments $ time_budget_arg
      $ jobs_arg $ trace_arg $ metrics_arg)

(* -------------------------------------------------------------- simulate *)

let simulate_cmd =
  let entry =
    Arg.(value & opt string "c4"
         & info [ "entry" ] ~docv:"HOST" ~doc:"Attack entry host.")
  in
  let target =
    Arg.(value & opt string "t5"
         & info [ "target" ] ~docv:"HOST" ~doc:"Attack target host.")
  in
  let runs =
    Arg.(value & opt runs_conv 1000 & info [ "runs" ] ~docv:"N" ~doc:"Runs.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Random seed.") in
  let assignment =
    Arg.(value & opt string "optimal"
         & info [ "assignment" ] ~docv:"NAME"
             ~doc:"One of: optimal, host-constr, product-constr, random, mono.")
  in
  let run entry target runs seed assignment =
    let net = Products.network () in
    let a = Experiments.compute_assignments ~seed net in
    match List.assoc_opt assignment (Experiments.labelled a) with
    | None -> `Error (false, Printf.sprintf "unknown assignment %S" assignment)
    | Some chosen -> (
        match (Network.find_host net entry, Network.find_host net target) with
        | Some entry_h, Some target_h ->
            let rng = Random.State.make [| seed |] in
            let stats, summary =
              Engine.mttc_summary ~rng ~runs chosen ~entry:entry_h
                ~target:target_h
            in
            Format.printf "%s from %s to %s: %a@." assignment entry target
              Engine.pp_mttc stats;
            (match summary with
            | Some s ->
                Format.printf "distribution: %a@." Netdiv_sim.Stat.pp s
            | None -> ());
            let curve =
              Engine.epidemic_curve ~rng ~max_ticks:200 chosen ~entry:entry_h
            in
            Format.printf "epidemic curve (infected hosts per tick): %s@."
              (String.concat " "
                 (Array.to_list (Array.map string_of_int curve)));
            `Ok ()
        | _ -> `Error (false, "unknown entry or target host"))
  in
  let doc = "simulate Stuxnet-like worm propagation on the case study" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(ret (const run $ entry $ target $ runs $ seed $ assignment))

(* --------------------------------------------------------------- metrics *)

let metrics_cmd =
  let entry =
    Arg.(value & opt string "c4"
         & info [ "entry" ] ~docv:"HOST" ~doc:"Attack entry host.")
  in
  let target =
    Arg.(value & opt string "t5"
         & info [ "target" ] ~docv:"HOST" ~doc:"Attack target host.")
  in
  let seed = Arg.(value & opt int 2020 & info [ "seed" ] ~doc:"Random seed.") in
  let run entry target seed =
    let net = Products.network () in
    match (Network.find_host net entry, Network.find_host net target) with
    | Some entry_h, Some target_h ->
        let a = Experiments.compute_assignments ~seed net in
        Format.printf "diversity metrics, entry %s, target %s:@.@." entry
          target;
        Format.printf "%-16s %10s %24s %8s %10s@." "assignment" "d1"
          "least effort (k)" "d2" "d3 (d_bn)";
        List.iter
          (fun (label, assignment) ->
            let effort =
              match
                Metrics.least_effort ~limit:5 assignment ~entry:entry_h
                  ~target:target_h
              with
              | Ok exploits ->
                  Printf.sprintf "%d: %s" (List.length exploits)
                    (String.concat ","
                       (List.map
                          (Format.asprintf "%a" (Metrics.pp_exploit net))
                          exploits))
              | Error `Above_limit -> ">5"
              | Error `Unreachable -> "unreachable"
            in
            Format.printf "%-16s %10.4f %24s %8.4f %10.5f@." label
              (Metrics.d1 assignment) effort
              (Metrics.d2 assignment ~entry:entry_h ~target:target_h)
              (Metrics.d3 assignment ~entry:entry_h ~target:target_h))
          (Experiments.labelled a);
        `Ok ()
    | _ -> `Error (false, "unknown entry or target host")
  in
  let doc = "score case-study deployments with the d1/d2/d3 diversity metrics" in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(ret (const run $ entry $ target $ seed))

(* ------------------------------------------------------------------ feed *)

let feed_cmd =
  let file =
    Arg.(required & opt (some file) None
         & info [ "file" ] ~docv:"FILE" ~doc:"NVD JSON feed (schema 1.1).")
  in
  let cpes =
    Arg.(value & opt_all string []
         & info [ "cpe" ] ~docv:"CPE"
             ~doc:"CPE pattern to include in the similarity table \
                   (repeatable), e.g. cpe:/o:microsoft:windows_7.")
  in
  let weighted =
    Arg.(value & flag
         & info [ "weighted" ]
             ~doc:"Weight the similarity by CVSS base scores.")
  in
  let run file cpes weighted =
    let db = Netdiv_vuln.Nvd.create () in
    match
      Result.bind
        (Result.map_error (Printf.sprintf "%s: %s" file)
           (Netdiv_fault.Io.read_file file))
        (Netdiv_vuln.Feed.load_into db)
    with
    | Error msg -> `Error (false, msg)
    | Ok (count, warnings) ->
        Format.printf "loaded %d CVE entries (%d skipped)@." count
          (List.length warnings);
        List.iter (fun w -> Format.printf "  warning: %s@." w) warnings;
        let parsed =
          List.map
            (fun s ->
              match Netdiv_vuln.Cpe.of_string s with
              | Ok c -> Ok (s, c)
              | Error e -> Error e)
            cpes
        in
        (match
           List.find_opt (function Error _ -> true | Ok _ -> false) parsed
         with
        | Some (Error e) -> `Error (false, e)
        | _ ->
            let products =
              List.filter_map (function Ok p -> Some p | Error _ -> None)
                parsed
            in
            if products <> [] then begin
              let table =
                if weighted then Netdiv_vuln.Weighted.of_nvd db products
                else Netdiv_vuln.Similarity.of_nvd db products
              in
              Format.printf "%a@." Netdiv_vuln.Similarity.pp table
            end;
            `Ok ())
  in
  let doc = "ingest an NVD JSON feed and compute similarity tables" in
  Cmd.v (Cmd.info "feed" ~doc) Term.(ret (const run $ file $ cpes $ weighted))

(* ---------------------------------------------------------------- verify *)

let verify_cmd =
  let network_file =
    Arg.(required & opt (some file) None
         & info [ "network" ] ~docv:"FILE" ~doc:"Network JSON (see export).")
  in
  let assignment_file =
    Arg.(required & opt (some file) None
         & info [ "assignment" ] ~docv:"FILE" ~doc:"Assignment JSON.")
  in
  let load what path parse =
    match Netdiv_fault.Io.read_file path with
    | Error msg -> Error (Printf.sprintf "%s: %s: %s" what path msg)
    | Ok s -> Result.map_error (Printf.sprintf "%s: %s" what) (parse s)
  in
  let run network_file assignment_file =
    match load "network" network_file Netdiv_core.Serial.network_of_string with
    | Error msg -> `Error (false, msg)
    | Ok net -> (
        match
          load "assignment" assignment_file
            (Netdiv_core.Serial.assignment_of_string net)
        with
        | Error msg -> `Error (false, msg)
        | Ok a ->
            let encoded = Encode.encode net [] in
            Format.printf "network:    %a@." Network.pp net;
            Format.printf "energy:     %.6f@."
              (Encode.assignment_energy encoded a);
            Format.printf "cross-edge similarity: %.6f@."
              (Assignment.pairwise_energy a);
            let optimal = Optimize.run net [] in
            Format.printf
              "optimizer reaches:     %.6f (bound %.6f)@."
              optimal.Optimize.energy optimal.Optimize.lower_bound;
            `Ok ())
  in
  let doc = "score a saved assignment against its network file" in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(ret (const run $ network_file $ assignment_file))

(* ------------------------------------------------------------------ lint *)

let lint_cmd =
  let paths =
    Arg.(value & pos_all string [ "lib"; "bin" ]
         & info [] ~docv:"PATH"
             ~doc:"Files or directories to lint (default: lib bin).")
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list-rules" ] ~doc:"Print the shipped rules and exit.")
  in
  let format =
    Arg.(value & opt string "text"
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let explain =
    Arg.(value & opt (some string) None
         & info [ "explain" ] ~docv:"SYMBOL"
             ~doc:"Print the witness call chain(s) behind the taint \
                   findings on SYMBOL (qualified name or suffix).")
  in
  let refs =
    Arg.(value & opt_all string []
         & info [ "refs" ] ~docv:"DIR"
             ~doc:"Extra reference roots whose uses count for \
                   unused-export but are not themselves linted \
                   (default: test bench examples tools perfbench \
                   siblings of the first path).")
  in
  (* exit codes are part of the contract (cram-tested): 0 clean, 1
     findings, 2 usage error — so errors print to stderr and
     exit directly instead of going through cmdliner's `Error (124). *)
  let usage_error fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "netdiv: %s@." msg;
        exit 2)
      fmt
  in
  let run list_rules format explain refs paths =
    let module Lint = Netdiv_lint.Lint in
    if list_rules then begin
      List.iter
        (fun (id, descr) -> Format.printf "%-24s %s@." id descr)
        Lint.rules;
      `Ok ()
    end
    else begin
      if format <> "text" && format <> "json" then
        usage_error "unknown --format %S (expected text or json)" format;
      (match List.filter (fun p -> not (Sys.file_exists p)) paths with
      | missing :: _ -> usage_error "no such file or directory: %s" missing
      | [] -> ());
      let ref_paths =
        match refs with [] -> Lint.default_ref_paths paths | l -> l
      in
      let report = Lint.analyze_paths ~ref_paths paths in
      match explain with
      | Some sym -> (
          match Lint.explain report sym with
          | [] ->
              usage_error
                "no finding with a witness chain matches %S (chains exist \
                 only for unsuppressed interprocedural findings)"
                sym
          | fs ->
              List.iter
                (fun (f : Lint.finding) ->
                  Format.printf "%a@.%a" Lint.pp_finding f Lint.pp_chain
                    f.Lint.chain)
                fs;
              `Ok ())
      | None ->
          let findings = report.Lint.r_findings in
          (match format with
          | "json" -> print_string (Lint.report_to_json report)
          | _ ->
              List.iter
                (fun f -> Format.printf "%a@." Lint.pp_finding f)
                findings;
              if findings <> [] then
                Format.printf "%d finding(s)@." (List.length findings));
          if findings <> [] then exit 1;
          `Ok ()
    end
  in
  let doc =
    "statically check the sources for concurrency/determinism hazards"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the netdiv-lint surface rules (spawn-outside-pool, \
         toplevel-mutable-state, nondeterminism-source, \
         direct-clock-in-instrumented-code, list-nth-in-loop, \
         missing-mli, printf-in-lib, swallowed-exception, \
         float-equality-in-kernel) and the interprocedural rules \
         (nondet-taint, impure-in-parallel-region, unused-export) over \
         the given paths.  A finding is accepted only by an inline \
         suppression with a written reason \
         ($(b,(* netdiv-lint: allow <rule> — <reason> *))).";
      `P
        "Exit codes: 0 when clean, 1 when findings remain, 2 on usage \
         errors.";
    ]
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(
      ret
        (const run $ list_rules $ format $ explain $ refs $ paths))

(* ------------------------------------------------------------------ rank *)

let rank_cmd =
  let entry =
    Arg.(value & opt string "c4"
         & info [ "entry" ] ~docv:"HOST" ~doc:"Attack entry host.")
  in
  let assignment =
    Arg.(value & opt string "optimal"
         & info [ "assignment" ] ~docv:"NAME"
             ~doc:"One of: optimal, host-constr, product-constr, random, mono.")
  in
  let samples =
    Arg.(value & opt int 50_000 & info [ "samples" ] ~doc:"BN samples.")
  in
  let top = Arg.(value & opt int 15 & info [ "top" ] ~doc:"Rows to print.") in
  let run entry assignment samples top =
    let net = Products.network () in
    let a = Experiments.compute_assignments net in
    match
      ( List.assoc_opt assignment (Experiments.labelled a),
        Network.find_host net entry )
    with
    | Some chosen, Some entry_h ->
        let marginals =
          Netdiv_bayes.Attack_bn.host_marginals ~samples chosen
            ~entry:entry_h ~model:Netdiv_bayes.Attack_bn.Uniform_choice
        in
        let zone h =
          let name = Network.host_name net h in
          match
            List.find_opt
              (fun (_, members) -> List.mem name members)
              Topology.zones
          with
          | Some (zone, _) -> zone
          | None -> "?"
        in
        let rows = Array.to_list marginals in
        let sorted =
          List.sort (fun (_, p) (_, q) -> compare q p) rows
        in
        Format.printf
          "host compromise risk under %s (entry %s, %d samples):@."
          assignment entry samples;
        Format.printf "%-6s %-12s %10s@." "host" "zone" "P(comp.)";
        List.iteri
          (fun i (h, p) ->
            if i < top then
              Format.printf "%-6s %-12s %10.5f@."
                (Network.host_name net h) (zone h) p)
          sorted;
        `Ok ()
    | None, _ -> `Error (false, "unknown assignment")
    | _, None -> `Error (false, "unknown entry host")
  in
  let doc = "rank case-study hosts by compromise probability" in
  Cmd.v
    (Cmd.info "rank" ~doc)
    Term.(ret (const run $ entry $ assignment $ samples $ top))

(* ---------------------------------------------------------------- export *)

let export_cmd =
  let network_out =
    Arg.(value & opt (some string) None
         & info [ "network" ] ~docv:"FILE"
             ~doc:"Write the case-study network as JSON.")
  in
  let assignment_out =
    Arg.(value & opt (some string) None
         & info [ "assignment" ] ~docv:"FILE"
             ~doc:"Write the optimal assignment as JSON.")
  in
  let feed_out =
    Arg.(value & opt (some string) None
         & info [ "feed" ] ~docv:"FILE"
             ~doc:"Write the synthetic OS corpus as an NVD JSON feed.")
  in
  let dot_out =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Write the optimal assignment as a Graphviz DOT graph.")
  in
  let write path contents =
    match Netdiv_fault.Io.write_atomic ~path contents with
    | Ok () -> Format.printf "wrote %s@." path
    | Error msg -> Format.eprintf "netdiv: could not write %s: %s@." path msg
  in
  let run network_out assignment_out feed_out dot_out =
    let net = Products.network () in
    Option.iter
      (fun path ->
        write path (Netdiv_core.Serial.network_to_string ~pretty:true net))
      network_out;
    Option.iter
      (fun path ->
        let report = Optimize.run net [] in
        write path
          (Netdiv_core.Serial.assignment_to_string ~pretty:true
             report.Optimize.assignment))
      assignment_out;
    Option.iter
      (fun path ->
        write path
          (Netdiv_vuln.Feed.to_string ~pretty:true
             (Corpus.synthesize Corpus.os_spec)))
      feed_out;
    Option.iter
      (fun path ->
        let report = Optimize.run net [] in
        write path
          (Netdiv_core.Viz.assignment_dot
             ~entry:(Topology.host "c4")
             ~target:(Topology.host Topology.target)
             report.Optimize.assignment))
      dot_out
  in
  let doc = "export the case study (network, assignment, synthetic feed) as JSON" in
  Cmd.v
    (Cmd.info "export" ~doc)
    Term.(const run $ network_out $ assignment_out $ feed_out $ dot_out)

(* ----------------------------------------------------------- scalability *)

let scalability_cmd =
  let sweep =
    Arg.(value & opt string "hosts"
         & info [ "sweep" ] ~docv:"DIM" ~doc:"Dimension: hosts, degree or services.")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ] ~doc:"Run the paper's full parameter ranges.")
  in
  let hosts_arg =
    Arg.(value & opt (some int) None
         & info [ "hosts" ] ~docv:"N"
             ~doc:
               "Solve one zoned instance of $(docv) hosts instead of \
                sweeping: the instance is streamed zone-by-zone into the \
                compact MRF encoder and solved by block-coordinate zone \
                decomposition.  This is the 100k-host entry point; it \
                rejects $(b,--time-budget).")
  in
  let zones_arg =
    Arg.(value & opt (some int) None
         & info [ "zones" ] ~docv:"Z"
             ~doc:
               "Zone count for $(b,--hosts) mode (default: one zone per \
                1000 hosts, at least one).")
  in
  let mem_budget_arg =
    Arg.(value & opt (some float) None
         & info [ "mem-budget" ] ~docv:"MIB"
             ~doc:
               "Fail fast before any allocation when the predicted peak \
                model+solver footprint of $(b,--hosts) mode exceeds \
                $(docv) mebibytes.")
  in
  let run sweep full hosts zones mem_budget time_budget jobs flight trace
      metrics =
    with_obs ~trace ~metrics @@ fun () ->
    with_flight_record ~flight @@ fun () ->
    let jobs = jobs_of jobs in
    let time_one hosts degree services =
      let net =
        Workload.instance
          { hosts; degree; services; products_per_service = 4; seed = 1 }
      in
      let (_ : Optimize.report) =
        Optimize.run ?budget:time_budget ?jobs net []
      in
      let t0 = Obs.Clock.now () in
      let report = Optimize.run ?budget:time_budget ?jobs net [] in
      let elapsed = Obs.Clock.now () -. t0 in
      let marker =
        if Runner.outcome_converged report.Optimize.outcome then ""
        else
          Format.asprintf "  (%a)" Runner.pp_outcome
            report.Optimize.outcome
      in
      (elapsed, marker)
    in
    let row label hosts degree services =
      let t, marker = time_one hosts degree services in
      Format.printf "%6d %8.3f%s@." label t marker
    in
    let hosts_mode n =
      if n < 1 then `Error (false, "netdiv scalability: --hosts must be >= 1")
      else if Option.is_some time_budget then
        `Error
          ( false,
            "netdiv scalability: --time-budget is not supported with \
             --hosts; the zoned solve runs unbudgeted" )
      else begin
        let z = match zones with Some z -> z | None -> max 1 (n / 1000) in
        if z < 1 then
          `Error (false, "netdiv scalability: --zones must be >= 1")
        else begin
          let p =
            { Workload.default_zoned with z_hosts = n; z_zones = min z n }
          in
          Format.printf "# %a@." Workload.pp_zoned_params p;
          let words = Workload.estimate_zoned_words p in
          let mib w = float_of_int (w * 8) /. (1024. *. 1024.) in
          match mem_budget with
          | Some cap when mib words > cap ->
              `Error
                ( false,
                  Format.asprintf
                    "netdiv scalability: predicted footprint %.1f MiB (%d \
                     words: compact model + message slabs for %d \
                     variables across %d zones) exceeds --mem-budget \
                     %.1f MiB; nothing was allocated.  Raise the budget \
                     or lower --hosts."
                    (mib words) words
                    (n * p.Workload.z_services)
                    p.Workload.z_zones cap )
          | _ ->
              let t0 = Obs.Clock.now () in
              let model, zone_of = Workload.stream_zoned p in
              let gen_s = Obs.Clock.now () -. t0 in
              let fp = Mrf.footprint model in
              Format.printf "%a@." Mrf.pp_footprint fp;
              let t1 = Obs.Clock.now () in
              let result = Trws.solve ~zone_of ?jobs model in
              let solve_s = Obs.Clock.now () -. t1 in
              let gap =
                (result.Solver.energy -. result.Solver.lower_bound)
                /. Float.max 1.0 (Float.abs result.Solver.energy)
              in
              Format.printf
                "energy %a  bound %a  gap %.2e  rounds %d%s@.generate \
                 %.3fs  solve %.3fs  words/host %.1f@."
                Solver.pp_float result.Solver.energy Solver.pp_float
                result.Solver.lower_bound gap result.Solver.iterations
                (if result.Solver.converged then "" else "  (not converged)")
                gen_s solve_s
                (float_of_int fp.Mrf.f_words /. float_of_int n);
              `Ok ()
        end
      end
    in
    match hosts with
    | Some n -> hosts_mode n
    | None ->
    (match sweep with
    | "hosts" ->
        let sizes =
          if full then [ 100; 200; 400; 600; 800; 1000; 2000; 4000; 6000 ]
          else [ 100; 200; 400; 800; 1000 ]
        in
        Format.printf "# hosts (degree 20, 15 services): time in seconds@.";
        List.iter (fun n -> row n n 20 15) sizes
    | "degree" ->
        let degrees =
          if full then [ 5; 10; 15; 20; 25; 30; 35; 40; 45; 50 ]
          else [ 5; 10; 20; 30 ]
        in
        Format.printf "# degree (1000 hosts, 15 services): time in seconds@.";
        List.iter (fun d -> row d 1000 d 15) degrees
    | "services" ->
        let services =
          if full then [ 5; 10; 15; 20; 25; 30 ] else [ 5; 10; 15 ]
        in
        Format.printf "# services (1000 hosts, degree 20): time in seconds@.";
        List.iter (fun s -> row s 1000 20 s) services
    | other -> Format.printf "unknown sweep dimension %S@." other);
    `Ok ()
  in
  let doc = "runtime sweeps over random networks (paper Tables VII-IX)" in
  Cmd.v
    (Cmd.info "scalability" ~doc)
    Term.(
      ret
        (const run $ sweep $ full $ hosts_arg $ zones_arg $ mem_budget_arg
       $ time_budget_arg $ jobs_arg $ flight_record_arg $ trace_arg
       $ metrics_arg))

(* ---------------------------------------------------------------- report *)

let report_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Flight-recorder dump written by $(b,--flight-record), or a \
             trace file written by $(b,--trace) (Chrome JSON or .jsonl).")
  in
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K" ~doc:"Rows in the hot-span table.")
  in
  let run file top =
    match Result.bind (Netdiv_fault.Io.read_file file) decode_events with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" file msg)
    | Ok (format, header, events) ->
        Option.iter
          (fun h ->
            let field conv pp k =
              Option.fold ~none:"?" ~some:pp
                (Option.bind (Json.member k h) conv)
            in
            let str = field Json.to_str Fun.id in
            let int = field Json.to_float (Printf.sprintf "%.0f") in
            Format.printf "recorder %s@.reason   %s@." (str "name")
              (str "reason");
            Format.printf "events   %s recorded, capacity %s, %s dropped@."
              (int "recorded") (int "capacity") (int "dropped"))
          header;
        Format.printf "%a@." (Obs_report.pp ~top ~format) events;
        `Ok ()
  in
  let doc =
    "validate a trace or flight-recorder dump and render its convergence \
     and profiling report"
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(ret (const run $ file $ top))

let main =
  let doc =
    "optimal network diversification for ICS resilience (DSN 2020 \
     reproduction)"
  in
  Cmd.group
    (Cmd.info "netdiv" ~version:"1.0.0" ~doc)
    [ similarity_cmd; optimize_cmd; casestudy_cmd; simulate_cmd;
      scalability_cmd; metrics_cmd; feed_cmd; export_cmd; rank_cmd;
      verify_cmd; lint_cmd; report_cmd ]

let () = exit (Cmd.eval main)
