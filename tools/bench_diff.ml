(* bench_diff: guard the benchmark metrics that this repository treats
   as performance contracts.

     dune exec tools/bench_diff.exe -- BASELINE.json FRESH.json

   Reads two BENCH.json reports (via the shared Bench_json scanner),
   compares the watched metrics and exits nonzero when the fresh run
   regresses beyond the tolerance (default 25%, override with
   NETDIV_BENCH_TOL, e.g. 0.10).  Watched:

   - [scalability_speedup.solve_1j_s]: the serial solve of the smoke
     instance — the paper's headline scalability cost (lower is better);
   - [observability_overhead.solve_off_s]: the same solve with the
     Netdiv_obs instrumentation compiled in but disabled — this is the
     cross-commit form of the "tracing off costs <= 3%" contract (the
     in-process form lives in bench/main.ml itself);
   - [recorder_overhead.solve_off_s], plus an absolute (baseline-free)
     gate on [recorder_overhead.overhead_on_pct]: a solve with the
     convergence flight recorder installed stays within 3% of the
     recorder-free time;
   - [lint_analysis.lint_full_s]: the whole-repo interprocedural effect
     analysis (lower is better), fingerprinted by the number of
     analyzed bindings — the workload is the repository itself;
   - [hierarchical_scale.solve_s] and [hierarchical_scale.words_per_host]:
     the zoned 100k-tier solve time and the compact model's memory
     density (both lower is better) — the storage contract of the CSR
     refactor;
   - [interning_memory.words_per_host]: the same density on the classic
     1,000-host encoding.

   When both reports carry a watched timing's [_med_s] variance-band
   sibling (bench/main.ml emits min/median/max of the timing cycles),
   the medians are compared instead of the best-of headline numbers —
   the median resists single-cycle scheduler noise.

   Metrics missing from the baseline are reported informationally and
   never fail: that is how a new metric enters the history.  Each
   watched section also carries a workload fingerprint (the solver
   energy for the scalability instance, the edge count for the
   interning instance): when the fingerprint differs between the two
   reports the workload itself was redefined, timings are incomparable,
   and the section is skipped with a note instead of failing — the
   commit that redefines a benchmark is the new baseline.  tools/
   check.sh snapshots each fresh report into bench_history/ so local
   regressions can be bisected by timestamp (tools/bench_page renders
   that history as a static trend page). *)

module J = Bench_json

let tolerance =
  match Sys.getenv_opt "NETDIV_BENCH_TOL" with
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some t when t > 0.0 && Float.is_finite t -> t
      | _ ->
          prerr_endline "bench_diff: ignoring malformed NETDIV_BENCH_TOL";
          0.25)
  | None -> 0.25

let ends_with suffix s =
  let ls = String.length s and lf = String.length suffix in
  ls >= lf && String.sub s (ls - lf) lf = suffix

(* (section, metric) pairs to guard, each lower-is-better.  [wall_s] is
   the section's own wall clock (instance construction included) —
   never a watched timing. *)
let watched =
  [ ("scalability_speedup", "solve_1j_s");
    ("intra_component_speedup", "solve_1j_s");
    ("observability_overhead", "solve_off_s");
    ("recorder_overhead", "solve_off_s");
    ("fault_overhead", "solve_off_s");
    ("lint_analysis", "lint_full_s");
    ("hierarchical_scale", "solve_s");
    ("hierarchical_scale", "words_per_host");
    ("interning_memory", "words_per_host") ]

(* Workload fingerprint per watched section: if this metric differs
   between baseline and fresh, the benchmark's instance was redefined
   and its timings are incomparable. *)
let fingerprint = function
  | "scalability_speedup" -> Some "solver_energy"
  | "intra_component_speedup" -> Some "solver_energy"
  | "observability_overhead" -> Some "solver_energy"
  | "recorder_overhead" -> Some "solver_energy"
  | "fault_overhead" -> Some "solver_energy"
  (* the smoke and full tiers run different zoned instances; the solver
     energy separates them *)
  | "hierarchical_scale" -> Some "solver_energy"
  | "interning_memory" -> Some "edges"
  (* the lint workload is the repository itself: a commit that changes
     the number of analyzed bindings redefined the benchmark *)
  | "lint_analysis" -> Some "lint_bindings"
  | _ -> None

let workload_changed baseline fresh sec =
  match fingerprint sec with
  | None -> None
  | Some key -> (
      match (J.find baseline sec key, J.find fresh sec key) with
      | Some b, Some f when b <> f -> Some (key, b, f)
      | _ -> None)

let () =
  let baseline_path, fresh_path =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
        prerr_endline "usage: bench_diff BASELINE.json FRESH.json";
        exit 2
  in
  let baseline = J.parse_sections (J.read_file baseline_path) in
  let fresh = J.parse_sections (J.read_file fresh_path) in
  if fresh = [] then begin
    Printf.eprintf "bench_diff: no sections found in %s\n" fresh_path;
    exit 2
  end;
  let regressions = ref 0 in
  Printf.printf "bench_diff: tolerance %.0f%% (baseline %s)\n"
    (100.0 *. tolerance) baseline_path;
  let skipped = Hashtbl.create 4 in
  List.iter
    (fun (sec, key) ->
      match workload_changed baseline fresh sec with
      | Some (fp, b, f) ->
          if not (Hashtbl.mem skipped sec) then begin
            Hashtbl.replace skipped sec ();
            Printf.printf
              "  skip    %s.* (workload redefined: %s %g -> %g; fresh run \
               is the new baseline)\n"
              sec fp b f
          end
      | None -> (
      (* when both runs carry the _med_s variance-band sibling of a
         watched timing, compare the medians: the median of the cycle
         array moves with real regressions but not with a single
         scheduler hiccup the min/best-of would also absorb *)
      let key =
        if not (ends_with "_s" key) then key
        else
          let med = String.sub key 0 (String.length key - 2) ^ "_med_s" in
          if
            Option.is_some (J.find baseline sec med)
            && Option.is_some (J.find fresh sec med)
          then med
          else key
      in
      match (J.find baseline sec key, J.find fresh sec key) with
      | _, None -> ()
      | None, Some f ->
          Printf.printf "  new     %s.%s = %g (no baseline)\n" sec key f
      | Some b, Some f ->
          let ratio = if b = 0.0 then 1.0 else f /. b in
          let bad = ratio > 1.0 +. tolerance in
          Printf.printf "  %s %s.%s: %g -> %g (%+.1f%%)\n"
            (if bad then "REGRESS" else "ok     ")
            sec key b f
            (100.0 *. (ratio -. 1.0));
          if bad then incr regressions))
    watched;
  (* absolute contract, independent of any baseline: a solve with the
     flight recorder installed stays within 3% of the recorder-free
     time (bench/main.ml enforces the same bound in-process) *)
  (match J.find fresh "recorder_overhead" "overhead_on_pct" with
  | Some pct when pct > 3.0 ->
      Printf.printf "  REGRESS recorder_overhead.overhead_on_pct = %.1f%% \
                     (> 3%% absolute budget)\n" pct;
      incr regressions
  | Some pct ->
      Printf.printf "  ok      recorder_overhead.overhead_on_pct = %.1f%% \
                     (<= 3%% absolute budget)\n" pct
  | None -> ());
  if !regressions > 0 then begin
    Printf.printf "bench_diff: %d metric(s) regressed beyond %.0f%%\n"
      !regressions (100.0 *. tolerance);
    exit 1
  end;
  print_endline "bench_diff: no regressions"
