(* Tests for Netdiv_obs: span nesting/ordering, the disabled fast path,
   histogram bucket edges, Chrome-trace/JSONL validity via the in-repo
   JSON parser, per-domain buffer merging under the pool sanitizer, and
   the runner's stage-timing histograms. *)

module Obs = Netdiv_obs.Obs
module Export = Netdiv_obs.Export
module Json = Netdiv_vuln.Json
module Pool = Netdiv_par.Pool

open Netdiv_mrf

(* every test owns the global registries: start clean, leave disabled *)
let scoped f () =
  Obs.set_enabled false;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let kind_label = function
  | Obs.Begin -> "B"
  | Obs.End -> "E"
  | Obs.Instant -> "i"
  | Obs.Sample -> "C"

let pp_event ppf (e : Obs.event) =
  Format.fprintf ppf "%s:%s" (kind_label e.Obs.kind) e.Obs.name

let shape events = List.map (Format.asprintf "%a" pp_event) events

(* ------------------------------------------------------ span ordering *)

let test_span_nesting () =
  Obs.set_enabled true;
  let r =
    Obs.span ~name:"outer" (fun () ->
        Obs.instant "mark";
        Obs.span ~name:"inner" (fun () -> 7))
  in
  Alcotest.(check int) "span returns the body's value" 7 r;
  let events = Obs.events () in
  Alcotest.(check (list string))
    "nested begin/end order"
    [ "B:outer"; "i:mark"; "B:inner"; "E:inner"; "E:outer" ]
    (shape events);
  let ts = List.map (fun (e : Obs.event) -> e.Obs.ts) events in
  Alcotest.(check bool)
    "timestamps are non-decreasing" true
    (List.sort compare ts = ts);
  Alcotest.(check int)
    "single-domain run uses one buffer" 1
    (List.length
       (List.sort_uniq compare
          (List.map (fun (e : Obs.event) -> e.Obs.tid) events)))

let test_span_exception_safe () =
  Obs.set_enabled true;
  (try Obs.span ~name:"boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  Alcotest.(check (list string))
    "the End event survives the raise"
    [ "B:boom"; "E:boom" ]
    (shape (Obs.events ()))

let test_disabled_is_silent () =
  Alcotest.(check bool) "flag starts off" false (Obs.enabled ());
  Obs.span ~name:"quiet" (fun () -> ());
  Obs.begin_span "quiet";
  Obs.end_span "quiet";
  Obs.instant "quiet";
  Obs.sample ~name:"quiet" 1.0;
  let c = Obs.Counter.make "test.off_counter" in
  Obs.Counter.add c 5;
  let h = Obs.Histogram.make "test.off_hist" in
  Obs.Histogram.record h 1.0;
  Alcotest.(check (list string)) "no events recorded" [] (shape (Obs.events ()));
  Alcotest.(check int) "counter unchanged" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram unchanged" 0 (Obs.Histogram.count h)

(* ------------------------------------------------------------ metrics *)

let test_counter_gauge () =
  Obs.set_enabled true;
  let c = Obs.Counter.make "test.counter" in
  Alcotest.(check bool)
    "make is get-or-create" true
    (c == Obs.Counter.make "test.counter");
  Obs.Counter.add c 3;
  Obs.Counter.incr c;
  Alcotest.(check int) "counter accumulates" 4 (Obs.Counter.value c);
  let g = Obs.Gauge.make "test.gauge" in
  Alcotest.(check bool)
    "gauge starts nan" true
    (Float.is_nan (Obs.Gauge.value g));
  Obs.Gauge.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge stores" 2.5 (Obs.Gauge.value g);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Obs.Counter.value c);
  Alcotest.(check bool)
    "reset clears gauges" true
    (Float.is_nan (Obs.Gauge.value g))

let test_histogram_buckets () =
  let base = Obs.Histogram.base in
  let checks =
    [
      ("zero", 0.0, 0);
      ("negative", -1.0, 0);
      ("nan", Float.nan, 0);
      ("below base", base /. 2.0, 0);
      ("base lands in bucket 1", base, 1);
      ("inside bucket 1", base *. 1.5, 1);
      ("next power of two opens bucket 2", base *. 2.0, 2);
      ("bucket 3", base *. 4.0, 3);
      ("overflow clamps to the last bucket", 1e30, Obs.Histogram.n_buckets - 1);
    ]
  in
  List.iter
    (fun (msg, v, expect) ->
      Alcotest.(check int) msg expect (Obs.Histogram.bucket_of v))
    checks;
  (* lower edges are exact powers of two over the base *)
  Alcotest.(check (float 0.0)) "bucket 0 lower" 0.0 (Obs.Histogram.bucket_lower 0);
  Alcotest.(check (float 0.0)) "bucket 1 lower" base (Obs.Histogram.bucket_lower 1);
  Alcotest.(check (float 0.0))
    "bucket 4 lower" (base *. 8.0)
    (Obs.Histogram.bucket_lower 4);
  (* every recorded value lands in the bucket whose edges contain it *)
  Obs.set_enabled true;
  let h = Obs.Histogram.make "test.hist" in
  List.iter (fun (_, v, _) -> Obs.Histogram.record h v) checks;
  Alcotest.(check int) "count tracks records" (List.length checks)
    (Obs.Histogram.count h);
  let buckets = Obs.Histogram.buckets h in
  List.iter
    (fun (msg, _, expect) ->
      Alcotest.(check bool) (msg ^ ": bucket populated") true
        (buckets.(expect) > 0))
    checks

(* -------------------------------------------------- export round-trip *)

let record_sample_trace () =
  Obs.set_enabled true;
  Obs.span ~name:"solve" (fun () ->
      Obs.span ~name:"sweep" (fun () -> Obs.sample ~name:"energy" 12.5);
      Obs.span ~name:"sweep" (fun () ->
          Obs.sample ~name:"energy" neg_infinity);
      Obs.instant "converged")

let test_chrome_round_trip () =
  record_sample_trace ();
  let events = Obs.events () in
  let json =
    match Json.parse (Export.chrome_string ()) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "chrome trace does not parse: %s" msg
  in
  let trace_events =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents list"
  in
  Alcotest.(check int)
    "one trace object per recorded event"
    (List.length events)
    (List.length trace_events);
  (* rebased timestamps start at zero and every object is well-formed *)
  List.iteri
    (fun i ev ->
      let str field = Option.bind (Json.member field ev) Json.to_str in
      let num field = Option.bind (Json.member field ev) Json.to_float in
      (match (str "name", str "ph", num "ts", num "pid", num "tid") with
      | Some _, Some ph, Some ts, Some _, Some _ ->
          Alcotest.(check bool)
            (Printf.sprintf "event %d has a known phase" i)
            true
            (List.mem ph [ "B"; "E"; "i"; "C" ]);
          Alcotest.(check bool)
            (Printf.sprintf "event %d timestamp rebased" i)
            true (ts >= 0.0)
      | _ -> Alcotest.failf "event %d lacks a required field" i))
    trace_events;
  (* the non-finite sample value survived as a JSON string *)
  let carries_string_value ev =
    match Json.path [ "args"; "value" ] ev with
    | Some (Json.String _) -> true
    | _ -> false
  in
  Alcotest.(check bool)
    "non-finite sample exported as a string" true
    (List.exists carries_string_value trace_events)

let test_jsonl_round_trip () =
  record_sample_trace ();
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Export.jsonl_string ()))
  in
  Alcotest.(check int)
    "one line per event"
    (List.length (Obs.events ()))
    (List.length lines);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "line %d does not parse: %s" i msg)
    lines

let test_span_rollup () =
  record_sample_trace ();
  let rollup = Export.span_rollup (Obs.events ()) in
  let count name =
    match List.find_opt (fun (n, _, _, _) -> n = name) rollup with
    | Some (_, c, _, _) -> c
    | None -> 0
  in
  Alcotest.(check int) "two sweep spans" 2 (count "sweep");
  Alcotest.(check int) "one solve span" 1 (count "solve");
  List.iter
    (fun (name, _, total, mx) ->
      Alcotest.(check bool) (name ^ ": max <= total") true (mx <= total +. 1e-12))
    rollup

(* ------------------------------------- per-domain buffers + sanitizer *)

let test_parallel_merge () =
  Obs.set_enabled true;
  Pool.set_sanitize (Some true);
  Fun.protect ~finally:(fun () -> Pool.set_sanitize None) @@ fun () ->
  let n = 200 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~jobs:4 ~lo:0 ~hi:n (fun i ->
      Obs.begin_span "work";
      hits.(i) <- hits.(i) + 1;
      Obs.end_span "work");
  Alcotest.(check bool)
    "sanitizer saw every index exactly once" true
    (Array.for_all (fun h -> h = 1) hits);
  let events = Obs.events () in
  let count k name =
    List.length
      (List.filter
         (fun (e : Obs.event) -> e.Obs.kind = k && e.Obs.name = name)
         events)
  in
  Alcotest.(check int) "every index opened a work span" n (count Obs.Begin "work");
  Alcotest.(check int) "every work span closed" n (count Obs.End "work");
  Alcotest.(check int) "one region span" 1 (count Obs.Begin "pool.region");
  Alcotest.(check bool)
    "chunk spans recorded" true
    (count Obs.Begin "pool.chunk" >= 1);
  (* within each buffer, begin/end pairs are balanced and never go
     negative — the per-domain recording order is preserved by the merge *)
  let tids =
    List.sort_uniq compare (List.map (fun (e : Obs.event) -> e.Obs.tid) events)
  in
  List.iter
    (fun tid ->
      let depth = ref 0 in
      List.iter
        (fun (e : Obs.event) ->
          if e.Obs.tid = tid && e.Obs.name = "work" then begin
            (match e.Obs.kind with
            | Obs.Begin -> incr depth
            | Obs.End -> decr depth
            | _ -> ());
            if !depth < 0 then
              Alcotest.failf "tid %d: end before begin after merging" tid
          end)
        events;
      Alcotest.(check int)
        (Printf.sprintf "tid %d: balanced spans" tid)
        0 !depth)
    tids;
  (* pool telemetry fired: chunks dispatched and busy time recorded *)
  Alcotest.(check bool)
    "pool.chunks counter counts dispatches" true
    (Obs.Counter.value (Obs.Counter.make "pool.chunks") >= 1);
  Alcotest.(check bool)
    "chunk busy-time histogram populated" true
    (Obs.Histogram.count (Obs.Histogram.make "pool.chunk_busy_s") >= 1)

(* the merged name multiset is independent of the job count *)
let test_merge_deterministic_across_jobs () =
  Obs.set_enabled true;
  Pool.set_sanitize (Some true);
  Fun.protect ~finally:(fun () -> Pool.set_sanitize None) @@ fun () ->
  let run jobs =
    Obs.reset ();
    Pool.parallel_for ~jobs ~lo:0 ~hi:64 (fun i ->
        Obs.span ~name:(Printf.sprintf "item%d" (i mod 4)) (fun () -> ()));
    (* the pool's own chunk spans scale with the job count by design;
       the caller-visible spans must not *)
    List.sort compare
      (List.filter
         (fun s -> not (String.length s > 6 && String.sub s 2 4 = "pool"))
         (shape (Obs.events ())))
  in
  let serial = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list string))
        (Printf.sprintf "event multiset identical at %d jobs" jobs)
        serial (run jobs))
    [ 2; 4 ]

(* ------------------------------------------------- runner integration *)

let tiny_mrf () =
  let rng = Random.State.make [| 11 |] in
  let k = 3 in
  let n = 8 in
  let b = Mrf.Builder.create ~label_counts:(Array.make n k) in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init k (fun _ -> Random.State.float rng 1.0))
  done;
  for u = 0 to n - 2 do
    Mrf.Builder.add_edge b u (u + 1)
      (Array.init (k * k) (fun _ -> Random.State.float rng 1.0))
  done;
  Mrf.Builder.build b

let test_runner_stage_metrics () =
  Obs.set_enabled true;
  let mrf = tiny_mrf () in
  let report =
    Runner.run
      ~budget:30.0
      ~stages:[ Runner.trws () ]
      mrf
  in
  (* the stage timing list and the histogram come from one measurement *)
  Alcotest.(check int)
    "stage_timings still populated" 1
    (List.length report.Runner.stage_timings);
  let h = Obs.Histogram.make "runner.stage.trws" in
  Alcotest.(check int) "stage histogram recorded once" 1 (Obs.Histogram.count h);
  let _, elapsed = List.hd report.Runner.stage_timings in
  Alcotest.(check bool)
    "histogram sum matches the reported timing" true
    (abs_float (Obs.Histogram.sum h -. elapsed) < 1e-9);
  (* the stage solve appears as a span *)
  Alcotest.(check bool)
    "runner stage span present" true
    (List.mem "B:runner.stage:trws" (shape (Obs.events ())))

(* --------------------------------------------------- flight recorder *)

module Recorder = Netdiv_obs.Recorder
module Obs_report = Netdiv_obs.Report
module Fault = Netdiv_fault.Fault

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_recorder_ring_wraparound () =
  let r = Recorder.create ~capacity:4 "ring" in
  Recorder.with_recorder r (fun () ->
      for i = 0 to 9 do
        Recorder.sweep ~iter:i ~energy:(float_of_int i) ~bound:0.0
          ~residual:0.0 ~msg_potts:i ~msg_sparse:0 ~msg_generic:0
      done);
  Alcotest.(check string) "name round-trips" "ring" (Recorder.name r);
  Alcotest.(check int) "capacity round-trips" 4 (Recorder.capacity r);
  Alcotest.(check int) "recorded counts every frame" 10 (Recorder.recorded r);
  Alcotest.(check int) "dropped = recorded - capacity" 6 (Recorder.dropped r);
  let iters =
    List.filter_map
      (function Recorder.Sweep s -> Some s.Recorder.s_iter | _ -> None)
      (Recorder.frames r)
  in
  Alcotest.(check (list int))
    "last capacity frames survive, oldest first" [ 6; 7; 8; 9 ] iters;
  (* capacity is clamped, never zero *)
  let tiny = Recorder.create ~capacity:0 "tiny" in
  Recorder.with_recorder tiny (fun () ->
      Recorder.mark "a";
      Recorder.mark "b");
  Alcotest.(check int) "clamped capacity retains one frame" 1
    (List.length (Recorder.frames tiny))

let test_recorder_install_and_suspend () =
  let r = Recorder.create "inst" in
  Recorder.mark "outside";
  Alcotest.(check int) "record is a no-op without installation" 0
    (Recorder.recorded r);
  Recorder.with_recorder r (fun () ->
      Alcotest.(check bool) "installed inside" true (Recorder.installed ());
      Recorder.mark "inside";
      Recorder.suspended (fun () ->
          Alcotest.(check bool) "blank under suspended" false
            (Recorder.installed ());
          Recorder.mark "suppressed"));
  Alcotest.(check bool) "uninstalled after" false (Recorder.installed ());
  (try Recorder.with_recorder r (fun () -> failwith "expected") with
  | Failure _ -> ());
  Alcotest.(check bool) "uninstalled after a raise" false
    (Recorder.installed ());
  Alcotest.(check int) "only the installed mark was recorded" 1
    (Recorder.recorded r)

let test_recorder_dump_parses () =
  let r = Recorder.create ~capacity:8 "dump" in
  Recorder.with_recorder r (fun () ->
      Recorder.mark "stage:trws";
      Recorder.sweep ~iter:1 ~energy:3.5 ~bound:neg_infinity ~residual:0.25
        ~msg_potts:10 ~msg_sparse:4 ~msg_generic:0;
      Recorder.zone ~round:1 ~zone:0 ~energy:2.0 ~bound:1.0 ~iterations:7
        ~converged:true;
      Recorder.boundary ~round:1 ~disagree:3 ~edge_bound:(-0.5)
        ~zone_bound:1.5 ~step:0.25);
  let json =
    match Json.parse (Recorder.dump_string ~reason:"unit" r) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "dump does not parse: %s" msg
  in
  Alcotest.(check (option string))
    "reason field" (Some "unit")
    (Option.bind (Json.member "reason" json) Json.to_str);
  Alcotest.(check (option (float 0.0)))
    "version marker" (Some 1.0)
    (Option.bind (Json.member "netdiv_recorder" json) Json.to_float);
  let frames =
    match Option.bind (Json.member "frames" json) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no frames list"
  in
  Alcotest.(check int) "one object per frame" 4 (List.length frames);
  let kinds =
    List.filter_map (fun f -> Option.bind (Json.member "k" f) Json.to_str)
      frames
  in
  Alcotest.(check (list string))
    "frame kinds in record order"
    [ "mark"; "sweep"; "zone"; "boundary" ]
    kinds;
  (* the non-finite bound crossed the JSON boundary as a string *)
  let sweep = List.nth frames 1 in
  (match Json.member "bound" sweep with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "non-finite bound not serialized as a string");
  (* a dump with neither path nor dump_path is Ok and writes nothing *)
  (match Recorder.dump ~reason:"nowhere" r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "pathless dump failed: %s" msg);
  Alcotest.(check (option string))
    "pathless dump does not count as written" None (Recorder.last_dump r)

let test_recorder_dump_on_degradation () =
  let path = Filename.temp_file "netdiv_rec" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r = Recorder.create ~dump_path:path "degrade" in
  Fault.set_spec (Some "runner.stage@0,runner.stage@1,runner.stage@2");
  Fault.reset ();
  let report =
    Fun.protect
      ~finally:(fun () ->
        Fault.set_spec None;
        Fault.reset ())
      (fun () ->
        Recorder.with_recorder r (fun () ->
            Runner.run
              ~budget:30.0
              ~stages:[ Runner.trws () ]
              (tiny_mrf ())))
  in
  (match report.Runner.outcome with
  | Runner.Degraded _ -> ()
  | o ->
      Alcotest.failf "expected a degraded outcome, got %a" Runner.pp_outcome o);
  (* the runner dumped the black box, first on degradation and finally
     with the run's outcome as the reason *)
  (match Recorder.last_dump r with
  | Some reason ->
      Alcotest.(check bool)
        "last dump carries the degraded outcome" true
        (String.length reason >= 8 && String.sub reason 0 8 = "degraded")
  | None -> Alcotest.fail "no dump was written");
  let json =
    match Json.parse (read_file path) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "on-disk dump does not parse: %s" msg
  in
  let labels =
    match Option.bind (Json.member "frames" json) Json.to_list with
    | Some frames ->
        List.filter_map
          (fun f -> Option.bind (Json.member "label" f) Json.to_str)
          frames
    | None -> Alcotest.fail "on-disk dump has no frames"
  in
  Alcotest.(check bool)
    "degradation mark present" true
    (List.exists
       (fun l ->
         String.length l >= 8 && String.sub l 0 8 = "degrade:")
       labels);
  Alcotest.(check bool)
    "retry marks present" true
    (List.exists
       (fun l -> String.length l >= 6 && String.sub l 0 6 = "retry:")
       labels)

(* two 4-node chains and an isolated node: three components, so
   [Trws.solve ~jobs] exercises the suspended parallel region and the
   deterministic per-component zone frames *)
let components_mrf () =
  let b = Mrf.Builder.create ~label_counts:(Array.make 9 3) in
  let rng = Random.State.make [| 77 |] in
  for i = 0 to 8 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init 3 (fun _ -> Random.State.float rng 1.0))
  done;
  List.iter
    (fun (u, v) ->
      Mrf.Builder.add_edge b u v
        (Array.init 9 (fun _ -> Random.State.float rng 1.0)))
    [ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6); (6, 7) ];
  Mrf.Builder.build b

let test_recorder_parallel_sanitized () =
  Pool.set_sanitize (Some true);
  Fun.protect ~finally:(fun () -> Pool.set_sanitize None) @@ fun () ->
  let m = components_mrf () in
  let plain = Trws.solve ~jobs:2 m in
  let r = Recorder.create "par" in
  let recorded =
    Recorder.with_recorder r (fun () -> Trws.solve ~jobs:2 m)
  in
  (* the recorder must not perturb the solve: bitwise-identical result *)
  Alcotest.(check bool) "energy bitwise with recorder" true
    (plain.Solver.energy = recorded.Solver.energy);
  Alcotest.(check bool) "bound bitwise with recorder" true
    (plain.Solver.lower_bound = recorded.Solver.lower_bound);
  Alcotest.(check (array int))
    "labeling with recorder" plain.Solver.labeling recorded.Solver.labeling;
  (* orchestrator frames: one zone frame per component, a boundary frame
     and the summary sweep, recorded after the suspended parallel
     region *)
  let frames = Recorder.frames r in
  let zones =
    List.filter_map
      (function Recorder.Zone z -> Some z.Recorder.z_zone | _ -> None)
      frames
  in
  Alcotest.(check (list int)) "one frame per component, in order"
    [ 0; 1; 2 ] zones;
  Alcotest.(check (list int)) "one boundary frame, nothing to reconcile"
    [ 0 ]
    (List.filter_map
       (function Recorder.Boundary b -> Some b.Recorder.b_disagree | _ -> None)
       frames);
  Alcotest.(check int) "one summary sweep frame" 1
    (List.length
       (List.filter
          (function Recorder.Sweep _ -> true | _ -> false)
          frames))

let test_recorder_report_analysis () =
  let r = Recorder.create "an" in
  Recorder.with_recorder r (fun () ->
      Recorder.zone ~round:1 ~zone:0 ~energy:10.0 ~bound:9.0 ~iterations:5
        ~converged:true;
      Recorder.zone ~round:1 ~zone:1 ~energy:20.0 ~bound:12.0 ~iterations:5
        ~converged:false;
      Recorder.boundary ~round:1 ~disagree:4 ~edge_bound:(-1.0)
        ~zone_bound:21.0 ~step:0.5;
      Recorder.sweep ~iter:1 ~energy:30.0 ~bound:20.0 ~residual:1.0
        ~msg_potts:0 ~msg_sparse:0 ~msg_generic:0;
      Recorder.zone ~round:2 ~zone:0 ~energy:10.0 ~bound:9.5 ~iterations:3
        ~converged:true;
      Recorder.zone ~round:2 ~zone:1 ~energy:18.0 ~bound:13.0 ~iterations:4
        ~converged:true;
      Recorder.boundary ~round:2 ~disagree:0 ~edge_bound:(-0.5)
        ~zone_bound:23.0 ~step:0.25;
      Recorder.sweep ~iter:2 ~energy:28.0 ~bound:22.5 ~residual:0.5
        ~msg_potts:0 ~msg_sparse:0 ~msg_generic:0);
  let frames = Recorder.frames r in
  (* zone attribution keeps only the last round, sorted by gap *)
  let attr = Obs_report.zone_attribution frames in
  Alcotest.(check (list int))
    "last-round zones, widest gap first" [ 1; 0 ]
    (List.map (fun (z : Obs_report.zone_gap) -> z.Obs_report.z_zone) attr);
  Alcotest.(check (float 1e-9)) "gap of the top zone" 5.0
    (List.hd attr).Obs_report.z_gap;
  (* all boundary edges agreed in the final round *)
  Alcotest.(check string)
    "reconciled diagnosis"
    "zones agree on every boundary edge (primal/dual reconciled)"
    (Obs_report.diagnose frames);
  (* the renderer is a pure function of the frames *)
  let render () = Format.asprintf "%a" Obs_report.pp_convergence frames in
  Alcotest.(check string) "rendering is deterministic" (render ()) (render ());
  (* milestone table finds the first sweep at or under each threshold *)
  let ms = Obs_report.gap_milestones frames in
  Alcotest.(check bool) "50% milestone reached" true
    (List.exists (fun m -> m.Obs_report.m_gap_pct = 50.0) ms);
  Alcotest.(check bool) "0.1% milestone not reached" true
    (not (List.exists (fun m -> m.Obs_report.m_gap_pct = 0.1) ms))

let () =
  Alcotest.run "netdiv_obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick
            (scoped test_span_nesting);
          Alcotest.test_case "exception safety" `Quick
            (scoped test_span_exception_safe);
          Alcotest.test_case "disabled path records nothing" `Quick
            (scoped test_disabled_is_silent);
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick
            (scoped test_counter_gauge);
          Alcotest.test_case "histogram bucket edges" `Quick
            (scoped test_histogram_buckets);
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace round-trip" `Quick
            (scoped test_chrome_round_trip);
          Alcotest.test_case "jsonl round-trip" `Quick
            (scoped test_jsonl_round_trip);
          Alcotest.test_case "span rollup" `Quick (scoped test_span_rollup);
        ] );
      ( "parallel",
        [
          Alcotest.test_case "per-domain merge under sanitizer" `Quick
            (scoped test_parallel_merge);
          Alcotest.test_case "merge deterministic across jobs" `Quick
            (scoped test_merge_deterministic_across_jobs);
        ] );
      ( "runner",
        [
          Alcotest.test_case "stage timings via registry" `Quick
            (scoped test_runner_stage_metrics);
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring wraparound" `Quick
            (scoped test_recorder_ring_wraparound);
          Alcotest.test_case "installation and suspension" `Quick
            (scoped test_recorder_install_and_suspend);
          Alcotest.test_case "dump round-trip" `Quick
            (scoped test_recorder_dump_parses);
          Alcotest.test_case "dump on runner degradation" `Quick
            (scoped test_recorder_dump_on_degradation);
          Alcotest.test_case "parallel recording under sanitizer" `Quick
            (scoped test_recorder_parallel_sanitized);
          Alcotest.test_case "report analyses" `Quick
            (scoped test_recorder_report_analysis);
        ] );
    ]
