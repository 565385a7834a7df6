(* Tests for Netdiv_obs: span nesting/ordering, the disabled fast path,
   histogram bucket edges, Chrome-trace/JSONL validity via the in-repo
   JSON parser, per-domain buffer merging under the pool sanitizer, the
   runner's stage-timing histograms, and the flight recorder as a
   bounded sink of the same event stream, with the report over it. *)

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

let test_counters () =
  Obs.set_enabled true;
  let c = Obs.Counter.make "test.counter" in
  Alcotest.(check bool)
    "make is get-or-create" true
    (c == Obs.Counter.make "test.counter");
  Obs.Counter.add c 3;
  Obs.Counter.incr c;
  Alcotest.(check int) "counter accumulates" 4 (Obs.Counter.value c);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Obs.Counter.value c)

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

let names events = List.map (fun (e : Obs.event) -> e.Obs.name) events

let non_empty_lines s =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)

let test_recorder_ring_wraparound () =
  let r = Recorder.create ~capacity:4 "ring" in
  Recorder.with_recorder r (fun () ->
      for i = 0 to 9 do
        Obs.sample ~name:"it" (float_of_int i)
      done);
  Alcotest.(check string) "name round-trips" "ring" (Recorder.name r);
  Alcotest.(check int) "capacity round-trips" 4 (Recorder.capacity r);
  Alcotest.(check int) "recorded counts every event" 10 (Recorder.recorded r);
  Alcotest.(check int) "dropped = recorded - capacity" 6 (Recorder.dropped r);
  Alcotest.(check (list (float 0.0)))
    "last capacity events survive, oldest first" [ 6.0; 7.0; 8.0; 9.0 ]
    (List.map (fun (e : Obs.event) -> e.Obs.value) (Recorder.events r));
  (* capacity is clamped, never zero *)
  let tiny = Recorder.create ~capacity:0 "tiny" in
  Recorder.with_recorder tiny (fun () ->
      Obs.instant "a";
      Obs.instant "b");
  Alcotest.(check (list string)) "clamped capacity retains one event" [ "b" ]
    (names (Recorder.events tiny))

let installed_is r =
  match Recorder.current () with Some c -> c == r | None -> false

let test_recorder_install_and_suspend () =
  let r = Recorder.create "inst" in
  Obs.instant "outside";
  Alcotest.(check int) "record is a no-op without installation" 0
    (Recorder.recorded r);
  Recorder.with_recorder r (fun () ->
      Alcotest.(check bool) "installed inside" true (installed_is r);
      Obs.instant "inside";
      Recorder.suspended (fun () ->
          Alcotest.(check bool) "blank under suspended" true
            (Recorder.current () = None);
          Obs.instant "suppressed"));
  Alcotest.(check bool) "uninstalled after" true (Recorder.current () = None);
  (try Recorder.with_recorder r (fun () -> failwith "expected") with
  | Failure _ -> ());
  Alcotest.(check bool) "uninstalled after a raise" true
    (Recorder.current () = None);
  Alcotest.(check (list string)) "only the installed event was recorded"
    [ "inside" ] (names (Recorder.events r));
  (* tracing stayed off: the ring is the only sink that saw the event *)
  Alcotest.(check (list string)) "trace buffers untouched" []
    (shape (Obs.events ()))

let test_recorder_dump_parses () =
  let r = Recorder.create ~capacity:8 "dump" in
  Recorder.with_recorder r (fun () ->
      Obs.instant "stage:trws";
      Obs.span ~name:"trws.solve" (fun () ->
          Obs.sample ~name:"trws.lower_bound" neg_infinity));
  let parse line =
    match Json.parse line with
    | Ok j -> j
    | Error msg -> Alcotest.failf "dump line does not parse: %s" msg
  in
  let header, events =
    let dump = Recorder.dump_string ~reason:"unit" r in
    match List.map parse (non_empty_lines dump) with
    | h :: evs -> (h, evs)
    | [] -> Alcotest.fail "empty dump"
  in
  Alcotest.(check (option string))
    "reason field" (Some "unit")
    (Option.bind (Json.member "reason" header) Json.to_str);
  Alcotest.(check (option (float 0.0)))
    "version marker" (Some 2.0)
    (Option.bind (Json.member "netdiv_recorder" header) Json.to_float);
  Alcotest.(check (option (float 0.0)))
    "recorded count" (Some 4.0)
    (Option.bind (Json.member "recorded" header) Json.to_float);
  Alcotest.(check (list string))
    "events in record order, in the trace shape" [ "i"; "B"; "C"; "E" ]
    (List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.to_str)
       events);
  (* the non-finite bound crossed the JSON boundary as a string *)
  (match Json.path [ "args"; "value" ] (List.nth events 2) with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "non-finite sample not serialized as a string");
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
        (String.starts_with ~prefix:"degraded" reason)
  | None -> Alcotest.fail "no dump was written");
  let marks =
    List.filter_map
      (fun line ->
        match Json.parse line with
        | Ok j when Option.bind (Json.member "ph" j) Json.to_str = Some "i" ->
            Option.bind (Json.member "name" j) Json.to_str
        | Ok _ -> None
        | Error msg -> Alcotest.failf "on-disk dump does not parse: %s" msg)
      (List.tl (non_empty_lines (read_file path)))
  in
  Alcotest.(check bool)
    "degradation mark present" true
    (List.exists (String.starts_with ~prefix:"degrade:") marks);
  Alcotest.(check bool)
    "retry marks present" true
    (List.exists (String.starts_with ~prefix:"retry:") marks)

(* two 4-node chains and an isolated node: three components, so
   [Trws.solve ~jobs] exercises the pool region and the deterministic
   per-component zone samples *)
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

let sample_values name events =
  List.filter_map
    (fun (e : Obs.event) ->
      if e.Obs.kind = Obs.Sample && e.Obs.name = name then Some e.Obs.value
      else None)
    events

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
  (* orchestrator samples only: one zone triple per component, one
     boundary round and the round summary, recorded after the pool
     region; the zone solves inside it never reach the ring *)
  let events = Recorder.events r in
  Alcotest.(check (list string)) "one energy sample per component, in order"
    [ "trws.zone.0.energy"; "trws.zone.1.energy"; "trws.zone.2.energy" ]
    (List.filter
       (fun n ->
         String.starts_with ~prefix:"trws.zone." n
         && String.ends_with ~suffix:".energy" n)
       (names events));
  Alcotest.(check (list (float 0.0))) "one boundary round, nothing to reconcile"
    [ 0.0 ]
    (sample_values "trws.boundary.disagree" events);
  Alcotest.(check int) "one round summary" 1
    (List.length (sample_values "trws.zoned.energy" events));
  Alcotest.(check (list (float 0.0))) "no zone-solve sweep reached the ring" []
    (sample_values "trws.iter" events)

(* pool regions never reach the ring, inline (jobs 1) or dispatched *)
let test_recorder_pool_regions () =
  List.iter
    (fun jobs ->
      let r = Recorder.create "pool" in
      Recorder.with_recorder r (fun () ->
          Obs.instant "before";
          let body i = Obs.sample ~name:"body" (float_of_int i) in
          Pool.parallel_for ~jobs ~lo:0 ~hi:16 body;
          ignore (Pool.map_range ~jobs ~lo:0 ~hi:4 (fun i -> body i; i));
          ignore
            (Pool.map_reduce ~jobs ?chunks:None ?cost:None ~lo:0 ~hi:4
               ~map:(fun i -> body i; i)
               ~reduce:( + ) ~init:0);
          let team = Pool.Team.create ~jobs () in
          Fun.protect
            ~finally:(fun () -> Pool.Team.stop team)
            (fun () ->
              Pool.Team.run team ~chunks:4 ~lo:0 ~hi:8 (fun _ lo _ -> body lo));
          Obs.instant "after");
      Alcotest.(check (list string))
        (Printf.sprintf "only the caller's events at %d jobs" jobs)
        [ "before"; "after" ]
        (names (Recorder.events r)))
    [ 1; 2 ]

(* One zoned round as the zoned schedule emits it. *)
let zoned_round ~round ~zones ~disagree ~zone_bound ~edge_bound ~step ~energy
    ~bound =
  Obs.sample ~name:"trws.zoned.round" (float_of_int round);
  List.iter
    (fun (z, e, b, c) ->
      let name field = Printf.sprintf "trws.zone.%d.%s" z field in
      Obs.sample ~name:(name "energy") e;
      Obs.sample ~name:(name "bound") b;
      Obs.sample ~name:(name "converged") (if c then 1.0 else 0.0))
    zones;
  Obs.sample ~name:"trws.boundary.disagree" (float_of_int disagree);
  Obs.sample ~name:"trws.boundary.zone_bound" zone_bound;
  Obs.sample ~name:"trws.boundary.edge_bound" edge_bound;
  Obs.sample ~name:"trws.boundary.step" step;
  Obs.sample ~name:"trws.zoned.energy" energy;
  Obs.sample ~name:"trws.zoned.lower_bound" bound

(* (round, disagree) of the rendered boundary-reconciliation rows: the
   only rendered rows whose first two fields are integers *)
let boundary_rows events =
  List.filter_map
    (fun l ->
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | [ round; disagree; _; _; _ ] -> (
          match (int_of_string_opt round, int_of_string_opt disagree) with
          | Some round, Some disagree -> Some (round, disagree)
          | _ -> None)
      | _ -> None)
    (String.split_on_char '\n'
       (Format.asprintf "%a" Obs_report.pp_convergence events))

let recorded_events f =
  let r = Recorder.create "an" in
  Recorder.with_recorder r f;
  Recorder.events r

let test_recorder_report_analysis () =
  let events =
    recorded_events (fun () ->
        Obs.span ~name:"trws.zoned" (fun () ->
            zoned_round ~round:1
              ~zones:[ (0, 10.0, 9.0, true); (1, 20.0, 12.0, false) ]
              ~disagree:4 ~zone_bound:21.0 ~edge_bound:(-1.0) ~step:0.5
              ~energy:30.0 ~bound:20.0;
            zoned_round ~round:2
              ~zones:[ (0, 10.0, 9.5, true); (1, 18.0, 13.0, true) ]
              ~disagree:0 ~zone_bound:23.0 ~edge_bound:(-0.5) ~step:0.25
              ~energy:28.0 ~bound:22.5))
  in
  (* zone attribution keeps only the last round, sorted by gap *)
  let attr = Obs_report.zone_attribution events in
  Alcotest.(check (list int))
    "last-round zones, widest gap first" [ 1; 0 ]
    (List.map (fun (z : Obs_report.zone_gap) -> z.Obs_report.z_zone) attr);
  Alcotest.(check (float 1e-9)) "gap of the top zone" 5.0
    (List.hd attr).Obs_report.z_gap;
  (* all boundary edges agreed in the final round *)
  Alcotest.(check string)
    "reconciled diagnosis"
    "zones agree on every boundary edge (primal/dual reconciled)"
    (Obs_report.diagnose events);
  (* the renderer is a pure function of the events *)
  let render () = Format.asprintf "%a" Obs_report.pp_convergence events in
  Alcotest.(check string) "rendering is deterministic" (render ()) (render ());
  (* milestone table finds the first evaluation at or under each
     threshold *)
  let ms = Obs_report.gap_milestones events in
  Alcotest.(check bool) "50% milestone reached" true
    (List.exists (fun m -> m.Obs_report.m_gap_pct = 50.0) ms);
  Alcotest.(check bool) "0.1% milestone not reached" true
    (not (List.exists (fun m -> m.Obs_report.m_gap_pct = 0.1) ms));
  (* a solver without a dual bound is judged by its energy alone *)
  let bp =
    recorded_events (fun () ->
        Obs.span ~name:"bp.solve" (fun () ->
            List.iteri
              (fun i e ->
                Obs.sample ~name:"bp.iter" (float_of_int (i + 1));
                Obs.sample ~name:"bp.energy" e;
                Obs.sample ~name:"bp.delta" 0.0)
              [ 3.0; 2.5; 2.5 ]))
  in
  Alcotest.(check string) "bound-free diagnosis"
    "no dual bound: best energy 2.500000 after 3 evaluations"
    (Obs_report.diagnose bp)

(* the report describes the last solve only, never a mix of several *)
let test_recorder_report_last_solve () =
  let events =
    recorded_events (fun () ->
        Obs.span ~name:"trws.zoned" (fun () ->
            zoned_round ~round:1
              ~zones:
                [ (0, 5.0, 1.0, true); (1, 5.0, 1.0, true); (2, 9.0, 1.0, true) ]
              ~disagree:3 ~zone_bound:3.0 ~edge_bound:0.0 ~step:0.25
              ~energy:19.0 ~bound:3.0);
        Obs.span ~name:"trws.zoned" (fun () ->
            zoned_round ~round:1
              ~zones:[ (0, 4.0, 3.0, true); (1, 6.0, 4.0, false) ]
              ~disagree:0 ~zone_bound:7.0 ~edge_bound:0.0 ~step:0.25
              ~energy:10.0 ~bound:7.0))
  in
  Alcotest.(check (list int))
    "only the second solve's zones" [ 1; 0 ]
    (List.map
       (fun (z : Obs_report.zone_gap) -> z.Obs_report.z_zone)
       (Obs_report.zone_attribution events));
  Alcotest.(check string)
    "diagnosis from the second solve's boundary"
    "zones agree on every boundary edge (primal/dual reconciled)"
    (Obs_report.diagnose events);
  Alcotest.(check (list (pair int int)))
    "one boundary row" [ (1, 0) ] (boundary_rows events)

(* a wrapped ring keeps the solver's own round and iteration numbers *)
let test_recorder_wrap_keeps_numbers () =
  let r = Recorder.create ~capacity:12 "flat" in
  Recorder.with_recorder r (fun () ->
      for it = 1 to 10 do
        Obs.sample ~name:"trws.iter" (float_of_int it);
        Obs.sample ~name:"trws.energy" 100.0;
        Obs.sample ~name:"trws.lower_bound"
          (100.0 -. (100.0 /. float_of_int it))
      done);
  Alcotest.(check int) "the ring wrapped" 18 (Recorder.dropped r);
  Alcotest.(check (list int))
    "milestone iterations are the solver's" [ 7; 7; 10 ]
    (List.map
       (fun m -> m.Obs_report.m_iter)
       (Obs_report.gap_milestones (Recorder.events r)));
  (* 8 rounds of 13 events; 50 slots cut into round 5 *)
  let r = Recorder.create ~capacity:50 "zoned" in
  Recorder.with_recorder r (fun () ->
      for round = 1 to 8 do
        zoned_round ~round
          ~zones:[ (0, 2.0, 1.0, true); (1, 3.0, 1.0, false) ]
          ~disagree:(9 - round) ~zone_bound:2.0 ~edge_bound:0.0 ~step:0.25
          ~energy:5.0 ~bound:2.0
      done);
  Alcotest.(check (list (pair int int)))
    "boundary rows keep their round numbers" [ (6, 3); (7, 2); (8, 1) ]
    (boundary_rows (Recorder.events r))

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
          Alcotest.test_case "counters" `Quick (scoped test_counters);
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
          Alcotest.test_case "pool regions never reach the ring" `Quick
            (scoped test_recorder_pool_regions);
          Alcotest.test_case "report analyses" `Quick
            (scoped test_recorder_report_analysis);
          Alcotest.test_case "report describes the last solve" `Quick
            (scoped test_recorder_report_last_solve);
          Alcotest.test_case "wrapped ring keeps round numbers" `Quick
            (scoped test_recorder_wrap_keeps_numbers);
        ] );
    ]
