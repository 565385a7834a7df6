(* Tests for Netdiv_obs: span nesting/ordering, the disabled fast path,
   Chrome-trace/JSONL validity via the in-repo JSON parser, per-domain
   buffer merging under the pool sanitizer, the events the pool, the
   runner and SA emit, and the flight recorder as a bounded sink of the
   same event stream, with the report over it. *)

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
  Alcotest.(check (list string)) "no events recorded" [] (shape (Obs.events ()))

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
  (* every dispatched chunk is one closed span, whose duration is the
     chunk's busy time *)
  let chunks = count Obs.Begin "pool.chunk" in
  Alcotest.(check int) "every chunk span closed" chunks
    (count Obs.End "pool.chunk");
  match
    List.find_opt
      (fun (name, _, _, _) -> name = "pool.chunk")
      (Export.span_rollup events)
  with
  | Some (_, n, total, _) ->
      Alcotest.(check int) "chunk busy times pair up" chunks n;
      Alcotest.(check bool) "chunk busy time is non-negative" true
        (total >= 0.0)
  | None -> Alcotest.fail "no chunk busy time recorded"

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

let test_runner_stage_spans () =
  Obs.set_enabled true;
  let mrf = tiny_mrf () in
  let report =
    Runner.run
      ~budget:30.0
      ~stage:(Runner.trws ())
      mrf
  in
  Alcotest.(check int)
    "stage_timings still populated" 1
    (List.length report.Runner.stage_timings);
  (* the stage solve is one span, inside the interval the reported
     stage timing measures *)
  let _, elapsed = List.hd report.Runner.stage_timings in
  match
    List.filter
      (fun (name, _, _, _) -> name = "runner.stage:trws")
      (Export.span_rollup (Obs.events ()))
  with
  | [ (_, n, total, _) ] ->
      Alcotest.(check int) "stage span recorded once" 1 n;
      Alcotest.(check bool)
        "stage span lies within the reported timing" true
        (total <= elapsed +. 1e-9)
  | _ -> Alcotest.fail "no runner.stage:trws span"

(* ------------------------------------------------- emitted events *)

module Recorder = Netdiv_obs.Recorder
module Fault = Netdiv_fault.Fault

let sample_values name events =
  List.filter_map
    (fun (e : Obs.event) ->
      if e.Obs.kind = Obs.Sample && e.Obs.name = name then Some e.Obs.value
      else None)
    events

(* Injected chunk crashes and the region's GC deltas are events inside
   the region: a trace sees them, an installed recorder never does. *)
let test_pool_region_events () =
  Obs.set_enabled true;
  Fault.set_spec (Some "rate=1.0,only=pool.chunk");
  Fault.reset ();
  Fun.protect
    ~finally:(fun () ->
      Fault.set_spec None;
      Fault.reset ())
  @@ fun () ->
  let r = Recorder.create "pool" in
  let out =
    Recorder.with_recorder r (fun () ->
        Pool.map_range ~jobs:2 ~lo:0 ~hi:64 (fun i -> i * i))
  in
  Alcotest.(check (array int))
    "recovered region returns the fault-free result"
    (Array.init 64 (fun i -> i * i))
    out;
  let events = Obs.events () in
  let instants name =
    List.length
      (List.filter
         (fun (e : Obs.event) -> e.Obs.kind = Obs.Instant && e.Obs.name = name)
         events)
  in
  let faults = instants "pool.chunk_fault" in
  Alcotest.(check bool) "chunk faults recorded" true (faults >= 1);
  Alcotest.(check int) "every faulted chunk recovered" faults
    (instants "pool.chunk_recovered");
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ ": one sample for the region")
        1
        (List.length (sample_values name events)))
    [ "pool.gc_minor"; "pool.gc_major"; "pool.gc_minor_words";
      "pool.gc_major_words" ];
  Alcotest.(check (list string))
    "none of the region's events reach the ring" []
    (List.map (fun (e : Obs.event) -> e.Obs.name) (Recorder.events r))

(* A triangle whose messages never leave zero: four labels in two
   families, uniform unaries, and one table that costs 1 for equal
   labels, 0.5 within a family and nothing across families, so every
   update's reduction input is flat and every message stays zero.  The
   greedy decode pays 0.5 above the bound of 0 and never moves, so the
   solve stalls at iteration 4. *)
let zero_message_mrf () =
  let family l = l / 2 in
  let b = Mrf.Builder.create ~label_counts:(Array.make 3 4) in
  let table =
    Array.init 16 (fun c ->
        let a = c / 4 and l = c mod 4 in
        if a = l then 1.0 else if family a = family l then 0.5 else 0.0)
  in
  List.iter (fun (u, v) -> Mrf.Builder.add_edge b u v table)
    [ (0, 1); (0, 2); (1, 2) ];
  Mrf.Builder.build b

(* TRW-S samples once per solve the message updates its sweeps
   computed.  On the chain every message leaves zero in the first sweep
   pair and the bound certifies there: both directed messages of its 7
   edges, once.  On the triangle the first sweep pair computes both
   directed messages of its 3 edges, changes none, and the three
   iterations after it compute nothing. *)
let test_message_census () =
  Obs.set_enabled true;
  List.iter
    (fun (what, mrf, iterations, messages) ->
      Obs.reset ();
      let r = Trws.solve mrf in
      Alcotest.(check int) (what ^ " iterations") iterations
        r.Solver.iterations;
      Alcotest.(check (list (float 0.0)))
        (what ^ " mrf.messages = computed updates")
        [ messages ]
        (sample_values "mrf.messages" (Obs.events ())))
    [ ("chain", tiny_mrf (), 1, 14.0);
      ("zero messages", zero_message_mrf (), 4, 6.0) ]

(* SA samples its acceptance tallies once per restart. *)
let test_sa_restart_samples () =
  Obs.set_enabled true;
  let restarts = 3 in
  ignore
    (Sa.solve
       ~config:{ Sa.default_config with restarts; domains = 1 }
       (tiny_mrf ()));
  let events = Obs.events () in
  let proposals = sample_values "sa.proposals" events
  and accepts = sample_values "sa.accepts" events in
  Alcotest.(check int) "one proposals sample per restart" restarts
    (List.length proposals);
  Alcotest.(check int) "one accepts sample per restart" restarts
    (List.length accepts);
  List.iter2
    (fun p a ->
      Alcotest.(check bool) "0 <= accepts <= proposals" true
        (0.0 <= a && a <= p))
    proposals accepts

(* --------------------------------------------------- flight recorder *)

module Obs_report = Netdiv_obs.Report

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
              ~stage:(Runner.trws ())
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
  let sa =
    recorded_events (fun () ->
        Obs.span ~name:"sa.solve" (fun () ->
            List.iteri
              (fun i e ->
                Obs.sample ~name:"sa.iter" (float_of_int (i + 1));
                Obs.sample ~name:"sa.energy" e)
              [ 3.0; 2.5; 2.5 ]))
  in
  Alcotest.(check string) "bound-free diagnosis"
    "no dual bound: best energy 2.500000 after 3 evaluations"
    (Obs_report.diagnose sa)

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
          Alcotest.test_case "stage timings via spans" `Quick
            (scoped test_runner_stage_spans);
        ] );
      ( "events",
        [
          Alcotest.test_case "pool region faults and gc samples" `Quick
            (scoped test_pool_region_events);
          Alcotest.test_case "sa samples per restart" `Quick
            (scoped test_sa_restart_samples);
          Alcotest.test_case "message census samples" `Quick
            (scoped test_message_census);
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
