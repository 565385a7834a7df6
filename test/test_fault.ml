(* Tests for the deterministic fault-injection layer and the recovery
   paths built on it: spec parsing, pure-function decisions and replay,
   pool chunk-crash recovery (plain and sanitized), the runner's
   retry/degradation ladder, atomic I/O under injected write faults,
   checkpoint serialization, and checkpoint/resume through Optimize.

   Ordering note: [runner.stage] keys on a process-global attempt
   counter, so the runner test registers before any other test that
   runs the harness with injection enabled. *)

module Fault = Netdiv_fault.Fault
module Io = Netdiv_fault.Io
module Obs = Netdiv_obs.Obs
module Pool = Netdiv_par.Pool
open Netdiv_mrf
module Optimize = Netdiv_core.Optimize
module Serial = Netdiv_core.Serial
module Workload = Netdiv_workload.Workload

(* Run [f] under spec [s], always restoring the no-injection default and
   clearing the firing record afterwards. *)
let with_spec s f =
  Fault.set_spec (Some s);
  Fault.reset ();
  Fun.protect
    ~finally:(fun () ->
      Fault.set_spec (Some "");
      Fault.reset ())
    f

let rng seed = Random.State.make [| seed |]

let random_mrf rng n k p =
  let b = Mrf.Builder.create ~label_counts:(Array.make n k) in
  for i = 0 to n - 1 do
    Mrf.Builder.set_unary b ~node:i
      (Array.init k (fun _ -> Random.State.float rng 1.0))
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then
        Mrf.Builder.add_edge b u v
          (Array.init (k * k) (fun _ -> Random.State.float rng 1.0))
    done
  done;
  Mrf.Builder.build b

let temp_file () = Filename.temp_file "netdiv_fault" ".json"

(* ------------------------------------------------------- spec parsing *)

let test_spec_parsing () =
  List.iter
    (fun s ->
      match Fault.parse_spec_errors s with
      | None -> ()
      | Some msg -> Alcotest.failf "spec %S should parse, got: %s" s msg)
    [
      ""; "rate=0.5"; "seed=7,rate=0.25,only=pool.,stall=5";
      "pool.chunk@4097;io.fsync@0"; " rate=1.0 , runner.stage@3 ";
    ];
  List.iter
    (fun s ->
      match Fault.parse_spec_errors s with
      | Some _ -> ()
      | None -> Alcotest.failf "spec %S should be rejected" s)
    [ "rate=lots"; "rate=2.0"; "frobnicate"; "@3"; "seed=xyz"; "stall=-1" ];
  (* the test hook fails loudly on a typo *)
  (match Fault.set_spec (Some "rate=banana") with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "set_spec must reject a malformed spec");
  Alcotest.(check bool) "empty spec disables" false
    (with_spec "" (fun () -> Fault.enabled ()));
  Alcotest.(check bool) "rate spec enables" true
    (with_spec "rate=0.1" (fun () -> Fault.enabled ()));
  Alcotest.(check bool) "entry spec enables" true
    (with_spec "x@0" (fun () -> Fault.enabled ()))

(* --------------------------------------- decisions, fire-once, replay *)

let test_decisions () =
  let p = Fault.point "test.det" in
  Alcotest.(check string) "point name" "test.det" (Fault.point_name p);
  let draws () = List.init 64 (fun k -> Fault.should_fail ~key:k p) in
  let d1 =
    with_spec "seed=3,rate=0.5,only=test.det" (fun () -> draws ())
  in
  let d2 =
    with_spec "seed=3,rate=0.5,only=test.det" (fun () -> draws ())
  in
  Alcotest.(check (list bool)) "same spec, same decisions" d1 d2;
  Alcotest.(check bool) "some keys fire at rate 0.5" true
    (List.mem true d1);
  Alcotest.(check bool) "some keys pass at rate 0.5" true
    (List.mem false d1);
  let d3 =
    with_spec "seed=4,rate=0.5,only=test.det" (fun () -> draws ())
  in
  if d1 = d3 then Alcotest.fail "seed must change the decision set";
  (* the only= prefix filter really filters *)
  let d4 =
    with_spec "seed=3,rate=0.5,only=other." (fun () -> draws ())
  in
  Alcotest.(check (list bool)) "prefix-filtered point never fires"
    (List.init 64 (fun _ -> false))
    d4

let test_fire_once () =
  let p = Fault.point "test.once" in
  with_spec "test.once@5" (fun () ->
      Alcotest.(check bool) "other key passes" false
        (Fault.should_fail ~key:4 p);
      Alcotest.(check bool) "scheduled key fires" true
        (Fault.should_fail ~key:5 p);
      Alcotest.(check bool) "same key fires at most once" false
        (Fault.should_fail ~key:5 p);
      Alcotest.(check (list (pair string int))) "firing recorded"
        [ ("test.once", 5) ]
        (Fault.fired ());
      Alcotest.(check int) "fired_count" 1 (Fault.fired_count ());
      Alcotest.(check string) "fired_spec renders the schedule"
        "test.once@5" (Fault.fired_spec ());
      (* check raises exactly the recorded failure *)
      Fault.reset ();
      match Fault.check ~key:5 p with
      | exception Fault.Injected ("test.once", 5) -> ()
      | () -> Alcotest.fail "check must raise on a scheduled key")

let test_replay () =
  let p = Fault.point "test.replay" in
  let schedule, first =
    with_spec "seed=11,rate=0.3,only=test.replay" (fun () ->
        for k = 0 to 31 do
          ignore (Fault.should_fail ~key:k p)
        done;
        (Fault.fired_spec (), Fault.fired ()))
  in
  if first = [] then Alcotest.fail "rate 0.3 over 32 keys must fire";
  let second =
    with_spec schedule (fun () ->
        for k = 0 to 31 do
          ignore (Fault.should_fail ~key:k p)
        done;
        Fault.fired ())
  in
  Alcotest.(check (list (pair string int)))
    "replaying fired_spec reproduces the firing record" first second

(* ------------------------------------------------- pool chunk recovery *)

let test_pool_recovery () =
  let f i = (i * i) + (i mod 7) in
  let expected = Pool.map_range ~jobs:4 ~chunks:8 ~lo:0 ~hi:512 f in
  let faulty, fired =
    with_spec "rate=1.0,only=pool.chunk" (fun () ->
        let a = Pool.map_range ~jobs:4 ~chunks:8 ~lo:0 ~hi:512 f in
        (a, Fault.fired_count ()))
  in
  Alcotest.(check (array int))
    "every chunk crashed; recovery reproduces the fault-free result"
    expected faulty;
  Alcotest.(check bool) "chunks actually crashed" true (fired > 0);
  let sum_expected =
    Pool.map_reduce ?cost:None ~jobs:4 ~chunks:8 ~lo:0 ~hi:512 ~map:f ~reduce:( + )
      ~init:0
  in
  let sum_faulty =
    with_spec "rate=1.0,only=pool.chunk" (fun () ->
        Pool.map_reduce ?cost:None ~jobs:4 ~chunks:8 ~lo:0 ~hi:512 ~map:f ~reduce:( + )
          ~init:0)
  in
  Alcotest.(check int) "map_reduce recovers crashed chunks" sum_expected
    sum_faulty

let test_pool_recovery_sanitized () =
  let f i = (i * 3) lxor (i lsr 2) in
  let expected = Pool.map_range ~jobs:4 ~chunks:8 ~lo:0 ~hi:256 f in
  Pool.set_sanitize (Some true);
  Fun.protect
    ~finally:(fun () -> Pool.set_sanitize None)
    (fun () ->
      let faulty =
        with_spec "rate=1.0,only=pool.chunk" (fun () ->
            Pool.map_range ~jobs:4 ~chunks:8 ~lo:0 ~hi:256 f)
      in
      Alcotest.(check (array int))
        "recovery agrees with the race sanitizer" expected faulty)

let test_pool_alloc_fault () =
  (* allocation failure has no recovery story: it surfaces to the caller
     as the injected exception *)
  with_spec "rate=1.0,only=pool.alloc" (fun () ->
      match Pool.map_range ~jobs:2 ~lo:0 ~hi:64 (fun i -> i) with
      | _ -> Alcotest.fail "pool.alloc fault must propagate"
      | exception e ->
          Alcotest.(check bool) "propagates as Injected" true
            (Fault.is_injected e))

(* --------------------------------------------- runner retry and ladder *)

let rec rung_names = function
  | Runner.Degraded (r, rest) -> r :: rung_names rest
  | Runner.Converged | Runner.Budget_exhausted | Runner.Stalled -> []

let test_runner_faults () =
  let mrf = random_mrf (rng 42) 80 4 0.05 in
  let clean = Runner.run ~stage:(Runner.icm ()) mrf in
  Alcotest.(check int) "clean run retries nothing" 0 clean.Runner.retries;
  (* one transient failure on the first attempt: the retry must land on
     the identical trajectory (this binary's first enabled attempt) *)
  let retried =
    with_spec "runner.stage@0" (fun () ->
        Runner.run ~stage:(Runner.icm ()) mrf)
  in
  Alcotest.(check int) "one retry recorded" 1 retried.Runner.retries;
  Alcotest.(check (array int)) "retried solve is bitwise-identical"
    clean.Runner.result.Solver.labeling
    retried.Runner.result.Solver.labeling;
  (* every attempt on every rung fails: the watchdog falls back to the
     seeded anytime labeling and records the rungs it burned through *)
  let init = Array.make (Mrf.n_nodes mrf) 0 in
  let degraded =
    with_spec "rate=1.0,only=runner.stage" (fun () ->
        Runner.run ~init ~stage:(Runner.icm ()) mrf)
  in
  Alcotest.(check (array int)) "watchdog returns the anytime labeling"
    init degraded.Runner.result.Solver.labeling;
  Alcotest.(check (float 1e-9)) "watchdog energy is the labeling's"
    (Mrf.energy mrf init)
    degraded.Runner.result.Solver.energy;
  Alcotest.(check bool) "ladder reached the icm fallback" true
    (List.mem "icm-fallback" (rung_names degraded.Runner.outcome));
  Alcotest.(check bool) "outcome reports failure" false
    (Runner.outcome_converged degraded.Runner.outcome);
  if degraded.Runner.retries < 6 then
    Alcotest.failf "expected the whole ladder's retries, got %d"
      degraded.Runner.retries;
  (* with no anytime labeling at all the failure must propagate *)
  with_spec "rate=1.0,only=runner.stage" (fun () ->
      match Runner.run ~stage:(Runner.icm ()) mrf with
      | _ -> Alcotest.fail "total failure with no best must raise"
      | exception e ->
          Alcotest.(check bool) "propagates as Injected" true
            (Fault.is_injected e))

(* [runner.stage] keys on a process-wide attempt counter: read the next
   key off a probe run whose every attempt fails *)
let next_stage_key () =
  with_spec "rate=1.0,only=runner.stage" (fun () ->
      match Runner.run ~stage:(Runner.icm ()) (random_mrf (rng 1) 2 2 1.0)
      with
      | _ -> Alcotest.fail "probe run must fail"
      | exception Fault.Injected (_, key) -> key + 1)

(* the case study under C2, where a third of the edges carry a table
   whose off-diagonal entries are all equal: three failed attempts on
   it, and the ladder goes straight to its one rung *)
let test_one_rung_ladder () =
  let net = Netdiv_casestudy.Products.network () in
  let mrf =
    Netdiv_core.Encode.mrf
      (Netdiv_core.Encode.encode net
         (Netdiv_casestudy.Products.product_constraints net))
  in
  let k = next_stage_key () in
  let spec =
    String.concat ","
      (List.init 3 (fun i -> Printf.sprintf "runner.stage@%d" (k + i)))
  in
  let report =
    with_spec spec (fun () -> Runner.run ~stage:(Runner.trws_icm ()) mrf)
  in
  (match report.Runner.outcome with
  | Runner.Degraded ("icm-fallback", _) -> ()
  | o -> Alcotest.failf "expected icm-fallback, got %a" Runner.pp_outcome o);
  Alcotest.(check (list string)) "one rung" [ "icm-fallback" ]
    (rung_names report.Runner.outcome);
  Alcotest.(check int) "three retries" 3 report.Runner.retries;
  let r = report.Runner.result in
  Alcotest.(check bool) "energy is the labeling's" true
    (Mrf.energy mrf r.Solver.labeling = r.Solver.energy)

(* --------------------------------------------------- atomic file writes *)

let test_atomic_write () =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (Io.temp_path path) with Sys_error _ -> ())
    (fun () ->
      (match Io.write_atomic ~path "v1-contents" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "clean write failed: %s" e);
      Alcotest.(check bool) "no temp straggler after a clean write" false
        (Sys.file_exists (Io.temp_path path));
      Alcotest.(check (result string string)) "clean read round-trips"
        (Ok "v1-contents") (Io.read_file path);
      (* torn write: destination untouched, temp left behind like a
         real crash would leave it *)
      (match
         with_spec "rate=1.0,only=io.write" (fun () ->
             Io.write_atomic ~path "v2-would-be")
       with
      | Ok () -> Alcotest.fail "torn write must report an error"
      | Error _ -> ());
      Alcotest.(check (result string string))
        "destination survives a torn write" (Ok "v1-contents")
        (Io.read_file path);
      Alcotest.(check bool) "torn write leaves the temp file" true
        (Sys.file_exists (Io.temp_path path));
      Sys.remove (Io.temp_path path);
      (* fsync failure: complete content, no durability — destination
         keeps the old artifact and the temp is cleaned up *)
      (match
         with_spec "rate=1.0,only=io.fsync" (fun () ->
             Io.write_atomic ~path "v3-would-be")
       with
      | Ok () -> Alcotest.fail "fsync failure must report an error"
      | Error _ -> ());
      Alcotest.(check (result string string))
        "destination survives an fsync failure" (Ok "v1-contents")
        (Io.read_file path);
      Alcotest.(check bool) "fsync failure removes the temp file" false
        (Sys.file_exists (Io.temp_path path)))

let test_faulty_reads () =
  let path = temp_file () in
  let content = "0123456789abcdef" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Io.write_atomic ~path content with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup write failed: %s" e);
      (match
         with_spec "rate=1.0,only=io.read.truncate" (fun () ->
             Io.read_file path)
       with
      | Error e -> Alcotest.failf "truncated read still returns Ok: %s" e
      | Ok s ->
          if String.length s >= String.length content then
            Alcotest.fail "truncated read must drop the tail";
          Alcotest.(check string) "truncation keeps a prefix" s
            (String.sub content 0 (String.length s)));
      (match
         with_spec "rate=1.0,only=io.read.corrupt" (fun () ->
             Io.read_file path)
       with
      | Error e -> Alcotest.failf "corrupt read still returns Ok: %s" e
      | Ok s ->
          Alcotest.(check int) "corruption preserves the length"
            (String.length content) (String.length s);
          let diffs = ref 0 in
          String.iteri
            (fun i c -> if c <> content.[i] then incr diffs)
            s;
          Alcotest.(check int) "exactly one byte flipped" 1 !diffs);
      (* the file on disk was never touched *)
      Alcotest.(check (result string string)) "disk content intact"
        (Ok content) (Io.read_file path));
  match Io.read_file path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reading a removed file must be an Error"

(* ------------------------------------------- checkpoint serialization *)

let test_checkpoint_serial () =
  let ck =
    {
      Serial.ck_energy = -12.5;
      ck_iterations = 42;
      ck_labeling = [| 0; 3; 1; 2 |];
    }
  in
  (match Serial.checkpoint_of_string (Serial.checkpoint_to_string ck) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok ck' ->
      Alcotest.(check (float 1e-9)) "energy" ck.Serial.ck_energy
        ck'.Serial.ck_energy;
      Alcotest.(check int) "iterations" ck.Serial.ck_iterations
        ck'.Serial.ck_iterations;
      Alcotest.(check (array int)) "labeling" ck.Serial.ck_labeling
        ck'.Serial.ck_labeling);
  (* malformed inputs are Errors, never exceptions *)
  let full = Serial.checkpoint_to_string ck in
  for cut = 0 to String.length full - 1 do
    match Serial.checkpoint_of_string (String.sub full 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "prefix of length %d must not parse" cut
  done;
  (match
     Serial.checkpoint_of_string
       "{\"netdiv_checkpoint\":1,\"labeling\":[-2]}"
   with
  | Error e ->
      Alcotest.(check bool) "error names the bad path" true
        (String.length e > 0)
  | Ok _ -> Alcotest.fail "negative label must not parse");
  match
    Serial.checkpoint_of_string "{\"netdiv_checkpoint\":9,\"labeling\":[]}"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown version must not parse"

(* --------------------------------------- optimize checkpoint / resume *)

let small_net () =
  Workload.instance
    {
      Workload.hosts = 40;
      degree = 6;
      services = 3;
      products_per_service = 3;
      seed = 5;
    }

let test_optimize_checkpoint_resume () =
  let net = small_net () in
  let ck = temp_file () in
  Sys.remove ck;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove ck with Sys_error _ -> ());
      try Sys.remove (Io.temp_path ck) with Sys_error _ -> ())
    (fun () ->
      let r1 = Optimize.run ~checkpoint:ck net [] in
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ck);
      Alcotest.(check int) "clean run retries nothing" 0 r1.Optimize.retries;
      let r2 = Optimize.run ~resume:ck net [] in
      Alcotest.(check (float 1e-9)) "resumed energy identical"
        r1.Optimize.energy r2.Optimize.energy;
      Alcotest.(check (array int)) "resumed labeling bitwise-identical"
        r1.Optimize.solver_result.Solver.labeling
        r2.Optimize.solver_result.Solver.labeling;
      (* resuming from garbage warns and starts fresh, landing on the
         same solution as the uninterrupted run *)
      (match Io.write_atomic ~path:ck "{ not a checkpoint" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "setup write failed: %s" e);
      let r3 = Optimize.run ~resume:ck net [] in
      Alcotest.(check (array int)) "corrupt checkpoint falls back to fresh"
        r1.Optimize.solver_result.Solver.labeling
        r3.Optimize.solver_result.Solver.labeling;
      (* a truncated read of a valid checkpoint likewise degrades to a
         fresh solve instead of failing *)
      let r4 =
        with_spec "rate=1.0,only=io.read.truncate" (fun () ->
            Optimize.run ~resume:ck net [])
      in
      Alcotest.(check (array int)) "truncated checkpoint read degrades"
        r1.Optimize.solver_result.Solver.labeling
        r4.Optimize.solver_result.Solver.labeling)

let test_optimize_checkpoint_write_failure () =
  (* every snapshot write fails: the solve must complete untouched and
     the destination must never appear *)
  let net = small_net () in
  let ck = temp_file () in
  Sys.remove ck;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove ck with Sys_error _ -> ());
      try Sys.remove (Io.temp_path ck) with Sys_error _ -> ())
    (fun () ->
      let clean = Optimize.run net [] in
      let r =
        with_spec "rate=1.0,only=io.write" (fun () ->
            Optimize.run ~checkpoint:ck net [])
      in
      Alcotest.(check bool) "destination never materializes" false
        (Sys.file_exists ck);
      Alcotest.(check (float 1e-9)) "solve unaffected by write failures"
        clean.Optimize.energy r.Optimize.energy)

(* ---------------------------------------------------------- clock stall *)

let test_clock_stall () =
  with_spec "clock.stall@0,stall=7.5" (fun () ->
      let before = Obs.Clock.now () in
      Alcotest.(check (float 1e-9)) "stall applied once" 7.5
        (Fault.clock_offset ());
      let after = Obs.Clock.now () in
      Alcotest.(check (float 1e-9)) "no further stalls" 7.5
        (Fault.clock_offset ());
      if after < before then Alcotest.fail "clock must stay monotone");
  Alcotest.(check (float 1e-9)) "reset clears the skew" 0.0
    (Fault.clock_offset ())

let () =
  Alcotest.run "netdiv_fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parsing" `Quick test_spec_parsing;
          Alcotest.test_case "decisions" `Quick test_decisions;
          Alcotest.test_case "fire-once" `Quick test_fire_once;
          Alcotest.test_case "replay" `Quick test_replay;
        ] );
      ( "runner",
        [
          Alcotest.test_case "retry and ladder" `Quick test_runner_faults;
          Alcotest.test_case "one rung on Potts tables"
            `Quick test_one_rung_ladder;
        ] );
      ( "pool",
        [
          Alcotest.test_case "chunk recovery" `Quick test_pool_recovery;
          Alcotest.test_case "chunk recovery (sanitized)" `Quick
            test_pool_recovery_sanitized;
          Alcotest.test_case "alloc fault propagates" `Quick
            test_pool_alloc_fault;
        ] );
      ( "io",
        [
          Alcotest.test_case "atomic writes" `Quick test_atomic_write;
          Alcotest.test_case "faulty reads" `Quick test_faulty_reads;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "serialization" `Quick test_checkpoint_serial;
          Alcotest.test_case "optimize resume" `Quick
            test_optimize_checkpoint_resume;
          Alcotest.test_case "write failure" `Quick
            test_optimize_checkpoint_write_failure;
        ] );
      ("clock", [ Alcotest.test_case "stall" `Quick test_clock_stall ]);
    ]
