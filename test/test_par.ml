(* Tests for the shared domain pool: chunked parallel iteration,
   deterministic seed splitting and exception propagation. *)

module Pool = Netdiv_par.Pool

(* ------------------------------------------------------ resolve_jobs *)

let test_resolve_jobs () =
  Alcotest.(check int) "explicit" 3 (Pool.resolve_jobs ~jobs:3 ());
  Alcotest.(check bool) "auto is positive" true (Pool.resolve_jobs () >= 1);
  (* out-of-range request falls back to auto instead of failing *)
  Alcotest.(check bool) "zero means auto" true
    (Pool.resolve_jobs ~jobs:0 () >= 1)

(* -------------------------------------------------------- split_seed *)

let test_split_seed () =
  (* deterministic and index-sensitive *)
  Alcotest.(check int) "reproducible" (Pool.split_seed 42 3)
    (Pool.split_seed 42 3);
  let seen = Hashtbl.create 64 in
  for i = 0 to 63 do
    let s = Pool.split_seed 42 i in
    Alcotest.(check bool) "non-negative" true (s >= 0);
    Alcotest.(check bool)
      (Printf.sprintf "index %d fresh" i)
      false (Hashtbl.mem seen s);
    Hashtbl.replace seen s ()
  done;
  Alcotest.(check bool) "seed-sensitive" false
    (Pool.split_seed 1 0 = Pool.split_seed 2 0)

(* ------------------------------------------------------ parallel_for *)

let sum_serial lo hi f =
  let acc = ref 0 in
  for i = lo to hi - 1 do
    acc := !acc + f i
  done;
  !acc

let test_parallel_for_matches_serial () =
  let f i = (i * i) + 7 in
  List.iter
    (fun (jobs, chunks, lo, hi) ->
      let hits = Array.make (max hi 1) 0 in
      (* Pool.write so a sanitized run (NETDIV_SANITIZE=1) checks these
         stores for chunk overlap too *)
      Pool.parallel_for ~jobs ~chunks ~lo ~hi (fun i ->
          Pool.write hits i (hits.(i) + f i));
      let got = Array.fold_left ( + ) 0 hits in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d chunks=%d [%d,%d)" jobs chunks lo hi)
        (sum_serial lo hi f) got;
      (* every index visited exactly once *)
      for i = lo to hi - 1 do
        Alcotest.(check int) "visited once" (f i) hits.(i)
      done)
    [
      (1, 1, 0, 10);
      (1, 4, 0, 10);
      (4, 8, 0, 100);
      (4, 64, 0, 100) (* oversubscribed: more chunks than elements/cores *);
      (8, 200, 0, 50);
      (3, 3, 5, 8);
    ]

let test_empty_and_singleton () =
  let count = ref 0 in
  Pool.parallel_for ~jobs:4 ~lo:3 ~hi:3 (fun _ -> incr count);
  Alcotest.(check int) "empty range" 0 !count;
  Pool.parallel_for ~jobs:4 ~lo:3 ~hi:2 (fun _ -> incr count);
  Alcotest.(check int) "inverted range" 0 !count;
  let got = Pool.map_range ~jobs:4 ~lo:7 ~hi:8 (fun i -> i * 2) in
  Alcotest.(check (array int)) "singleton" [| 14 |] got;
  Alcotest.(check (array int)) "empty map" [||]
    (Pool.map_range ~jobs:2 ~lo:0 ~hi:0 (fun i -> i))

let test_map_range_order () =
  (* results land at their index regardless of job count *)
  let expect = Array.init 97 (fun i -> i * 3) in
  List.iter
    (fun jobs ->
      let got = Pool.map_range ~jobs ~lo:0 ~hi:97 (fun i -> i * 3) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expect got)
    [ 1; 2; 4; 16 ]

let test_map_reduce () =
  let expect = sum_serial 0 1000 (fun i -> i) in
  List.iter
    (fun jobs ->
      let got =
        (* ?cost:None erases the trailing optional: map_reduce has no
           positional argument, so partial application would otherwise
           leave a [?cost:int -> int] closure *)
        Pool.map_reduce ~jobs ~chunks:13 ?cost:None ~lo:0 ~hi:1000
          ~map:(fun i -> i) ~reduce:( + ) ~init:0
      in
      Alcotest.(check int) (Printf.sprintf "jobs=%d" jobs) expect got)
    [ 1; 4 ];
  Alcotest.(check int) "empty is init" 99
    (Pool.map_reduce ~jobs:4 ~chunks:4 ?cost:None ~lo:0 ~hi:0
       ~map:(fun i -> i) ~reduce:( + ) ~init:99)

exception Boom of int

let test_exception_propagation () =
  (* the worker's exception reaches the caller, for any job count *)
  List.iter
    (fun jobs ->
      match
        Pool.parallel_for ~jobs ~lo:0 ~hi:100 (fun i ->
            if i = 37 then raise (Boom i))
      with
      | () -> Alcotest.fail "exception swallowed"
      | exception Boom 37 -> ()
      | exception e ->
          Alcotest.failf "unexpected exception %s" (Printexc.to_string e))
    [ 1; 4 ];
  (* with several failing chunks, the lowest chunk's exception wins *)
  match
    Pool.parallel_for ~jobs:4 ~chunks:10 ~lo:0 ~hi:100 (fun i ->
        if i mod 10 = 0 then raise (Boom i))
  with
  | () -> Alcotest.fail "exception swallowed"
  | exception Boom 0 -> ()
  | exception Boom n -> Alcotest.failf "wrong chunk won: Boom %d" n
  | exception e ->
      Alcotest.failf "unexpected exception %s" (Printexc.to_string e)

(* Run [f] with the sanitizer forced on/off, restoring the environment
   default afterwards even on failure. *)
let with_sanitize b f =
  Pool.set_sanitize (Some b);
  Fun.protect ~finally:(fun () -> Pool.set_sanitize None) f

(* ------------------------------------------------------- granularity *)

(* A region whose writes collide across chunks but are fine within one:
   every index writes slot [i mod 4] over [0,8).  Under the sanitizer it
   races iff the plan actually split the range, which makes the inline/
   chunked decision observable from the outside. *)
let mod4_region ?chunks ~jobs ~cost () =
  let out = Array.make 4 (-1) in
  Pool.parallel_for ?chunks ~jobs ~cost ~lo:0 ~hi:8 (fun i ->
      Pool.write out (i mod 4) i)

let test_cost_small_runs_inline () =
  with_sanitize true (fun () ->
      (* 8 items x 1 unit is far below the cutoff: one chunk owns the
         whole range, so the overlapping writes are chunk-internal *)
      match mod4_region ~jobs:4 ~cost:1 () with
      | () -> ()
      | exception Pool.Race msg ->
          Alcotest.failf "small hinted region was split: %s" msg)

let test_cost_large_stays_parallel () =
  with_sanitize true (fun () ->
      (* the same region with a huge per-item estimate must keep
         chunking, and the sanitizer proves it did *)
      match mod4_region ~jobs:2 ~cost:Pool.sequential_cutoff () with
      | () -> Alcotest.fail "large hinted region ran as a single chunk"
      | exception Pool.Race _ -> ())

let test_cost_explicit_chunks_override () =
  with_sanitize true (fun () ->
      (* explicit ?chunks wins over the hint even below the cutoff *)
      match mod4_region ~chunks:4 ~jobs:2 ~cost:1 () with
      | () -> Alcotest.fail "explicit chunks ignored under a small hint"
      | exception Pool.Race _ -> ())

let test_cost_jobs_invariance () =
  (* identical results on both sides of the sequential cutoff, for any
     job count, sanitized or not *)
  let expect = Array.init 64 (fun i -> (i * 31) land 255) in
  List.iter
    (fun sanitized ->
      with_sanitize sanitized (fun () ->
          List.iter
            (fun cost ->
              List.iter
                (fun jobs ->
                  let got =
                    Pool.map_range ~jobs ~cost ~lo:0 ~hi:64 (fun i ->
                        (i * 31) land 255)
                  in
                  Alcotest.(check (array int))
                    (Printf.sprintf "map_range sanitize=%b cost=%d jobs=%d"
                       sanitized cost jobs)
                    expect got;
                  let sum =
                    Pool.map_reduce ~jobs ?chunks:None ?cost:(Some cost)
                      ~lo:0 ~hi:64
                      ~map:(fun i -> (i * 31) land 255)
                      ~reduce:( + ) ~init:0
                  in
                  Alcotest.(check int)
                    (Printf.sprintf "map_reduce sanitize=%b cost=%d jobs=%d"
                       sanitized cost jobs)
                    (Array.fold_left ( + ) 0 expect)
                    sum)
                [ 1; 2; 4 ])
            [ 1; Pool.sequential_cutoff ]))
    [ false; true ]

(* --------------------------------------------------------- sanitizer *)

(* Every index writes slot [i mod 4], so with 4 chunks over [0,8) two
   distinct chunks collide on every slot — and chunks 2 and 3 write
   outside their own sub-ranges. *)
let overlapping_run () =
  let out = Array.make 8 (-1) in
  Pool.parallel_for ~jobs:2 ~chunks:4 ~lo:0 ~hi:8 (fun i ->
      Pool.write out (i mod 4) i)

let test_sanitizer_detects_overlap () =
  with_sanitize true (fun () ->
      match overlapping_run () with
      | () -> Alcotest.fail "overlapping write not detected"
      | exception Pool.Race _ -> ()
      | exception e ->
          Alcotest.failf "expected Pool.Race, got %s" (Printexc.to_string e))

let test_sanitizer_silent_when_off () =
  (* the very same buggy region runs to completion without the sanitizer:
     that silence is the blind spot the debug mode exists to close *)
  with_sanitize false (fun () ->
      match overlapping_run () with
      | () -> ()
      | exception e ->
          Alcotest.failf "sanitizer ran while disabled: %s"
            (Printexc.to_string e))

let test_sanitizer_accepts_disjoint_writes () =
  with_sanitize true (fun () ->
      (* well-formed regions are untouched: same results as unsanitized *)
      let out = Array.make 100 0 in
      Pool.parallel_for ~jobs:4 ~chunks:8 ~lo:0 ~hi:100 (fun i ->
          Pool.write out i (i * 3));
      Alcotest.(check (array int))
        "parallel_for writes" (Array.init 100 (fun i -> i * 3)) out;
      let got = Pool.map_range ~jobs:4 ~chunks:8 ~lo:5 ~hi:55 (fun i -> i * i) in
      Alcotest.(check (array int))
        "map_range tracked" (Array.init 50 (fun k -> (k + 5) * (k + 5))) got;
      (* the serial path is also dispatched and checked under sanitize *)
      let got1 = Pool.map_range ~jobs:1 ~lo:0 ~hi:9 (fun i -> -i) in
      Alcotest.(check (array int))
        "jobs=1 sanitized" (Array.init 9 (fun i -> -i)) got1)

let test_sanitizer_boundary_escape () =
  with_sanitize true (fun () ->
      (* chunk 0 owns [0,5): a write to slot 7 crosses its boundary even
         though no other chunk ever touches that slot *)
      let out = Array.make 10 0 in
      match
        Pool.parallel_for ~jobs:1 ~chunks:2 ~lo:0 ~hi:10 (fun i ->
            Pool.write out (if i = 2 then 7 else i) i)
      with
      | () -> Alcotest.fail "chunk-boundary escape not detected"
      | exception Pool.Race _ -> ())

let test_sanitizer_enabled_toggle () =
  Pool.set_sanitize (Some true);
  Alcotest.(check bool) "forced on" true (Pool.sanitize_enabled ());
  Pool.set_sanitize (Some false);
  Alcotest.(check bool) "forced off" false (Pool.sanitize_enabled ());
  Pool.set_sanitize None

let () =
  Alcotest.run "netdiv_par"
    [
      ( "pool",
        [
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "split_seed" `Quick test_split_seed;
          Alcotest.test_case "parallel_for matches serial" `Quick
            test_parallel_for_matches_serial;
          Alcotest.test_case "empty/singleton ranges" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "map_range order" `Quick test_map_range_order;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
        ] );
      ( "granularity",
        [
          Alcotest.test_case "small hint runs inline" `Quick
            test_cost_small_runs_inline;
          Alcotest.test_case "large hint stays parallel" `Quick
            test_cost_large_stays_parallel;
          Alcotest.test_case "explicit chunks override hint" `Quick
            test_cost_explicit_chunks_override;
          Alcotest.test_case "jobs-invariant across cutoff" `Quick
            test_cost_jobs_invariance;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "detects overlapping writes" `Quick
            test_sanitizer_detects_overlap;
          Alcotest.test_case "silent when disabled" `Quick
            test_sanitizer_silent_when_off;
          Alcotest.test_case "accepts disjoint writes" `Quick
            test_sanitizer_accepts_disjoint_writes;
          Alcotest.test_case "detects boundary escape" `Quick
            test_sanitizer_boundary_escape;
          Alcotest.test_case "set_sanitize toggle" `Quick
            test_sanitizer_enabled_toggle;
        ] );
    ]
