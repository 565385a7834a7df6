(* Tests for the agent-based malware-propagation engine. *)

module Engine = Netdiv_sim.Engine
module Gen = Netdiv_graph.Gen
module Graph = Netdiv_graph.Graph
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment

let rng seed = Random.State.make [| seed |]

(* one-service line network with parameterizable similarity *)
let line_net ?(n = 5) ?(sim = 0.5) () =
  let services =
    [| { Network.sv_name = "os"; sv_products = [| "A"; "B" |];
         sv_similarity = [| 1.0; sim; sim; 1.0 |] } |]
  in
  Network.create ~graph:(Gen.line n) ~services
    ~hosts:
      (Array.init n (fun h ->
           { Network.h_name = Printf.sprintf "h%d" h;
             h_services = [ (0, [||]) ] }))

let mono net = Assignment.make net (fun ~host:_ ~service:_ -> 0)
let alternating net = Assignment.make net (fun ~host ~service:_ -> host mod 2)

let test_entry_is_target () =
  let net = line_net () in
  Alcotest.(check (option int)) "tick zero" (Some 0)
    (Engine.run ~rng:(rng 1) (mono net) ~entry:2 ~target:2)

let test_deterministic_under_seed () =
  let net = line_net ~n:8 () in
  let a = alternating net in
  let r1 = Engine.run ~rng:(rng 42) a ~entry:0 ~target:7 in
  let r2 = Engine.run ~rng:(rng 42) a ~entry:0 ~target:7 in
  Alcotest.(check (option int)) "same outcome" r1 r2

let test_certain_infection_speed () =
  (* attempt_scale 1, identical products: one hop per tick, no floor *)
  let net = line_net ~n:6 () in
  let r =
    Engine.run ~rng:(rng 2) ~attempt_scale:1.0 ~sim_floor:0.0 (mono net)
      ~entry:0 ~target:5
  in
  Alcotest.(check (option int)) "five hops" (Some 5) r

let test_zero_rate_blocks () =
  (* similarity 0, floor 0: the worm can never move *)
  let net = line_net ~sim:0.0 () in
  let r =
    Engine.run ~rng:(rng 3) ~attempt_scale:1.0 ~sim_floor:0.0
      (alternating net) ~entry:0 ~target:4
  in
  Alcotest.(check (option int)) "blocked" None r

let test_dead_worm_terminates_early () =
  (* with zero rates everywhere the engine must stop long before the cap;
     a pathological spin would make this test time out *)
  let net = line_net ~n:4 ~sim:0.0 () in
  let t0 = Unix.gettimeofday () in
  ignore
    (Engine.run ~rng:(rng 4) ~attempt_scale:1.0 ~sim_floor:0.0
       ~max_ticks:10_000_000 (alternating net) ~entry:0 ~target:3);
  Alcotest.(check bool) "fast" true (Unix.gettimeofday () -. t0 < 1.0)

let test_mttc_stats () =
  let net = line_net ~n:4 () in
  let stats =
    Engine.mttc ~rng:(rng 5) ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:50
      (mono net) ~entry:0 ~target:3
  in
  Alcotest.(check int) "all succeed" 50 stats.Engine.successes;
  Alcotest.(check (float 1e-9)) "deterministic time" 3.0
    stats.Engine.mean_ticks

let test_mttc_diversity_slows () =
  let net = line_net ~n:5 ~sim:0.2 () in
  let fast =
    Engine.mttc ~rng:(rng 6) ~runs:300 (mono net) ~entry:0 ~target:4
  in
  let slow =
    Engine.mttc ~rng:(rng 7) ~runs:300 (alternating net) ~entry:0 ~target:4
  in
  Alcotest.(check bool) "all reach (mono)" true (fast.Engine.successes = 300);
  Alcotest.(check bool) "diversified slower" true
    (slow.Engine.mean_ticks > fast.Engine.mean_ticks)

let test_uniform_vs_best_strategy () =
  (* two services, one shared similarity 1.0 and one 0.0: the best-exploit
     attacker always finds the 1.0, the uniform one coin-flips *)
  let services =
    [|
      { Network.sv_name = "a"; sv_products = [| "P"; "Q" |];
        sv_similarity = [| 1.0; 1.0; 1.0; 1.0 |] };
      { Network.sv_name = "b"; sv_products = [| "P"; "Q" |];
        sv_similarity = [| 1.0; 0.0; 0.0; 1.0 |] };
    |]
  in
  let net =
    Network.create ~graph:(Gen.line 4) ~services
      ~hosts:
        (Array.init 4 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services = [ (0, [||]); (1, [||]) ] }))
  in
  let a = Assignment.make net (fun ~host ~service -> (host + service) mod 2) in
  let best =
    Engine.mttc ~rng:(rng 8) ~strategy:Engine.Best_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:200 a ~entry:0 ~target:3
  in
  let uniform =
    Engine.mttc ~rng:(rng 9) ~strategy:Engine.Uniform_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:200 a ~entry:0 ~target:3
  in
  Alcotest.(check (float 1e-9)) "recon attacker is optimal" 3.0
    best.Engine.mean_ticks;
  Alcotest.(check bool) "uniform attacker is slower" true
    (uniform.Engine.mean_ticks > best.Engine.mean_ticks)

let test_epidemic_curve_monotone () =
  let net = line_net ~n:10 () in
  let curve = Engine.epidemic_curve ~rng:(rng 10) (mono net) ~entry:0 in
  Alcotest.(check bool) "non-empty" true (Array.length curve > 0);
  let ok = ref (curve.(0) >= 1) in
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "monotone" true !ok;
  Alcotest.(check bool) "bounded by hosts" true
    (Array.for_all (fun c -> c <= 10) curve)

let test_invalid_entry () =
  let net = line_net () in
  (match Engine.run ~rng:(rng 11) (mono net) ~entry:99 ~target:0 with
  | _ -> Alcotest.fail "accepted bad entry"
  | exception Invalid_argument _ -> ());
  (* every entry point validates before simulating: the messages pin
     that neither a bare index error nor a NaN mean gets through *)
  let a = mono net in
  let rejects name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let bad_target = "Engine: target out of range" in
  List.iter
    (fun target ->
      rejects "mttc target" bad_target (fun () ->
          Engine.mttc ~rng:(rng 12) ~runs:5 a ~entry:0 ~target);
      rejects "mttc_samples target" bad_target (fun () ->
          Engine.mttc_samples ~rng:(rng 12) ~runs:5 a ~entry:0 ~target);
      rejects "mttc_summary target" bad_target (fun () ->
          Engine.mttc_summary ~rng:(rng 12) ~runs:5 a ~entry:0 ~target);
      rejects "mttc_parallel target" bad_target (fun () ->
          Engine.mttc_parallel ~seed:12 ~runs:5 a ~entry:0 ~target ()))
    [ 99; -1 ];
  let bad_entry = "Engine: entry out of range" in
  let strategy = Engine.Arsenal_exploit in
  rejects "arsenal mttc entry" bad_entry (fun () ->
      Engine.mttc ~rng:(rng 13) ~strategy ~runs:5 a ~entry:99 ~target:0);
  rejects "arsenal epidemic_curve entry" bad_entry (fun () ->
      Engine.epidemic_curve ~rng:(rng 13) ~strategy a ~entry:99);
  let no_runs = "Engine: runs < 1" in
  rejects "mttc runs" no_runs (fun () ->
      Engine.mttc ~rng:(rng 14) ~runs:0 a ~entry:0 ~target:4);
  rejects "mttc_samples runs" no_runs (fun () ->
      Engine.mttc_samples ~rng:(rng 14) ~runs:(-5) a ~entry:0 ~target:4);
  rejects "mttc_summary runs" no_runs (fun () ->
      Engine.mttc_summary ~rng:(rng 14) ~runs:0 a ~entry:0 ~target:4);
  rejects "mttc_parallel runs" no_runs (fun () ->
      Engine.mttc_parallel ~seed:14 ~runs:0 a ~entry:0 ~target:4 ());
  rejects "mttc_defended runs" no_runs (fun () ->
      Engine.mttc_defended ~rng:(rng 14)
        ~defense:{ Engine.detect_rate = 0.1; immunize = false }
        ~runs:0 a ~entry:0 ~target:4)

(* ---------------------------------------------------------------- stat *)

let test_stat_basics () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Netdiv_sim.Stat.mean xs);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0)
    (Netdiv_sim.Stat.variance xs);
  Alcotest.(check (float 1e-9)) "median" 4.5
    (Netdiv_sim.Stat.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p0" 2.0 (Netdiv_sim.Stat.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 9.0
    (Netdiv_sim.Stat.percentile xs 1.0);
  let s = Netdiv_sim.Stat.summarize xs in
  Alcotest.(check int) "n" 8 s.Netdiv_sim.Stat.n;
  let lo, hi = s.Netdiv_sim.Stat.ci95 in
  Alcotest.(check bool) "ci brackets mean" true (lo < 5.0 && 5.0 < hi);
  match Netdiv_sim.Stat.summarize [||] with
  | _ -> Alcotest.fail "accepted empty sample"
  | exception Invalid_argument _ -> ()

let test_stat_percentile_interpolation () =
  let xs = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "quarter" 12.5
    (Netdiv_sim.Stat.percentile xs 0.25);
  match Netdiv_sim.Stat.percentile xs 1.5 with
  | _ -> Alcotest.fail "accepted p > 1"
  | exception Invalid_argument _ -> ()

(* -------------------------------------------------------- new strategies *)

let test_arsenal_weaker_than_adaptive () =
  (* three products in a rainbow corridor A-B-C-A with sim(A,B) =
     sim(B,C) = 0.5 but sim(A,C) = 0.1: the adaptive worm re-arms at
     every hop (0.5 each), the static arsenal (forged for A) hits B at
     0.5 but C at only 0.1 *)
  let products = [| "A"; "B"; "C" |] in
  let sim =
    [| 1.0; 0.5; 0.1;
       0.5; 1.0; 0.5;
       0.1; 0.5; 1.0 |]
  in
  let net =
    Network.create ~graph:(Gen.line 4)
      ~services:
        [| { Network.sv_name = "os"; sv_products = products;
             sv_similarity = sim } |]
      ~hosts:
        (Array.init 4 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services = [ (0, [||]) ] }))
  in
  (* A - B - C - C: the adaptive worm ends with a same-product hop, the
     arsenal is stuck with sim(A,C) = 0.1 twice *)
  let corridor = [| 0; 1; 2; 2 |] in
  let a = Assignment.make net (fun ~host ~service:_ -> corridor.(host)) in
  let best =
    Engine.mttc ~rng:(rng 32) ~strategy:Engine.Best_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:400 a ~entry:0 ~target:3
  in
  let arsenal =
    Engine.mttc ~rng:(rng 33) ~strategy:Engine.Arsenal_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:400 a ~entry:0 ~target:3
  in
  Alcotest.(check bool) "static worm is slower" true
    (arsenal.Engine.mean_ticks > best.Engine.mean_ticks);
  (* on a mono deployment the arsenal is as good as reconnaissance *)
  let mono_net = line_net ~n:4 () in
  let m = mono mono_net in
  let best_mono =
    Engine.mttc ~rng:(rng 34) ~strategy:Engine.Best_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:50 m ~entry:0 ~target:3
  in
  let arsenal_mono =
    Engine.mttc ~rng:(rng 35) ~strategy:Engine.Arsenal_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:50 m ~entry:0 ~target:3
  in
  Alcotest.(check (float 1e-9)) "equal on mono" best_mono.Engine.mean_ticks
    arsenal_mono.Engine.mean_ticks

let test_mttc_samples_and_summary () =
  let net = line_net ~n:4 () in
  let samples =
    Engine.mttc_samples ~rng:(rng 34) ~attempt_scale:1.0 ~sim_floor:0.0
      ~runs:50 (mono net) ~entry:0 ~target:3
  in
  Alcotest.(check int) "all runs" 50 (Array.length samples);
  Alcotest.(check bool) "deterministic times" true
    (Array.for_all (fun t -> t = 3) samples);
  let stats, summary =
    Engine.mttc_summary ~rng:(rng 35) ~attempt_scale:1.0 ~sim_floor:0.0
      ~runs:50 (mono net) ~entry:0 ~target:3
  in
  Alcotest.(check int) "successes" 50 stats.Engine.successes;
  match summary with
  | Some s -> Alcotest.(check (float 1e-9)) "median" 3.0 s.Netdiv_sim.Stat.median
  | None -> Alcotest.fail "expected summary"

(* The case-study optimal deployment, entry c4, target t5. *)
let case_study () =
  let module Cs = Netdiv_casestudy in
  let net = Cs.Products.network () in
  ( (Cs.Experiments.compute_assignments net).Cs.Experiments.optimal,
    Cs.Topology.host "c4",
    Cs.Topology.host Cs.Topology.target )

let with_hardware_jobs n f =
  Netdiv_par.Pool.set_hardware_jobs (Some n);
  Fun.protect ~finally:(fun () -> Netdiv_par.Pool.set_hardware_jobs None) f

(* The line-network batches cost 500 * 6 * 120 units, far below
   [Pool.sequential_cutoff], so they always run inline.  The case study
   at 2000 runs (32M units) is above it: with four hardware jobs pinned,
   its runs really execute on several domains at once, which is what
   catches per-run state shared between them. *)
let check_case_study_domains strategy =
  let a, entry, target = case_study () in
  with_hardware_jobs 4 @@ fun () ->
  let with_domains d =
    let s =
      Engine.mttc_parallel ~domains:d ~seed:9 ~strategy ~runs:2000 a ~entry
        ~target ()
    in
    (s.Engine.successes, Printf.sprintf "%h" s.Engine.mean_ticks)
  in
  let one = with_domains 1 in
  List.iter
    (fun d ->
      Alcotest.(check (pair int string))
        (Printf.sprintf "case study, %d domains" d)
        one (with_domains d))
    [ 2; 4 ]

let test_mttc_parallel_matches_domains () =
  let net = line_net ~n:6 ~sim:0.3 () in
  let a = alternating net in
  let with_domains d =
    Engine.mttc_parallel ~domains:d ~seed:9 ~runs:120 a ~entry:0 ~target:5 ()
  in
  let one = with_domains 1 in
  let four = with_domains 4 in
  Alcotest.(check int) "same successes" one.Engine.successes
    four.Engine.successes;
  Alcotest.(check (float 1e-9)) "same mean" one.Engine.mean_ticks
    four.Engine.mean_ticks;
  check_case_study_domains Engine.Best_exploit

let test_mttc_parallel_uniform_exploit () =
  (* the pooled uniform-exploit path must also be domain-count-invariant *)
  let net = line_net ~n:6 ~sim:0.3 () in
  let a = alternating net in
  let with_domains d =
    Engine.mttc_parallel ~domains:d ~seed:21 ~strategy:Engine.Uniform_exploit
      ~runs:120 a ~entry:0 ~target:5 ()
  in
  let one = with_domains 1 in
  let three = with_domains 3 in
  let eight = with_domains 8 in
  Alcotest.(check int) "same successes (3 domains)" one.Engine.successes
    three.Engine.successes;
  Alcotest.(check (float 1e-9)) "same mean (3 domains)" one.Engine.mean_ticks
    three.Engine.mean_ticks;
  Alcotest.(check int) "same successes (oversubscribed)" one.Engine.successes
    eight.Engine.successes;
  Alcotest.(check (float 1e-9)) "same mean (oversubscribed)"
    one.Engine.mean_ticks eight.Engine.mean_ticks;
  check_case_study_domains Engine.Uniform_exploit

(* ---------------------------------------------------------- stream pins *)

(* Golden pins of the random stream on the case-study optimal deployment,
   c4 -> t5, one case per strategy.  No behavioural test notices a draw
   added, dropped or reordered inside the engine; these do, because every
   field below is a function of the exact sequence of draws. *)
type golden = {
  strategy : Engine.strategy;
  samples : int array;  (* mttc_samples, 50 runs, rng [| 14; k |] *)
  bits_after : int;  (* Random.State.bits of that rng afterwards *)
  curve : string;  (* epidemic_curve, rng [| 15; k |], "count x ticks" *)
  defended : int * string;  (* mttc_defended successes and mean (%h) *)
  parallel_mean : string;  (* mttc_parallel mean (%h), seed 17 + k *)
}

let goldens =
  [
    {
      strategy = Engine.Best_exploit;
      samples =
        [| 100; 195; 55; 60; 89; 54; 65; 13; 90; 9; 49; 52; 58; 65; 67; 48;
           38; 80; 41; 57; 46; 31; 81; 21; 115; 144; 67; 156; 19; 116; 50;
           71; 15; 49; 225; 145; 12; 160; 48; 96; 60; 57; 16; 42; 112; 27;
           31; 19; 71; 144 |];
      bits_after = 571496450;
      curve =
        "1x8 2x2 3x2 4x2 5x4 6x2 8x1 9x1 11x1 12x1 13x1 15x1 16x1 17x1 \
         19x1 20x8 21x12 22x3 23x6 24x1 25x12 26x8 27x110 28x19 29x2";
      defended = (18, "0x1.78e38e38e38e4p+5");
      parallel_mean = "0x1.619999999999ap+6";
    };
    {
      strategy = Engine.Uniform_exploit;
      samples =
        [| 33; 58; 26; 49; 82; 32; 79; 26; 168; 22; 66; 36; 32; 113; 77; 129;
           322; 42; 19; 70; 34; 105; 181; 55; 93; 174; 45; 88; 94; 28; 62;
           81; 80; 133; 53; 145; 129; 92; 72; 74; 104; 153; 87; 78; 67; 33;
           65; 72; 89; 59 |];
      bits_after = 787097991;
      curve =
        "1x10 2x7 3x3 4x41 5x2 6x1 7x2 8x1 9x1 11x1 12x1 14x1 16x2 17x2 \
         20x4 21x5 22x15 23x1 24x1 25x4 26x2 27x65 28x124 29x2";
      defended = (14, "0x1.65b6db6db6db7p+5");
      parallel_mean = "0x1.6e7ae147ae148p+6";
    };
    {
      strategy = Engine.Arsenal_exploit;
      samples =
        [| 215; 429; 337; 89; 124; 232; 123; 212; 115; 349; 232; 427; 74; 252;
           86; 203; 168; 53; 129; 158; 66; 348; 165; 111; 156; 58; 109; 202;
           60; 124; 140; 312; 243; 125; 169; 205; 126; 83; 293; 268; 96; 88;
           180; 414; 196; 192; 248; 98; 218; 268 |];
      bits_after = 891476842;
      curve =
        "1x3 2x4 3x54 4x79 5x4 6x3 7x25 8x2 9x10 10x3 11x12 12x1 14x1 16x4 \
         17x3 18x3 19x33 20x17 21x1 23x1 24x4 25x3 26x62 27x9 28x8 29x2";
      defended = (2, "0x1.218p+8");
      parallel_mean = "0x1.8bccccccccccdp+7";
    };
  ]

(* "1x3 2x4" is three ticks at one infected host, then four at two *)
let run_length curve =
  let n = Array.length curve in
  let runs = ref [] and i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && curve.(!j) = curve.(!i) do incr j done;
    runs := Printf.sprintf "%dx%d" curve.(!i) (!j - !i) :: !runs;
    i := !j
  done;
  String.concat " " (List.rev !runs)

let test_stream_pins () =
  let a, entry, target = case_study () in
  let hex = Printf.sprintf "%h" in
  List.iteri
    (fun k g ->
      let strategy = g.strategy in
      let r = Random.State.make [| 14; k |] in
      Alcotest.(check (array int)) "mttc_samples" g.samples
        (Engine.mttc_samples ~rng:r ~strategy ~runs:50 a ~entry ~target);
      Alcotest.(check int) "rng state after the samples" g.bits_after
        (Random.State.bits r);
      Alcotest.(check string) "epidemic_curve" g.curve
        (run_length
           (Engine.epidemic_curve ~rng:(Random.State.make [| 15; k |])
              ~strategy a ~entry));
      let d =
        Engine.mttc_defended ~rng:(Random.State.make [| 16; k |]) ~strategy
          ~defense:{ Engine.detect_rate = 0.05; immunize = false }
          ~runs:50 a ~entry ~target
      in
      Alcotest.(check (pair int string)) "mttc_defended" g.defended
        (d.Engine.successes, hex d.Engine.mean_ticks);
      let p =
        Engine.mttc_parallel ~domains:2 ~seed:(17 + k) ~strategy ~runs:50 a
          ~entry ~target ()
      in
      Alcotest.(check string) "mttc_parallel mean" g.parallel_mean
        (hex p.Engine.mean_ticks))
    goldens

(* ------------------------------------------------------------- attempts *)

(* The integer attempt makes the decision [Random.State.float g 1.0 < r]
   makes, from the same generator outputs: twin generators, one per
   form, agree draw for draw and end in the same state.  Random draws
   almost never land next to the threshold, so the two values of n
   around it, n * 2^-53 being the float, are checked directly. *)
let test_attempt_matches_float () =
  List.iter
    (fun r ->
      let t = Engine.threshold r in
      Alcotest.(check bool)
        (Printf.sprintf "threshold of %h positive exactly when r > 0" r)
        (r > 0.0) (t > 0);
      List.iter
        (fun n ->
          if n >= 1 && n < 1 lsl 53 then
            Alcotest.(check bool)
              (Printf.sprintf "r = %h, n = %d" r n)
              (float_of_int n *. 0x1p-53 < r)
              (n < t))
        [ t - 1; t ];
      let g = rng 71 in
      let g' = Random.State.copy g in
      for k = 1 to 10_000 do
        let by_int = Engine.attempt g t in
        let by_float = Random.State.float g' 1.0 < r in
        if by_int <> by_float then
          Alcotest.failf "r = %h, draw %d: integer %b, float %b" r k by_int
            by_float
      done;
      Alcotest.(check string)
        (Printf.sprintf "generator state after r = %h" r)
        (Random.State.to_binary_string g')
        (Random.State.to_binary_string g))
    [ 0.0; 0x1p-60; 0x1p-53; 0.0075; 0.15; 0.5; 1.0 -. 0x1p-53; 1.0; 1.5;
      nan ];
  (* and [attempt] compares strictly: read the next n off a copy, then
     an attempt against t = n fails and one against n + 1 succeeds *)
  let g = rng 73 in
  for _ = 1 to 100 do
    let n =
      Int64.to_int
        (Int64.shift_right_logical
           (Random.State.bits64 (Random.State.copy g))
           11)
    in
    if n > 0 then begin
      Alcotest.(check bool) "t = n" false
        (Engine.attempt (Random.State.copy g) n);
      Alcotest.(check bool) "t = n + 1" true (Engine.attempt g (n + 1))
    end
  done

(* A batch allocates its attack table and scratch, and a [Some] per run
   that reaches the target, but nothing per attempt: on the case study,
   999 more runs cost under 4 words a run.  A boxed float per attempt
   cost about 780 words a run here. *)
let test_mttc_allocation () =
  let a, entry, target = case_study () in
  let words runs =
    let before = Gc.minor_words () in
    let s = Engine.mttc ~rng:(rng 72) ~runs a ~entry ~target in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "every run reached the target" runs
      s.Engine.successes;
    words
  in
  let extra = words 1000 -. words 1 in
  if extra >= 4.0 *. 999.0 then
    Alcotest.failf "999 more Engine.mttc runs allocated %.0f minor words"
      extra

(* -------------------------------------------------------------- defense *)

let no_defense = { Engine.detect_rate = 0.0; immunize = false }

let test_defended_zero_rate_is_undefended () =
  (* certain infection, no detection: target at distance d falls at tick d *)
  let net = line_net ~n:5 () in
  Alcotest.(check (option int)) "distance ticks" (Some 4)
    (Engine.run_defended ~rng:(rng 61) ~attempt_scale:1.0 ~sim_floor:0.0
       ~defense:no_defense (mono net) ~entry:0 ~target:4)

let test_defended_perfect_detection_contains () =
  (* detection probability 1 with immunization: the worm is wiped after
     its first tick, so a target two hops away never falls *)
  let net = line_net ~n:5 () in
  let defense = { Engine.detect_rate = 1.0; immunize = true } in
  let stats =
    Engine.mttc_defended ~rng:(rng 62) ~attempt_scale:0.8 ~sim_floor:0.0
      ~defense ~runs:200 (mono net) ~entry:0 ~target:4
  in
  Alcotest.(check int) "never compromised" 0 stats.Engine.successes

let test_defended_rate_monotone () =
  (* stronger detection -> fewer compromised runs *)
  let net = line_net ~n:5 ~sim:0.4 () in
  let a = alternating net in
  let success rate seed =
    (Engine.mttc_defended ~rng:(rng seed) ~attempt_scale:0.5 ~sim_floor:0.0
       ~defense:{ Engine.detect_rate = rate; immunize = true }
       ~runs:400 a ~entry:0 ~target:4)
      .Engine.successes
  in
  let weak = success 0.01 63 in
  let strong = success 0.2 64 in
  Alcotest.(check bool) "containment improves" true (strong < weak);
  Alcotest.(check bool) "weak defense still leaks" true (weak > 0)

let test_defended_validation () =
  let net = line_net () in
  match
    Engine.run_defended ~rng:(rng 65)
      ~defense:{ Engine.detect_rate = 1.5; immunize = false }
      (mono net) ~entry:0 ~target:1
  with
  | _ -> Alcotest.fail "accepted detect_rate > 1"
  | exception Invalid_argument _ -> ()

(* property: MTTC can never beat the BFS distance *)
let prop_mttc_at_least_distance =
  QCheck2.Test.make ~count:30 ~name:"compromise time >= hop distance"
    QCheck2.Gen.(pair (2 -- 20) (0 -- 10_000))
    (fun (n, seed) ->
      let net = line_net ~n () in
      let a = mono net in
      match
        Engine.run ~rng:(rng seed) ~attempt_scale:0.9 a ~entry:0
          ~target:(n - 1)
      with
      | None -> true
      | Some t -> t >= n - 1)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "entry is target" `Quick test_entry_is_target;
          Alcotest.test_case "deterministic under seed" `Quick
            test_deterministic_under_seed;
          Alcotest.test_case "certain infection speed" `Quick
            test_certain_infection_speed;
          Alcotest.test_case "zero rate blocks" `Quick test_zero_rate_blocks;
          Alcotest.test_case "dead worm terminates early" `Quick
            test_dead_worm_terminates_early;
          Alcotest.test_case "mttc statistics" `Quick test_mttc_stats;
          Alcotest.test_case "diversity slows compromise" `Quick
            test_mttc_diversity_slows;
          Alcotest.test_case "uniform vs reconnaissance attacker" `Quick
            test_uniform_vs_best_strategy;
          Alcotest.test_case "epidemic curve monotone" `Quick
            test_epidemic_curve_monotone;
          Alcotest.test_case "invalid entry rejected" `Quick
            test_invalid_entry;
        ] );
      ( "stat",
        [
          Alcotest.test_case "basics" `Quick test_stat_basics;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stat_percentile_interpolation;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "static arsenal weaker than adaptive" `Quick
            test_arsenal_weaker_than_adaptive;
          Alcotest.test_case "samples and summary" `Quick
            test_mttc_samples_and_summary;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_mttc_parallel_matches_domains;
          Alcotest.test_case "mttc parallel uniform exploit" `Quick
            test_mttc_parallel_uniform_exploit;
          Alcotest.test_case "random stream pins" `Quick test_stream_pins;
          Alcotest.test_case "integer attempt = float draw" `Quick
            test_attempt_matches_float;
          Alcotest.test_case "mttc allocates nothing per attempt" `Quick
            test_mttc_allocation;
        ] );
      ( "defense",
        [
          Alcotest.test_case "zero detection = undefended" `Quick
            test_defended_zero_rate_is_undefended;
          Alcotest.test_case "perfect detection contains" `Quick
            test_defended_perfect_detection_contains;
          Alcotest.test_case "containment monotone in rate" `Quick
            test_defended_rate_monotone;
          Alcotest.test_case "validation" `Quick test_defended_validation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_mttc_at_least_distance ]);
    ]
