(* Smoke test of the benchmark: every workload at its miniature size
   passes the correctness gate and emits every catalogued metric with its
   unit, in both modes; a corrupted energy trips the gate; BENCHMARK.json
   declares the same workloads and metrics. *)

module W = Perfbench.Work

let failures = ref 0

let check ok msg =
  if not ok then begin
    incr failures;
    prerr_endline ("FAIL " ^ msg)
  end

let find_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go i

let contains s sub = find_from s 0 sub <> None

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Runs the benchmark binary; returns its exit code and stdout. *)
let bench args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Filename.concat Filename.current_dir_name "bench.exe" in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, out)
  | _ -> (-1, out)

(* The metric must appear as "name": {"value": V, "unit": "U"} with V a
   finite number. *)
let check_metric label line (name, unit) =
  let key = Printf.sprintf "\"%s\": {\"value\": " name in
  match find_from line 0 key with
  | None -> check false (Printf.sprintf "%s: metric %s missing" label name)
  | Some i ->
      let start = i + String.length key in
      let stop = String.index_from line start ',' in
      let v = String.sub line start (stop - start) in
      let finite =
        match float_of_string_opt v with
        | Some f -> Float.is_finite f
        | None -> name = "par.speedup_2j" && v = "\"unmeasured\"" && W.cores () < 2
      in
      check finite (Printf.sprintf "%s: %s has value %s" label name v);
      check
        (find_from line stop (Printf.sprintf ", \"unit\": \"%s\"}" unit)
        = Some stop)
        (Printf.sprintf "%s: %s lacks unit %s" label name unit)

let () =
  List.iter
    (fun (label, name) ->
      let d = W.deploy (W.generate ~size:W.Tiny name ~seed:3) in
      check (W.failures d = []) (label ^ ": gate failed on a clean deployment");
      let s = W.reported d in
      let corrupted =
        {
          d with
          W.solves =
            List.map
              (fun x ->
                if x == s then
                  {
                    s with
                    W.result =
                      {
                        s.W.result with
                        Netdiv_mrf.Solver.energy =
                          s.W.result.Netdiv_mrf.Solver.energy *. 1.001 +. 1e-3;
                      };
                  }
                else x)
              d.W.solves;
        }
      in
      check
        (List.exists
           (fun f -> contains f "reported energy")
           (W.failures corrupted))
        (label ^ ": gate missed a corrupted energy");
      List.iter
        (fun (trace, catalogue) ->
          let code, out =
            bench
              [
                "--workload"; label; "--seed"; "3"; "--seconds"; "0";
                "--trace"; trace; "--tiny";
              ]
          in
          let line = last_line out in
          let tag = Printf.sprintf "%s --trace %s" label trace in
          check (code = 0) (Printf.sprintf "%s: exit code %d" tag code);
          check (contains line "\"correct\": true") (tag ^ ": not correct");
          List.iter (check_metric tag line) catalogue)
        [ ("0", W.end_to_end); ("1", W.per_layer) ])
    W.names;
  let code, out = bench [ "--workload"; "no-such-workload" ] in
  check (code <> 0 && out = "") "an unknown workload must fail without a result";
  let spec = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  List.iter
    (fun (label, _) ->
      check
        (contains spec (Printf.sprintf "\"name\": \"%s\"" label))
        ("BENCHMARK.json lacks workload " ^ label))
    W.names;
  List.iter
    (fun (name, unit) ->
      check
        (contains spec
           (Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\"" name unit))
        ("BENCHMARK.json lacks metric " ^ name ^ " in " ^ unit))
    (W.end_to_end @ W.per_layer);
  if !failures > 0 then exit 1
