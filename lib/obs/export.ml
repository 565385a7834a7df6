(* Trace exporters.  See export.mli for the formats.

   The writers are hand-rolled (the library stays dependency-free); the
   only subtlety is keeping the output inside the JSON grammar: names
   are escaped, and non-finite floats — which JSON numbers cannot
   carry — are emitted as strings. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else Printf.sprintf "\"%s\"" (escape (Float.to_string v))

let ph = function
  | Obs.Begin -> "B"
  | Obs.End -> "E"
  | Obs.Instant -> "i"
  | Obs.Sample -> "C"

(* One Chrome trace_event object; [t0] rebases timestamps so the trace
   starts at zero (ts is microseconds in the format). *)
let add_event buf t0 (e : Obs.event) =
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
       (escape e.Obs.name) (ph e.Obs.kind)
       ((e.Obs.ts -. t0) *. 1e6)
       e.Obs.tid);
  (match e.Obs.kind with
  | Obs.Instant -> Buffer.add_string buf ",\"s\":\"t\""
  | Obs.Sample ->
      Buffer.add_string buf
        (Printf.sprintf ",\"args\":{\"value\":%s}" (json_float e.Obs.value))
  | Obs.Begin | Obs.End -> ());
  Buffer.add_char buf '}'

let epoch events =
  match events with [] -> 0.0 | e :: _ -> e.Obs.ts

let chrome_string () =
  let events = Obs.events () in
  let t0 = epoch events in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      add_event buf t0 e)
    events;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let add_jsonl buf ~t0 events =
  List.iter
    (fun e ->
      add_event buf t0 e;
      Buffer.add_char buf '\n')
    events

let jsonl_string () =
  let events = Obs.events () in
  let buf = Buffer.create 4096 in
  add_jsonl buf ~t0:(epoch events) events;
  Buffer.contents buf

let write_trace ~path =
  let contents =
    if Filename.check_suffix path ".jsonl" then jsonl_string ()
    else chrome_string ()
  in
  Netdiv_fault.Io.write_atomic ~path contents

(* -------------------------------------------------------- span rollup *)

let span_rollup events =
  (* per-tid stack of open (name, ts) frames; an End pops the nearest
     matching open and abandons anything stacked above it, so an
     unbalanced begin_span cannot corrupt later pairings *)
  let stacks : (int, (string * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks tid s;
        s
  in
  let agg : (string, (int * float * float) ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (e : Obs.event) ->
      match e.Obs.kind with
      | Obs.Begin ->
          let s = stack e.Obs.tid in
          s := (e.Obs.name, e.Obs.ts) :: !s
      | Obs.End -> (
          let s = stack e.Obs.tid in
          let rec split acc = function
            | [] -> None
            | (n, t) :: rest when n = e.Obs.name -> Some (t, rest, acc)
            | frame :: rest -> split (frame :: acc) rest
          in
          match split [] !s with
          | None -> ()
          | Some (t, rest, _abandoned) ->
              s := rest;
              let d = e.Obs.ts -. t in
              let cell =
                match Hashtbl.find_opt agg e.Obs.name with
                | Some c -> c
                | None ->
                    let c = ref (0, 0.0, 0.0) in
                    Hashtbl.add agg e.Obs.name c;
                    c
              in
              let count, total, mx = !cell in
              cell := (count + 1, total +. d, if d > mx then d else mx))
      | Obs.Instant | Obs.Sample -> ())
    events;
  let rows =
    Hashtbl.fold
      (fun name cell acc ->
        let count, total, mx = !cell in
        (name, count, total, mx) :: acc)
      agg []
  in
  List.sort
    (fun (na, _, ta, _) (nb, _, tb, _) ->
      let c = Float.compare tb ta in
      if c <> 0 then c else compare na nb)
    rows
