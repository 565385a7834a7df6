(* In-memory spans around the layer calls of a deployment.

   Recording is off by default and [with_] then costs one branch, so the
   untraced runs that give the end-to-end metrics time the program alone.
   When on, every call records its name, interval, parent span and
   deployment id, with the allocation and major-collection deltas over
   it.  Spans stay in memory until [dump] writes them out. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span *)
  deployment : int;
  name : string;
  t0 : float;
  t1 : float;
  alloc_words : float;  (** minor plus direct major allocation *)
  minor_words : float;
  major_collections : int;
}

let enabled = ref false
let recorded = ref []
let next_id = ref 0
let open_spans = ref []
let deployment = ref 0

(* [Gc.quick_stat] refreshes its minor-word count only at minor
   collections; [Gc.minor_words] is exact for the calling domain. *)
let direct_major (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let g1 = Gc.quick_stat () and m1 = Gc.minor_words () in
        open_spans := List.tl !open_spans;
        recorded :=
          {
            id;
            parent;
            deployment = !deployment;
            name;
            t0;
            t1;
            alloc_words = m1 -. m0 +. direct_major g1 -. direct_major g0;
            minor_words = m1 -. m0;
            major_collections =
              g1.Gc.major_collections - g0.Gc.major_collections;
          }
          :: !recorded)
  end

let spans () = List.rev !recorded
let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus what its direct children cover
   (the children of one span run one after another, never overlapping). *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  let cover id = Option.value ~default:0.0 (Hashtbl.find_opt covered id) in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent (cover s.parent +. duration s))
    spans;
  List.map (fun s -> (s, duration s -. cover s.id)) spans

(* One JSON object per line, times in seconds from [origin]. *)
let dump ~origin path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"deployment\": %d, \"name\": \
             \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f, \
             \"alloc_words\": %.0f, \"minor_words\": %.0f, \
             \"major_collections\": %d}\n"
            s.id s.parent s.deployment s.name (s.t0 -. origin)
            (s.t1 -. origin) self s.alloc_words s.minor_words
            s.major_collections)
        (self_times (spans ())))
