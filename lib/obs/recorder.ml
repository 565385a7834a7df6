(* Convergence flight recorder: a bounded sink of the Obs event stream.
   See recorder.mli for the contract.  The ring and its per-domain
   installation live in Obs, whose record path writes into them; this
   module names a ring and writes its dump. *)

type t = Obs.recorder

(* sized so a 100-zone solve (8 rounds of ~310 events) drops nothing *)
let default_capacity = 4096

let create ?dump_path ?(capacity = default_capacity) name =
  {
    Obs.rname = name;
    dump_path;
    t0 = Obs.Clock.now ();
    ring = Obs.new_ring capacity;
    last_reason = None;
  }

let name r = r.Obs.rname
let capacity r = Obs.ring_capacity r.Obs.ring
let recorded r = Obs.ring_recorded r.Obs.ring
let dropped r = max 0 (recorded r - capacity r)
let events r = Obs.ring_events r.Obs.ring
let with_recorder r f = Obs.with_installed (Some r) f
let suspended f = Obs.with_installed None f
let current = Obs.installed

let dump_string ~reason r =
  let events = events r in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"netdiv_recorder\":2,\"name\":\"%s\",\"reason\":\"%s\",\
        \"capacity\":%d,\"recorded\":%d,\"dropped\":%d}\n"
       (Export.escape r.Obs.rname) (Export.escape reason) (capacity r)
       (recorded r) (dropped r));
  Export.add_jsonl buf ~t0:r.Obs.t0 events;
  Buffer.contents buf

let last_dump r = r.Obs.last_reason

let dump ?path ~reason r =
  match if Option.is_some path then path else r.Obs.dump_path with
  | None -> Ok ()
  | Some path -> (
      match Netdiv_fault.Io.write_atomic ~path (dump_string ~reason r) with
      | Ok () ->
          r.Obs.last_reason <- Some reason;
          Ok ()
      | Error _ as e -> e)
