type t = {
  id : string;
  year : int;
  cvss : float option;
  summary : string;
  affected : Cpe.t list;
}

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* Valid ids look like CVE-2016-7153; sequence numbers have >= 4 digits. *)
let parse_id id =
  match String.split_on_char '-' id with
  | [ "CVE"; year; seq ]
    when String.length year = 4 && is_digits year
         && String.length seq >= 4 && is_digits seq ->
      Some (int_of_string year)
  | _ -> None

let make ?cvss ?(summary = "") ~id affected =
  match parse_id id with
  | None -> Error (Printf.sprintf "malformed CVE id %S" id)
  | Some year -> (
      match cvss with
      | Some s when not (s >= 0.0 && s <= 10.0) ->
          Error (Printf.sprintf "CVSS score %g out of range for %s" s id)
      | _ -> Ok { id; year; cvss; summary; affected })

let make_exn ?cvss ?summary ~id affected =
  match make ?cvss ?summary ~id affected with
  | Ok t -> t
  | Error msg -> invalid_arg msg

let affects t ~pattern = List.exists (fun c -> Cpe.matches ~pattern c) t.affected

let compare a b = Stdlib.compare a.id b.id
