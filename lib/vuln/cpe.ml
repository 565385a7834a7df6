type part = Application | Operating_system | Hardware

type t = {
  part : part;
  vendor : string;
  product : string;
  version : string option;
}

let part_to_char = function
  | Application -> 'a'
  | Operating_system -> 'o'
  | Hardware -> 'h'

let part_of_char = function
  | 'a' -> Some Application
  | 'o' -> Some Operating_system
  | 'h' -> Some Hardware
  | _ -> None

let normalize s =
  String.lowercase_ascii s
  |> String.map (function ' ' -> '_' | c -> c)

let make ?version ~part ~vendor product =
  if vendor = "" then invalid_arg "Cpe.make: empty vendor";
  if product = "" then invalid_arg "Cpe.make: empty product";
  let version =
    match version with
    | Some ("" | "-" | "*") | None -> None
    | Some v -> Some (normalize v)
  in
  { part; vendor = normalize vendor; product = normalize product; version }

let of_string s =
  let prefix = "cpe:/" in
  let plen = String.length prefix in
  if String.length s <= plen || String.sub s 0 plen <> prefix then
    Error (Printf.sprintf "not a CPE URI binding: %S" s)
  else
    let rest = String.sub s plen (String.length s - plen) in
    match String.split_on_char ':' rest with
    | part_s :: vendor :: product :: tail when String.length part_s = 1 -> (
        match part_of_char part_s.[0] with
        | None -> Error (Printf.sprintf "unknown CPE part %S in %S" part_s s)
        | Some part ->
            if vendor = "" || product = "" then
              Error (Printf.sprintf "empty vendor or product in %S" s)
            else
              let version = match tail with v :: _ -> Some v | [] -> None in
              Ok (make ?version ~part ~vendor product))
    | _ -> Error (Printf.sprintf "malformed CPE %S" s)

let of_string_exn s =
  match of_string s with Ok c -> c | Error msg -> invalid_arg msg

let to_string { part; vendor; product; version } =
  let base = Printf.sprintf "cpe:/%c:%s:%s" (part_to_char part) vendor product in
  match version with None -> base | Some v -> base ^ ":" ^ v

let compare a b = Stdlib.compare (to_string a) (to_string b)

let matches ~pattern c =
  pattern.part = c.part && pattern.vendor = c.vendor
  && pattern.product = c.product
  && match pattern.version with None -> true | Some v -> Some v = c.version
