let split_metrics s =
  String.split_on_char '/' s
  |> List.filter (fun part -> part <> "")
  |> List.map (fun part ->
         match String.index_opt part ':' with
         | Some k ->
             Ok
               ( String.sub part 0 k,
                 String.sub part (k + 1) (String.length part - k - 1) )
         | None -> Error (Printf.sprintf "malformed metric %S" part))
  |> List.fold_left
       (fun acc item ->
         match (acc, item) with
         | Error e, _ -> Error e
         | _, Error e -> Error e
         | Ok xs, Ok x -> Ok (x :: xs))
       (Ok [])
  |> Result.map List.rev

let lookup metrics name =
  match List.assoc_opt name metrics with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing metric %s" name)

let check_once metrics =
  let rec go seen = function
    | [] -> Ok ()
    | (name, _) :: rest ->
        if List.mem name seen then
          Error (Printf.sprintf "duplicate metric %s" name)
        else go (name :: seen) rest
  in
  go [] metrics

module V2 = struct
  type access_vector = Local | Adjacent | Network
  type access_complexity = High | Medium | Low
  type authentication = Multiple | Single | None_required
  type impact = None_ | Partial | Complete

  type t = {
    av : access_vector;
    ac : access_complexity;
    au : authentication;
    c : impact;
    i : impact;
    a : impact;
  }

  let impact_of_string = function
    | "N" -> Ok None_
    | "P" -> Ok Partial
    | "C" -> Ok Complete
    | v -> Error (Printf.sprintf "bad impact %S" v)

  let of_vector s =
    let ( let* ) = Result.bind in
    let* metrics = split_metrics s in
    let* () = check_once metrics in
    let* av =
      let* v = lookup metrics "AV" in
      match v with
      | "L" -> Ok Local
      | "A" -> Ok Adjacent
      | "N" -> Ok Network
      | v -> Error (Printf.sprintf "bad AV %S" v)
    in
    let* ac =
      let* v = lookup metrics "AC" in
      match v with
      | "H" -> Ok High
      | "M" -> Ok Medium
      | "L" -> Ok Low
      | v -> Error (Printf.sprintf "bad AC %S" v)
    in
    let* au =
      let* v = lookup metrics "Au" in
      match v with
      | "M" -> Ok Multiple
      | "S" -> Ok Single
      | "N" -> Ok None_required
      | v -> Error (Printf.sprintf "bad Au %S" v)
    in
    let* c = Result.bind (lookup metrics "C") impact_of_string in
    let* i = Result.bind (lookup metrics "I") impact_of_string in
    let* a = Result.bind (lookup metrics "A") impact_of_string in
    Ok { av; ac; au; c; i; a }

  let impact_to_string = function None_ -> "N" | Partial -> "P" | Complete -> "C"

  let to_vector t =
    Printf.sprintf "AV:%s/AC:%s/Au:%s/C:%s/I:%s/A:%s"
      (match t.av with Local -> "L" | Adjacent -> "A" | Network -> "N")
      (match t.ac with High -> "H" | Medium -> "M" | Low -> "L")
      (match t.au with Multiple -> "M" | Single -> "S" | None_required -> "N")
      (impact_to_string t.c) (impact_to_string t.i) (impact_to_string t.a)

  let impact_weight = function
    | None_ -> 0.0
    | Partial -> 0.275
    | Complete -> 0.660

  let round1 x = Float.round (x *. 10.0) /. 10.0

  let base_score t =
    let impact =
      10.41
      *. (1.0
          -. (1.0 -. impact_weight t.c)
             *. (1.0 -. impact_weight t.i)
             *. (1.0 -. impact_weight t.a))
    in
    let av =
      match t.av with Local -> 0.395 | Adjacent -> 0.646 | Network -> 1.0
    in
    let ac = match t.ac with High -> 0.35 | Medium -> 0.61 | Low -> 0.71 in
    let au =
      match t.au with
      | Multiple -> 0.45
      | Single -> 0.56
      | None_required -> 0.704
    in
    let exploitability = 20.0 *. av *. ac *. au in
    let f_impact = if impact = 0.0 then 0.0 else 1.176 in
    round1
      (((0.6 *. impact) +. (0.4 *. exploitability) -. 1.5) *. f_impact)
end

module V3 = struct
  type attack_vector = Network | Adjacent | Local | Physical
  type attack_complexity = Low | High
  type privileges = None_ | Low | High
  type interaction = None_ | Required
  type scope = Unchanged | Changed
  type impact = High | Low | None_

  type t = {
    av : attack_vector;
    ac : attack_complexity;
    pr : privileges;
    ui : interaction;
    s : scope;
    c : impact;
    i : impact;
    a : impact;
  }

  let impact_of_string = function
    | "H" -> Ok (High : impact)
    | "L" -> Ok Low
    | "N" -> Ok None_
    | v -> Error (Printf.sprintf "bad impact %S" v)

  let strip_prefix s =
    let prefixes = [ "CVSS:3.1/"; "CVSS:3.0/" ] in
    List.fold_left
      (fun acc p ->
        let pl = String.length p in
        if String.length acc >= pl && String.sub acc 0 pl = p then
          String.sub acc pl (String.length acc - pl)
        else acc)
      s prefixes

  let of_vector s =
    let ( let* ) = Result.bind in
    let* metrics = split_metrics (strip_prefix s) in
    let* () = check_once metrics in
    let* av =
      let* v = lookup metrics "AV" in
      match v with
      | "N" -> Ok Network
      | "A" -> Ok Adjacent
      | "L" -> Ok Local
      | "P" -> Ok Physical
      | v -> Error (Printf.sprintf "bad AV %S" v)
    in
    let* ac =
      let* v = lookup metrics "AC" in
      match v with
      | "L" -> Ok (Low : attack_complexity)
      | "H" -> Ok High
      | v -> Error (Printf.sprintf "bad AC %S" v)
    in
    let* pr =
      let* v = lookup metrics "PR" in
      match v with
      | "N" -> Ok (None_ : privileges)
      | "L" -> Ok Low
      | "H" -> Ok High
      | v -> Error (Printf.sprintf "bad PR %S" v)
    in
    let* ui =
      let* v = lookup metrics "UI" in
      match v with
      | "N" -> Ok (None_ : interaction)
      | "R" -> Ok Required
      | v -> Error (Printf.sprintf "bad UI %S" v)
    in
    let* scope =
      let* v = lookup metrics "S" in
      match v with
      | "U" -> Ok Unchanged
      | "C" -> Ok Changed
      | v -> Error (Printf.sprintf "bad S %S" v)
    in
    let* c = Result.bind (lookup metrics "C") impact_of_string in
    let* i = Result.bind (lookup metrics "I") impact_of_string in
    let* a = Result.bind (lookup metrics "A") impact_of_string in
    Ok { av; ac; pr; ui; s = scope; c; i; a }

  let impact_to_string = function
    | (High : impact) -> "H"
    | Low -> "L"
    | None_ -> "N"

  let to_vector t =
    Printf.sprintf "CVSS:3.1/AV:%s/AC:%s/PR:%s/UI:%s/S:%s/C:%s/I:%s/A:%s"
      (match t.av with
      | Network -> "N"
      | Adjacent -> "A"
      | Local -> "L"
      | Physical -> "P")
      (match t.ac with Low -> "L" | High -> "H")
      (match t.pr with None_ -> "N" | Low -> "L" | High -> "H")
      (match t.ui with None_ -> "N" | Required -> "R")
      (match t.s with Unchanged -> "U" | Changed -> "C")
      (impact_to_string t.c) (impact_to_string t.i) (impact_to_string t.a)

  let impact_weight = function
    | (High : impact) -> 0.56
    | Low -> 0.22
    | None_ -> 0.0

  (* official round-up to one decimal, with the v3.1 integer trick *)
  let roundup x =
    let i = Float.round (x *. 100_000.0) in
    if Float.rem i 10_000.0 = 0.0 then i /. 100_000.0
    else (Float.of_int (int_of_float (i /. 10_000.0)) +. 1.0) /. 10.0

  let base_score t =
    let iss =
      1.0
      -. (1.0 -. impact_weight t.c)
         *. (1.0 -. impact_weight t.i)
         *. (1.0 -. impact_weight t.a)
    in
    let impact =
      match t.s with
      | Unchanged -> 6.42 *. iss
      | Changed ->
          (7.52 *. (iss -. 0.029)) -. (3.25 *. ((iss -. 0.02) ** 15.0))
    in
    let av =
      match t.av with
      | Network -> 0.85
      | Adjacent -> 0.62
      | Local -> 0.55
      | Physical -> 0.2
    in
    let ac = match t.ac with Low -> 0.77 | High -> 0.44 in
    let pr =
      match (t.pr, t.s) with
      | (None_ : privileges), _ -> 0.85
      | Low, Unchanged -> 0.62
      | Low, Changed -> 0.68
      | High, Unchanged -> 0.27
      | High, Changed -> 0.5
    in
    let ui = match t.ui with None_ -> 0.85 | Required -> 0.62 in
    let exploitability = 8.22 *. av *. ac *. pr *. ui in
    if impact <= 0.0 then 0.0
    else
      match t.s with
      | Unchanged -> roundup (Float.min (impact +. exploitability) 10.0)
      | Changed ->
          roundup (Float.min (1.08 *. (impact +. exploitability)) 10.0)
end

type severity = None_ | Low | Medium | High | Critical

let severity_of_score s =
  if s <= 0.0 then None_
  else if s < 4.0 then Low
  else if s < 7.0 then Medium
  else if s < 9.0 then High
  else Critical

let score vector =
  let is_v3 =
    (String.length vector >= 6 && String.sub vector 0 6 = "CVSS:3")
    ||
    (* v3-only metric *)
    List.exists
      (fun part -> String.length part >= 3 && String.sub part 0 3 = "PR:")
      (String.split_on_char '/' vector)
  in
  if is_v3 then Result.map V3.base_score (V3.of_vector vector)
  else Result.map V2.base_score (V2.of_vector vector)
