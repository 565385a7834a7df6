type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

(* encode a Unicode code point as UTF-8 into the buffer *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail st.pos (Printf.sprintf "expected %C, found %C" c x)
  | None -> fail st.pos (Printf.sprintf "expected %C, found end of input" c)

let expect_keyword st keyword value =
  let n = String.length keyword in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = keyword
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" keyword)

let hex_digit pos c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail pos "bad hex digit in \\u escape"

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st.pos "truncated \\u escape";
  let v =
    (hex_digit st.pos st.src.[st.pos] lsl 12)
    lor (hex_digit st.pos st.src.[st.pos + 1] lsl 8)
    lor (hex_digit st.pos st.src.[st.pos + 2] lsl 4)
    lor hex_digit st.pos st.src.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st.pos "truncated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let hi = parse_hex4 st in
                if hi >= 0xD800 && hi <= 0xDBFF then begin
                  (* expect a low surrogate *)
                  if
                    st.pos + 2 <= String.length st.src
                    && st.src.[st.pos] = '\\'
                    && st.src.[st.pos + 1] = 'u'
                  then begin
                    st.pos <- st.pos + 2;
                    let lo = parse_hex4 st in
                    if lo < 0xDC00 || lo > 0xDFFF then
                      fail st.pos "invalid low surrogate";
                    add_utf8 buf
                      (0x10000
                      + ((hi - 0xD800) lsl 10)
                      + (lo - 0xDC00))
                  end
                  else fail st.pos "lone high surrogate"
                end
                else if hi >= 0xDC00 && hi <= 0xDFFF then
                  fail st.pos "lone low surrogate"
                else add_utf8 buf hi
            | c -> fail (st.pos - 1) (Printf.sprintf "bad escape \\%c" c));
            loop ()
        )
    | Some c when Char.code c < 0x20 ->
        fail st.pos "unescaped control character"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_digits () =
    let any = ref false in
    let continue = ref true in
    while !continue do
      match peek st with
      | Some '0' .. '9' ->
          any := true;
          advance st
      | _ -> continue := false
    done;
    !any
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  (match peek st with
  | Some '0' -> advance st
  | Some '1' .. '9' -> ignore (consume_digits ())
  | _ -> fail st.pos "bad number");
  (match peek st with
  | Some '.' ->
      advance st;
      if not (consume_digits ()) then fail st.pos "bad fraction"
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      if not (consume_digits ()) then fail st.pos "bad exponent"
  | _ -> ());
  float_of_string (String.sub st.src start (st.pos - start))

let default_depth_limit = 512

(* [depth] counts open containers; degenerate feeds like "[[[[…" would
   otherwise overflow the stack of this recursive-descent parser *)
let rec parse_value st ~depth_limit depth =
  skip_ws st;
  if depth > depth_limit then
    fail st.pos
      (Printf.sprintf "nesting deeper than %d levels" depth_limit);
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Object []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let value = parse_value st ~depth_limit (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, value) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((key, value) :: acc)
          | _ -> fail st.pos "expected ',' or '}'"
        in
        Object (members [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec items acc =
          let value = parse_value st ~depth_limit (depth + 1) in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items (value :: acc)
          | Some ']' ->
              advance st;
              List.rev (value :: acc)
          | _ -> fail st.pos "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> expect_keyword st "true" (Bool true)
  | Some 'f' -> expect_keyword st "false" (Bool false)
  | Some 'n' -> expect_keyword st "null" Null
  | Some ('-' | '0' .. '9') -> Number (parse_number st)
  | Some c -> fail st.pos (Printf.sprintf "unexpected %C" c)

let parse ?(depth_limit = default_depth_limit) s =
  let st = { src = s; pos = 0 } in
  match parse_value st ~depth_limit 0 with
  | v ->
      skip_ws st;
      if st.pos < String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "JSON error at offset %d: %s" pos msg)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * depth) ' ')
    end
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number f -> Buffer.add_string buf (number_to_string f)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            emit (depth + 1) item)
          items;
        indent depth;
        Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            escape_string buf key;
            Buffer.add_char buf ':';
            if pretty then Buffer.add_char buf ' ';
            emit (depth + 1) value)
          fields;
        indent depth;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let path keys t =
  List.fold_left
    (fun acc key -> Option.bind acc (member key))
    (Some t) keys

let to_list = function List items -> Some items | _ -> None
let to_float = function Number f -> Some f | _ -> None
let to_str = function String s -> Some s | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Number x, Number y -> x = y
  | String x, String y -> String.equal x y
  | List xs, List ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Object xs, Object ys ->
      let sort fields =
        List.sort (fun (a, _) (b, _) -> String.compare a b) fields
      in
      let xs = sort xs and ys = sort ys in
      List.length xs = List.length ys
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
           xs ys
  | _ -> false
