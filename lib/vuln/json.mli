(** Minimal JSON (RFC 8259) parser and printer.

    The NVD distributes its data as JSON feeds; the paper's pipeline
    (CVE-SEARCH) ingests them.  This sealed environment has no JSON
    library, so the {!Feed} reader is built on this small, dependency-free
    implementation: full escape handling (including [\uXXXX] with
    surrogate pairs encoded to UTF-8), numbers as floats, and precise
    error positions. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

val parse : ?depth_limit:int -> string -> (t, string) result
(** Parses a complete JSON document (trailing whitespace allowed,
    trailing garbage rejected).  Errors carry a byte offset.
    [depth_limit] (default 512) bounds container nesting so adversarial
    or degenerate feeds fail with an error instead of overflowing the
    stack of the recursive-descent parser. *)

val to_string : ?pretty:bool -> t -> string
(** Serializes; [pretty] adds two-space indentation.  Strings are escaped
    minimally (quotes, backslashes, control characters). *)

(** {1 Accessors} — all return [None] on shape mismatch. *)

val member : string -> t -> t option
(** Object field lookup. *)

val path : string list -> t -> t option
(** Nested {!member}. *)

val to_list : t -> t list option
val to_float : t -> float option
val to_str : t -> string option

val equal : t -> t -> bool
(** Structural equality with unordered object fields. *)
