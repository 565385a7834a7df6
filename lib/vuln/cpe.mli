(** Common Platform Enumeration (CPE) names.

    CPE is the naming scheme the NVD uses to identify the products affected
    by a vulnerability, e.g. [cpe:/o:microsoft:windows_7].  This module
    implements the URI-style binding used throughout the paper (Section III),
    restricted to the fields the similarity analysis needs: part, vendor,
    product and an optional version. *)

type part =
  | Application      (** [a] — application software *)
  | Operating_system (** [o] — operating systems *)
  | Hardware         (** [h] — hardware devices *)

type t = private {
  part : part;
  vendor : string;
  product : string;
  version : string option;
}

val make : ?version:string -> part:part -> vendor:string -> string -> t
(** [make ~part ~vendor product] builds a CPE name.  Vendor and product are
    normalized to lowercase with spaces replaced by underscores.
    @raise Invalid_argument if vendor or product is empty. *)

val of_string : string -> (t, string) result
(** [of_string s] parses a URI binding such as ["cpe:/o:microsoft:windows_7"]
    or ["cpe:/a:google:chrome:50.0"].  Trailing ["-"] or ["*"] version fields
    are treated as "no version". *)

val of_string_exn : string -> t
(** Like {!of_string} but raises [Invalid_argument] on parse errors. *)

val to_string : t -> string
(** [to_string c] renders the URI binding, e.g. ["cpe:/o:microsoft:windows_7"]. *)

val compare : t -> t -> int

val matches : pattern:t -> t -> bool
(** [matches ~pattern c] is true when [c] falls under [pattern]: parts,
    vendors and products must be equal, and if [pattern] carries a version it
    must equal [c]'s version (a version-less pattern matches any version).
    This mirrors how CPE queries of different granularities select NVD
    entries. *)
