(** CVE entries.

    A minimal model of an NVD record: the CVE identifier, its publication
    year, an optional CVSS base score, a one-line summary and the list of
    affected CPE names (Table I in the paper). *)

type t = private {
  id : string;            (** canonical id, e.g. ["CVE-2016-7153"] *)
  year : int;             (** year encoded in the id *)
  cvss : float option;    (** CVSS base score in [0,10] if known *)
  summary : string;
  affected : Cpe.t list;  (** CPE names of affected products *)
}

val make :
  ?cvss:float -> ?summary:string -> id:string -> Cpe.t list -> (t, string) result
(** [make ~id affected] validates [id] against the [CVE-YYYY-NNNN...] format
    (sequence number of at least four digits) and checks that [cvss], when
    given, lies in [0,10]. *)

val make_exn :
  ?cvss:float -> ?summary:string -> id:string -> Cpe.t list -> t
(** Like {!make} but raises [Invalid_argument]. *)

val affects : t -> pattern:Cpe.t -> bool
(** [affects cve ~pattern] is true when some affected CPE of [cve] falls
    under [pattern] (see {!Cpe.matches}). *)

val compare : t -> t -> int
