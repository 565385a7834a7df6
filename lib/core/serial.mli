(** JSON serialization of networks and assignments.

    A stable on-disk format so diversification problems and their
    solutions can move between the CLI, external tooling and version
    control:

    {v
    { "services": [ { "name": "os",
                      "products": ["WinXP", "Win7"],
                      "similarity": [1.0, 0.278, 0.278, 1.0] } ],
      "hosts":    [ { "name": "c1",
                      "services": [ { "service": "os",
                                      "candidates": ["Win7"] } ] } ],
      "links":    [ ["c1", "c2"] ] }
    v}

    Assignments are host-name keyed:
    [{ "assignment": [ { "host": "c1", "products": { "os": "Win7" } } ] }].
    Candidate lists may be omitted ("all products"); hosts and products
    are referenced by name, so files survive reordering. *)

val network_to_string : ?pretty:bool -> Network.t -> string

val network_of_json : Netdiv_vuln.Json.t -> (Network.t, string) result
val network_of_string : string -> (Network.t, string) result

val assignment_to_string : ?pretty:bool -> Assignment.t -> string

val assignment_of_string :
  Network.t -> string -> (Assignment.t, string) result

(** {2 Solve checkpoints}

    Periodic best-labeling snapshots written during long solves and read
    back by [--resume]:
    [{ "netdiv_checkpoint": 1, "energy": E, "iterations": N,
       "labeling": [ ... ] }].
    The labeling is in MRF variable order for the encoding that produced
    it; {!Optimize} validates it against the current encoding on resume
    and falls back to a fresh solve when it does not fit.  [energy] is
    advisory (re-evaluated on resume). *)

type checkpoint = {
  ck_energy : float;       (** energy at snapshot time (advisory) *)
  ck_iterations : int;     (** sweeps spent when the snapshot was taken *)
  ck_labeling : int array; (** best labeling, MRF variable order *)
}

val checkpoint_to_string : ?pretty:bool -> checkpoint -> string

val checkpoint_of_string : string -> (checkpoint, string) result
(** Path-qualified errors ([labeling[7] = -2 is not a label index]);
    never raises on malformed input. *)
