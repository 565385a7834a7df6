(** CVSS base scores (v2 and v3.1).

    The paper weighs all vulnerabilities equally and lists severity-aware
    similarity as future work (citing "Some vulnerabilities are different
    than others").  This module implements the Common Vulnerability
    Scoring System base metrics so that {!Weighted} can weight the
    Jaccard overlap by severity: vector parsing ([AV:N/AC:L/...]), the
    official base-score formulas, and severity bands. *)

(** {1 CVSS v2} *)

module V2 : sig
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

  val of_vector : string -> (t, string) result
  (** Parses a v2 base vector such as ["AV:N/AC:L/Au:N/C:P/I:P/A:P"]
      (metrics in any order; each exactly once). *)

  val to_vector : t -> string

  val base_score : t -> float
  (** Official v2 equation, rounded to one decimal; in [0, 10]. *)
end

(** {1 CVSS v3.1} *)

module V3 : sig
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

  val of_vector : string -> (t, string) result
  (** Parses a v3.1 base vector such as
      ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"] (the
      ["CVSS:3.x/"] prefix is optional). *)

  val to_vector : t -> string

  val base_score : t -> float
  (** Official v3.1 equation with its round-up-to-one-decimal rule. *)
end

type severity = None_ | Low | Medium | High | Critical

val severity_of_score : float -> severity
(** v3 qualitative bands: 0 → None, (0,4) → Low, [4,7) → Medium,
    [7,9) → High, [9,10] → Critical. *)

val score : string -> (float, string) result
(** [score vector] parses either a v2 or a v3.1 vector (v3.1 is detected
    by a [CVSS:3] prefix or a [PR:] metric) and returns its base score. *)

