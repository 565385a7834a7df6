(** Severity-weighted vulnerability similarity.

    Generalizes Definition 1 along the paper's future-work direction
    ("a more systematic way to estimate the vulnerability similarity"):
    instead of counting every shared CVE equally, each vulnerability [v]
    contributes a weight [w(v)], giving the weighted Jaccard coefficient

    {v sim_w(x, y) = sum_{v in Vx ∩ Vy} w(v) / sum_{v in Vx ∪ Vy} w(v) v}

    With [w = 1] this is exactly the paper's metric.  The default weight
    is the CVE's CVSS base score scaled to [0,1] (unscored entries count
    as a middling 5.0), so that two products sharing critical
    vulnerabilities are considered far more alike than two sharing only
    low-severity ones. *)

val weighted_jaccard :
  weight:(string -> float) -> Nvd.String_set.t -> Nvd.String_set.t -> float
(** Weighted Jaccard of two id sets; [weight] maps a CVE id to its
    weight.  Both sets empty (or all weights zero) yields 0. *)

val of_nvd :
  ?since:int ->
  ?until:int ->
  ?weight:(Cve.t -> float) ->
  Nvd.t ->
  (string * Cpe.t) list ->
  Similarity.table
(** Severity-weighted similarity table over named CPE patterns.  The
    stored "shared counts" are the plain intersection cardinalities (for
    display); the similarity values are weighted.
    @raise Invalid_argument if a weight is negative. *)
