(** Table IV: essential services and candidate products per host.

    Three services — operating system, web browser, database server — with
    the product ranges of the paper's Table IV:

    - OS: Windows XP, Windows 7, Ubuntu 14.04, Debian 8.0
    - Web browser: IE8, IE10, Chrome 50
    - Database: MS SQL 2008, MS SQL 2014, MySQL 5.5, MariaDB 10

    Similarities come from the curated CVE/NVD corpora of
    {!Netdiv_vuln.Corpus} (Tables II/III and the database table).

    The paper's per-host check-mark matrix does not survive in the
    machine-readable text, so the candidate lists are re-derived from each
    host's role exactly as Section VII-A describes: WinCC-family
    applications require a Windows OS and an IE browser (per the WinCC
    manual), the WSUS server z2 requires Windows and a Microsoft database,
    and the grey legacy hosts (p2, p3 and the WinCC-bound control hosts)
    run fixed outdated software — Windows XP and MS SQL 2008.  Flexible IT
    hosts may take any product. *)

val service_tables : (string * Netdiv_vuln.Similarity.table) array
(** Similarity tables restricted to the Table IV product ranges, in
    service-id order. *)

val role_services : string -> (int * int array) list
(** Service list and candidate products for a case-study host role, keyed
    by host name ("c1", "z4", ...).  Used both by {!network} and by the
    {!Scaled} generator, which stamps the same roles onto larger zones.
    @raise Invalid_argument for unknown names. *)

val network : unit -> Netdiv_core.Network.t
(** The full case-study network: Fig. 3 topology plus Table IV candidate
    lists. *)

val network_weighted : unit -> Netdiv_core.Network.t
(** The case-study network under severity-weighted variants of
    {!service_tables}: the synthetic NVD corpora are re-scored with
    {!Netdiv_vuln.Weighted.of_nvd} so shared critical CVEs count more
    than shared low-severity ones (the paper's future-work direction;
    used by the weighted-similarity ablation bench). *)

val host_constraints : Netdiv_core.Network.t -> Netdiv_core.Constr.t list
(** The C1 policy of Section VII-B: hosts z4, e1, r1 and v1 are required
    to keep the company's validated legacy build (Windows XP, IE8, and MS
    SQL 2008 where they run a database) — a policy that deliberately costs
    diversity, as in the paper. *)

val product_constraints : Netdiv_core.Network.t -> Netdiv_core.Constr.t list
(** The C2 policy: C1 plus global undesirable-combination constraints
    forbidding Internet Explorer on the Linux operating systems (the
    paper's example is IE10 on Ubuntu 14.04 at host v2). *)
