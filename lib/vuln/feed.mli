(** NVD JSON data-feed reader and writer (schema 1.1).

    The NVD publishes yearly feeds such as [nvdcve-1.1-2016.json]; the
    paper's pipeline fetches them through CVE-SEARCH.  This module
    decodes the subset of the schema the similarity analysis needs — CVE
    id, description, publication year, affected CPEs from the
    configuration nodes, CVSS v2/v3 base scores — and can write an
    {!Nvd.t} back out in the same shape, so corpora round-trip through
    files.

    Both CPE 2.2 URIs ([cpe:/o:microsoft:windows_7]) and CPE 2.3
    formatted strings ([cpe:2.3:o:microsoft:windows_7:*:*:...]) are
    accepted. *)

val cpe23_of_string : string -> (Cpe.t, string) result
(** Parses a CPE 2.3 formatted string, mapping [*]/[-] version fields to
    "no version". *)

val of_string : string -> (Cve.t list * string list, string) result
(** [of_string s] parses a feed document and extracts its CVE items.
    Returns the decoded entries and a list of warnings for items that
    were skipped (malformed id, no usable CPE, a NaN or out-of-range
    [0,10] CVSS base score — the warning names the CVE id and the JSON
    path); only a malformed or structurally alien document yields
    [Error]. *)

val load_into : Nvd.t -> string -> (int * string list, string) result
(** [load_into db contents] decodes a feed and adds every entry to [db];
    returns the number added and the warnings. *)

val to_string : ?pretty:bool -> Nvd.t -> string
(** Writes a database as a feed document ([CVE_Items] with
    [CVE_data_meta], description, configurations with CPE 2.2 URIs,
    [baseMetricV2.cvssV2.baseScore] and [publishedDate]), serialized
    with {!Json.to_string}. *)
