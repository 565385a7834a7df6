(** Convergence flight recorder: a fixed-size per-solver ring buffer of
    structured convergence frames, cheap enough to leave on at
    100k-host scale where the full event-buffer [--trace] is too heavy.

    A recorder holds the last [capacity] frames in O(capacity) memory;
    recording a frame is a mutex-guarded bounded write into
    preallocated arrays (no allocation, no growth).  Unlike the {!Obs}
    span/metric substrate, the recorder is {e not} gated on
    {!Obs.enabled}: it is on exactly while installed, so a production
    solve can keep its black box without paying for full tracing.

    {2 Installation}

    The active recorder is ambient per-domain state.  {!with_recorder}
    installs one for the duration of a callback; solver code records
    through the module-level frame functions, which are no-ops when no
    recorder is installed.  {!suspended} blanks the installation around
    a parallel region: pool workers — and the caller domain, which
    participates in chunk claiming — would otherwise record frames in a
    schedule-dependent order.  Orchestrator-level code records the
    deterministic per-round summary instead.

    {2 Dumps}

    {!dump} serializes the retained frames as one JSON document
    ([{"netdiv_recorder":1,...,"frames":[...]}]) written atomically via
    {!Netdiv_fault.Io.write_atomic}, so a dump torn by a crash or an
    injected fault never replaces a previous good black box.  The
    runner dumps on completion, watchdog abandonment and degradation;
    [netdiv report] renders the result. *)

type t

(** One bound-evaluation point of a monolithic solve (TRW-S/BP/SA).
    [s_t] is seconds since recorder creation (all frames share this
    base); [s_residual] is the best-energy/bound progress that drives
    stall detection; the [s_msg_*] fields are the per-iteration message
    counts by kernel class. *)
type sweep_frame = {
  s_t : float;
  s_iter : int;
  s_energy : float;
  s_bound : float;
  s_residual : float;
  s_msg_potts : int;
  s_msg_sparse : int;
  s_msg_generic : int;
}

(** One zone's sub-solve result in a round of [Trws.solve]'s zone
    schedule. *)
type zone_frame = {
  z_t : float;
  z_round : int;
  z_zone : int;
  z_energy : float;
  z_bound : float;
  z_iterations : int;
  z_converged : bool;
}

(** The reconciliation pass of a zone round: [b_disagree]
    boundary edges whose endpoints disagree, the edge-slave and
    zone-bound components of the dual, and the subgradient step used. *)
type boundary_frame = {
  b_t : float;
  b_round : int;
  b_disagree : int;
  b_edge_bound : float;
  b_zone_bound : float;
  b_step : float;
}

(** A point annotation (stage entry, retry, degradation). *)
type mark_frame = { mk_t : float; mk_label : string }

type frame =
  | Sweep of sweep_frame
  | Zone of zone_frame
  | Boundary of boundary_frame
  | Mark of mark_frame

val create : ?dump_path:string -> ?capacity:int -> string -> t
(** [create name] makes a recorder named [name] retaining the last
    [capacity] frames (default 1024, clamped to at least 1).
    [dump_path], when given, is the default destination for {!dump}. *)

val name : t -> string
val capacity : t -> int

val recorded : t -> int
(** Total frames ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Frames lost to ring wraparound: [max 0 (recorded - capacity)]. *)

val frames : t -> frame list
(** The retained frames, oldest first.  Call between parallel regions
    (materializes the read-out variant; recording stays allocation-free). *)

(** {1 Ambient installation} *)

val with_recorder : t -> (unit -> 'a) -> 'a
(** Install [t] as the current domain's recorder for the callback
    (exception-safe; restores the previous installation). *)

val suspended : (unit -> 'a) -> 'a
(** Run the callback with no recorder installed — wrap parallel regions
    whose work order is schedule-dependent. *)

val current : unit -> t option
(** The currently installed recorder, if any. *)

val installed : unit -> bool
(** [current () <> None], one DLS read — poll before computing frame
    arguments that are otherwise unneeded. *)

(** {1 Recording}

    All record functions write to the current domain's installed
    recorder and are no-ops without one. *)

val sweep :
  iter:int ->
  energy:float ->
  bound:float ->
  residual:float ->
  msg_potts:int ->
  msg_sparse:int ->
  msg_generic:int ->
  unit

val zone :
  round:int ->
  zone:int ->
  energy:float ->
  bound:float ->
  iterations:int ->
  converged:bool ->
  unit

val boundary :
  round:int ->
  disagree:int ->
  edge_bound:float ->
  zone_bound:float ->
  step:float ->
  unit

val mark : string -> unit

(** {1 Dumping} *)

val dump_string : reason:string -> t -> string
(** The retained frames as one JSON document.  [reason] records why the
    dump happened (["completed"], ["degraded"], ["watchdog"], an
    exception name, ...). *)

val dump : ?path:string -> reason:string -> t -> (unit, string) result
(** Write {!dump_string} atomically to [path] (default: the recorder's
    [dump_path]).  [Ok ()] without writing when neither is set. *)

val last_dump : t -> string option
(** The [reason] of the most recent dump that actually wrote a file —
    [None] if none has.  Lets an outer harness avoid overwriting a more
    specific dump (a runner outcome) with a generic completion one. *)
