(** Convergence and profiling report analysis behind [netdiv report].

    Everything operates on an already-captured {!Obs.event} list — a
    trace or a flight-recorder dump decoded from disk, which carry the
    same events — so both inputs render through one code path.  JSON
    parsing stays in [bin/] (with the repo's dependency-free reader);
    this library never reads files.

    The convergence analyses describe the {e last solve} in the stream:
    the events after the last [trws.zoned] begin when the stream holds
    [trws.zoned.*] samples, otherwise after the last
    [trws.solve]/[bp.solve]/[sa.solve] begin (the whole stream when a
    wrapped ring lost that begin).  Round and iteration numbers come
    from the solvers' own counter samples ([trws.zoned.round],
    [trws.iter], [bp.iter], [sa.iter]), never from positions. *)

type milestone = { m_gap_pct : float; m_t : float; m_iter : int }

val gap_milestones : Obs.event list -> milestone list
(** Time-to-gap curve: for each threshold (50/20/10/5/2/1/0.5/0.1%),
    the first bound evaluation of the last solve whose relative gap
    [(energy - bound) / max 1 |energy|] is at or below it.  Thresholds
    never reached are omitted. *)

type zone_gap = {
  z_zone : int;
  z_energy : float;
  z_bound : float;
  z_gap : float;  (** absolute energy - bound for this zone *)
  z_converged : bool;
}

val zone_attribution : Obs.event list -> zone_gap list
(** Per-zone gap attribution from the last recorded round of the last
    zoned solve ([trws.zone.<z>.energy|bound|converged] samples), ranked
    by descending gap — the order in which zones are worth re-solving.
    Empty for non-zoned solves. *)

val diagnose : Obs.event list -> string
(** One-line diagnosis of the last solve: the boundary-disagreement
    trend for zoned solves, best-energy/bound flatness for monolithic
    ones, and the best energy alone when the solver has no dual bound
    (BP, SA). *)

val pp_convergence : Format.formatter -> Obs.event list -> unit
(** The convergence sections: diagnosis, the marks timeline (every
    instant in the stream), time-to-gap table, zone gap attribution,
    boundary-reconciliation rounds and a trajectory digest. *)

val pp : ?top:int -> format:string -> Format.formatter -> Obs.event list -> unit
(** The whole report body: the [format] line and event/span/mark
    counts, {!pp_convergence}, the top-[top] (default 10) spans by total
    time, and the message throughput when the stream carries
    [mrf.messages] samples. *)
