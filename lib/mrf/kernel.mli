(** The min-sum message update of TRW-S.

    The TRW-S hot path computes, for every directed edge message, the
    normalized min-sum reduction

    {v
      m(x_o) = min_{x_s} h(x_s) + V(x_s, x_o)
    out(x_o) = m(x_o) - min_{x_o'} m(x_o')
    v}

    over an interned pairwise table [V]: an O(L²) scan per message that
    reads a precomputed [h] instead of recomputing it per inner
    iteration, and allocates nothing.

    Message storage is {e unboxed}: [update] reads its reduction input
    from and writes its output into [floatarray] slabs ([Float.Array]),
    so solver message buffers are flat runs of doubles with no per-cell
    boxing and the scan streams over contiguous memory.  The
    [( .%() )] / [( .%()<- )] index operators below are the shared
    accessors for those slabs. *)

external ( .%() ) : floatarray -> int -> float = "%floatarray_safe_get"
(** [slab.%(i)] — bounds-checked unboxed read from a float slab. *)

external ( .%()<- ) : floatarray -> int -> float -> unit
  = "%floatarray_safe_set"
(** [slab.%(i) <- v] — bounds-checked unboxed store into a float slab. *)

val update :
  pot:float array ->
  p0:int ->
  src_is_u:bool ->
  k_src:int ->
  k_out:int ->
  h:floatarray ->
  out:floatarray ->
  out_off:int ->
  unit
(** [update ~pot ~p0 ~src_is_u ~k_src ~k_out ~h ~out ~out_off] writes
    [out.(out_off + x_o) = min_{x_s} h.(x_s) + V(x_s, x_o)] for every
    output label, then subtracts the smallest of those values from each,
    so the message's minimum entry is zero.  [V] lives flat at
    [pot.(p0 ...)], row-major by the {e u} endpoint's label; [src_is_u]
    selects the orientation.  The caller must have filled
    [h.(0 .. k_src-1)]. *)
