(** The min-sum message update shared by TRW-S and BP.

    The TRW-S/BP hot path computes, for every directed edge message, the
    min-sum reduction

    {v out(x_o) = min_{x_s} h(x_s) + V(x_s, x_o) v}

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

type scratch = {
  h : floatarray;  (** caller-filled reduction input, length ≥ k_src *)
  fresh : floatarray;
      (** update output staging for damped updates (BP), length ≥ max L *)
}

val make_scratch : max_labels:int -> scratch
(** Preallocates both buffers for label counts up to [max_labels]; one
    scratch per solver {e worker} (each parallel chunk owns its own),
    reused across all messages so the hot path never allocates. *)

val update :
  pot:float array ->
  p0:int ->
  src_is_u:bool ->
  k_src:int ->
  k_out:int ->
  scratch:scratch ->
  out:floatarray ->
  out_off:int ->
  float
(** [update ~pot ~p0 ~src_is_u ~k_src ~k_out ~scratch ~out ~out_off]
    writes [out.(out_off + x_o) = min_{x_s} scratch.h.(x_s) + V(x_s, x_o)]
    for every output label and returns the minimum over outputs (for the
    caller's normalization).  [V] lives flat at [pot.(p0 ...)], row-major
    by the {e u} endpoint's label; [src_is_u] selects the orientation.
    The caller must have filled [scratch.h.(0 .. k_src-1)]. *)
