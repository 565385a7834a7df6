(* The min-sum message update.  See kernel.mli for the contract and
   DESIGN.md ("Message kernel") for how the solvers drive it. *)

external ( .%() ) : floatarray -> int -> float = "%floatarray_safe_get"

external ( .%()<- ) : floatarray -> int -> float -> unit
  = "%floatarray_safe_set"

type scratch = { h : floatarray; fresh : floatarray }

let make_scratch ~max_labels =
  let k = max 1 max_labels in
  { h = Float.Array.make k 0.0; fresh = Float.Array.make k 0.0 }

let update ~pot ~p0 ~src_is_u ~k_src ~k_out ~scratch ~out ~out_off =
  let h = scratch.h in
  let vmin = ref infinity in
  for xo = 0 to k_out - 1 do
    let best = ref infinity in
    if src_is_u then
      for xs = 0 to k_src - 1 do
        let c = h.%(xs) +. pot.(p0 + (xs * k_out) + xo) in
        if c < !best then best := c
      done
    else begin
      let r0 = p0 + (xo * k_src) in
      for xs = 0 to k_src - 1 do
        let c = h.%(xs) +. pot.(r0 + xs) in
        if c < !best then best := c
      done
    end;
    out.%(out_off + xo) <- !best;
    if !best < !vmin then vmin := !best
  done;
  !vmin
