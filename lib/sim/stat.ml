type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
  ci95 : float * float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Welford's online algorithm *)
let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = ref 0.0 and m2 = ref 0.0 and count = ref 0 in
    Array.iter
      (fun x ->
        incr count;
        let delta = x -. !m in
        m := !m +. (delta /. float_of_int !count);
        m2 := !m2 +. (delta *. (x -. !m)))
      xs;
    !m2 /. float_of_int (n - 1)
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.percentile: empty sample";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Stat.percentile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let position = p *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor position) in
  let hi = int_of_float (Float.ceil position) in
  if lo = hi then sorted.(lo)
  else
    let frac = position -. float_of_int lo in
    ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.summarize: empty sample";
  let m = mean xs in
  let sd = sqrt (variance xs) in
  let half_width = 1.96 *. sd /. sqrt (float_of_int n) in
  {
    n;
    mean = m;
    stddev = sd;
    min = Array.fold_left min xs.(0) xs;
    max = Array.fold_left max xs.(0) xs;
    median = percentile xs 0.5;
    p90 = percentile xs 0.9;
    ci95 = (m -. half_width, m +. half_width);
  }

let of_ints = Array.map float_of_int

let pp ppf s =
  let lo, hi = s.ci95 in
  Format.fprintf ppf
    "n=%d mean=%.2f (95%% CI %.2f-%.2f) sd=%.2f median=%.2f p90=%.2f \
     range=[%.0f, %.0f]"
    s.n s.mean lo hi s.stddev s.median s.p90 s.min s.max
