module Graph = Netdiv_graph.Graph
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Obs = Netdiv_obs.Obs

(* Worm telemetry: per-simulation tallies are local ints flushed with
   one atomic add each when the run ends, so batched/parallel MTTC runs
   never contend inside the tick loop. *)
let c_ticks = Obs.Counter.make "engine.ticks"
let c_attempts = Obs.Counter.make "engine.exploit_attempts"
let c_infections = Obs.Counter.make "engine.infections"

type strategy = Best_exploit | Uniform_exploit | Arsenal_exploit

let default_attempt_scale = 0.15
let default_sim_floor = 0.05

type mttc_stats = {
  runs : int;
  successes : int;
  mean_ticks : float;
  max_ticks : int;
}

(* ------------------------------------------------------- attack table *)

(* Every directed edge that can ever draw, in CSR form, built once per
   batch and only read afterwards, so parallel runs share it.  Host
   [u]'s edges are [off.(u) .. off.(u + 1) - 1] in adjacency order,
   [dst.(e)] is the victim and [rate.(e)] the attempt rate.  Under
   [Uniform_exploit] [rate.(e)] is instead the edge's best-case rate,
   which only decides worm liveness, and every attempt picks one of
   [pool.(pool_off.(e) .. pool_off.(e + 1) - 1)] uniformly.  Edges that
   never draw are dropped: those without a positive rate under the
   fixed-rate strategies, without a shared service under
   [Uniform_exploit]. *)
type table = {
  off : int array;
  dst : int array;
  rate : float array;
  uniform : bool;
  pool_off : int array;
  pool : float array;
}

(* [f s] for every service [s] hosts [u] and [v] share, in descending
   service id.  [Uniform_exploit] indexes its pool in this order. *)
let iter_shared net u v f =
  let su = Network.host_services net u in
  let sv = Network.host_services net v in
  let i = ref (Array.length su - 1) and j = ref (Array.length sv - 1) in
  while !i >= 0 && !j >= 0 do
    if su.(!i) = sv.(!j) then begin
      f su.(!i);
      decr i;
      decr j
    end
    else if su.(!i) > sv.(!j) then decr i
    else decr j
  done

let prepare ~attempt_scale ~sim_floor ~entry a strategy =
  let net = Assignment.network a in
  let g = Network.graph net in
  let n = Graph.n_nodes g in
  let uniform = strategy = Uniform_exploit in
  let slots = 2 * Graph.n_edges g in
  let n_services h = Array.length (Network.host_services net h) in
  let pool_cap = ref 0 in
  if uniform then
    for u = 0 to n - 1 do
      Array.iter
        (fun v -> pool_cap := !pool_cap + min (n_services u) (n_services v))
        (Graph.neighbors g u)
    done;
  let off = Array.make (n + 1) 0 in
  let dst = Array.make slots 0 and rate = Array.make slots 0.0 in
  let pool_off = Array.make (if uniform then slots + 1 else 0) 0 in
  let pool = Array.make !pool_cap 0.0 in
  let product h s = Assignment.get a ~host:h ~service:s in
  (* the worm carries one zero-day per service, forged for the entry
     host's products (the paper's "three unique zero-day exploits"), and
     cannot adapt: a hop succeeds with the similarity between the
     arsenal's product and the victim's *)
  let arsenal = Network.host_services net entry in
  let e = ref 0 and p = ref 0 in
  let rate_of u v =
    match strategy with
    | Best_exploit | Uniform_exploit ->
        let shared = ref false and best = ref 0.0 in
        iter_shared net u v (fun s ->
            let sim =
              Network.similarity net ~service:s (product u s) (product v s)
            in
            shared := true;
            best := max !best (max sim_floor sim);
            if uniform then begin
              pool.(!p) <- attempt_scale *. max sim_floor sim;
              incr p
            end);
        if !shared then attempt_scale *. !best else 0.0
    | Arsenal_exploit ->
        let best = ref 0.0 in
        iter_shared net u v (fun s ->
            if Array.mem s arsenal then begin
              let r =
                attempt_scale
                *. max sim_floor
                     (Network.similarity net ~service:s (product entry s)
                        (product v s))
              in
              if r > !best then best := r
            end);
        !best
  in
  for u = 0 to n - 1 do
    off.(u) <- !e;
    Array.iter
      (fun v ->
        let r = rate_of u v in
        let draws = if uniform then !p > pool_off.(!e) else r > 0.0 in
        if draws then begin
          dst.(!e) <- v;
          rate.(!e) <- r;
          incr e;
          if uniform then pool_off.(!e) <- !p
        end)
      (Graph.neighbors g u)
  done;
  off.(n) <- !e;
  {
    off;
    dst = Array.sub dst 0 !e;
    rate = Array.sub rate 0 !e;
    uniform;
    pool_off = Array.sub pool_off 0 (if uniform then !e + 1 else 0);
    pool = Array.sub pool 0 !p;
  }

(* One [Uniform_exploit] attempt's rate: a uniform pick from [e]'s
   pool, one int draw. *)
let[@inline] pool_pick t rng e =
  let lo = t.pool_off.(e) in
  t.pool.(lo + Random.State.int rng (t.pool_off.(e + 1) - lo))

(* ------------------------------------------------------------ scratch *)

let susceptible = '\000'
let infected = '\001'
let immune = '\002'

(* Per-run state, allocated once per batch and reset by [start].  An
   infected host [u]'s live segment [live.(off.(u) .. off.(u) +
   live_len.(u) - 1)] holds its table edges, in adjacency order, whose
   victims were still susceptible when [u] last attacked.  [scan] holds,
   in [base .. top - 1], the infected hosts whose segment is not yet
   empty, newest at [top - 1]; every host enters it once, so [top <= n].
   [hits] collects one tick's successful attempts in attack order. *)
type scratch = {
  table : table;
  status : Bytes.t;
  live : int array;
  live_len : int array;
  scan : int array;
  hits : int array;
  mutable base : int;
  mutable top : int;
  mutable n_infected : int;
  mutable attempts : int;
  mutable alive : bool;
}

let scratch t =
  let n = Array.length t.off - 1 and m = Array.length t.dst in
  {
    table = t;
    status = Bytes.make n susceptible;
    live = Array.make m 0;
    live_len = Array.make n 0;
    scan = Array.make n 0;
    hits = Array.make m 0;
    base = 0;
    top = 0;
    n_infected = 0;
    attempts = 0;
    alive = true;
  }

let infect s v =
  Bytes.set s.status v infected;
  s.n_infected <- s.n_infected + 1;
  let lo = s.table.off.(v) and hi = s.table.off.(v + 1) in
  for e = lo to hi - 1 do
    s.live.(e) <- e
  done;
  s.live_len.(v) <- hi - lo;
  s.scan.(s.top) <- v;
  s.top <- s.top + 1

let start s ~entry =
  Bytes.fill s.status 0 (Bytes.length s.status) susceptible;
  s.base <- 0;
  s.top <- 0;
  s.n_infected <- 0;
  s.attempts <- 0;
  s.alive <- true;
  infect s entry

let flush ~ticks ~attempts ~infections =
  Obs.Counter.add c_ticks ticks;
  Obs.Counter.add c_attempts attempts;
  Obs.Counter.add c_infections infections

(* ---------------------------------------------------- undefended runs *)

(* One tick: every infected host with a live edge attacks, newest
   first, along its live segment, which it compacts to the victims still
   susceptible; the hosts hit join the scan list afterwards.  Returns
   whether [target] fell. *)
let tick s ~rng ~target =
  let { off; dst; rate; uniform; _ } = s.table in
  let status = s.status and live = s.live and live_len = s.live_len in
  let scan = s.scan and hits = s.hits in
  let progress = ref false and n_hits = ref 0 and attempts = ref 0 in
  let w = ref s.top in
  for i = s.top - 1 downto s.base do
    let u = scan.(i) in
    let lo = off.(u) in
    let k = ref lo in
    for j = lo to lo + live_len.(u) - 1 do
      let e = live.(j) in
      let v = dst.(e) in
      if Bytes.get status v = susceptible then begin
        live.(!k) <- e;
        incr k;
        let best = rate.(e) in
        let r = if uniform then pool_pick s.table rng e else best in
        if best > 0.0 then progress := true;
        if r > 0.0 then begin
          incr attempts;
          if Random.State.float rng 1.0 < r then begin
            hits.(!n_hits) <- v;
            incr n_hits
          end
        end
      end
    done;
    live_len.(u) <- !k - lo;
    if !k > lo then begin
      decr w;
      scan.(!w) <- u
    end
  done;
  s.base <- !w;
  s.attempts <- s.attempts + !attempts;
  (* a host hit twice keeps its latest hit's place: new hosts join in
     reverse, so the one hit first is scanned first next tick *)
  let fallen = ref false in
  for j = !n_hits - 1 downto 0 do
    let v = hits.(j) in
    if Bytes.get status v = susceptible then begin
      infect s v;
      if v = target then fallen := true
    end
  done;
  (* the worm is dead when no live edge has a positive rate left *)
  s.alive <- !progress;
  !fallen

let simulate s ~rng ~max_ticks ~entry ~target =
  start s ~entry;
  if entry = target then Some 0
  else begin
    let ticks = ref 0 and fallen = ref false in
    while (not !fallen) && s.alive && !ticks < max_ticks do
      incr ticks;
      fallen := tick s ~rng ~target
    done;
    flush ~ticks:!ticks ~attempts:s.attempts ~infections:(s.n_infected - 1);
    if !fallen then Some !ticks else None
  end

(* [prepare] reads the entry host's services (Arsenal), so validate the
   endpoints first to keep the historical error messages. *)
let check_entry a ~entry =
  if entry < 0 || entry >= Network.n_hosts (Assignment.network a) then
    invalid_arg "Engine: entry out of range"

let check_endpoints a ~entry ~target =
  check_entry a ~entry;
  if target < 0 || target >= Network.n_hosts (Assignment.network a) then
    invalid_arg "Engine: target out of range"

let check_runs runs = if runs < 1 then invalid_arg "Engine: runs < 1"

(* The compromise times of [runs] calls of [one], in run order. *)
let collect runs one =
  let samples = Array.make runs 0 and k = ref 0 in
  for _ = 1 to runs do
    match one () with
    | Some t ->
        samples.(!k) <- t;
        incr k
    | None -> ()
  done;
  Array.sub samples 0 !k

let run ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) a ~entry ~target =
  check_endpoints a ~entry ~target;
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  simulate (scratch t) ~rng ~max_ticks ~entry ~target

let mttc_samples ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) ~runs a ~entry
    ~target =
  check_runs runs;
  check_endpoints a ~entry ~target;
  let s = scratch (prepare ~attempt_scale ~sim_floor ~entry a strategy) in
  collect runs (fun () -> simulate s ~rng ~max_ticks ~entry ~target)

let stats_of_samples ~runs ~max_ticks samples =
  let successes = Array.length samples in
  {
    runs;
    successes;
    mean_ticks =
      (if successes = 0 then nan
       else
         float_of_int (Array.fold_left ( + ) 0 samples)
         /. float_of_int successes);
    max_ticks;
  }

let mttc ~rng ?strategy ?attempt_scale ?sim_floor ?(max_ticks = 10_000) ~runs
    a ~entry ~target =
  let samples =
    mttc_samples ~rng ?strategy ?attempt_scale ?sim_floor ~max_ticks ~runs a
      ~entry ~target
  in
  stats_of_samples ~runs ~max_ticks samples

let mttc_summary ~rng ?strategy ?attempt_scale ?sim_floor
    ?(max_ticks = 10_000) ~runs a ~entry ~target =
  let samples =
    mttc_samples ~rng ?strategy ?attempt_scale ?sim_floor ~max_ticks ~runs a
      ~entry ~target
  in
  let stats = stats_of_samples ~runs ~max_ticks samples in
  let summary =
    if Array.length samples = 0 then None
    else Some (Stat.summarize (Stat.of_ints samples))
  in
  (stats, summary)

(* Parallel MTTC: run indices are split over domains; every run draws its
   own rng from (seed, index) and owns its scratch, while the table is
   shared read-only, so results are identical for any domain count. *)
let mttc_parallel ?(domains = 4) ~seed ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) ~runs a ~entry
    ~target () =
  if domains < 1 then invalid_arg "Engine.mttc_parallel: domains < 1";
  check_runs runs;
  check_endpoints a ~entry ~target;
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  let one_run idx =
    let rng = Random.State.make [| seed; idx |] in
    simulate (scratch t) ~rng ~max_ticks ~entry ~target
  in
  (* every run owns an rng keyed by its index and the pool returns
     results in index order, so the stats are domain-count-invariant.
     500/host per run, not 200: a run's epidemic phase revisits every
     infected host's live edges each tick, so 200 underestimated
     the work enough that borderline batches were split into chunks too
     fine to amortize dispatch.  The raised hint keeps smoke-sized
     batches (hundreds of hosts, tens of runs) under the pool's
     sequential cutoff — inline, paying zero domain overhead — and
     makes production batches chunk coarser. *)
  let n_hosts = Graph.n_nodes (Network.graph (Assignment.network a)) in
  let results =
    Netdiv_par.Pool.map_range ~jobs:domains ~cost:(500 * n_hosts) ~lo:0
      ~hi:runs one_run
  in
  let samples =
    Array.of_list (List.filter_map Fun.id (Array.to_list results))
  in
  stats_of_samples ~runs ~max_ticks samples

let epidemic_curve ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) a ~entry =
  check_entry a ~entry;
  let s = scratch (prepare ~attempt_scale ~sim_floor ~entry a strategy) in
  start s ~entry;
  let counts = ref [] and ticks = ref 0 in
  while s.alive && !ticks < max_ticks do
    incr ticks;
    ignore (tick s ~rng ~target:(-1));
    counts := s.n_infected :: !counts
  done;
  flush ~ticks:!ticks ~attempts:s.attempts ~infections:(s.n_infected - 1);
  (* trim the trailing plateau the cap produced *)
  let arr = Array.of_list (List.rev !counts) in
  let n = Array.length arr in
  let last_growth = ref 0 in
  for i = 1 to n - 1 do
    if arr.(i) > arr.(i - 1) then last_growth := i
  done;
  Array.sub arr 0 (min n (!last_growth + 2))

(* ----------------------------------------------------- defended runs *)

type defense = { detect_rate : float; immunize : bool }

(* Like [simulate], but a defender detects and reimages infected hosts,
   and the worm loses when no infected host remains.  A reimaged host
   may become susceptible again, so each tick scans every host's full
   table segment instead of the compacted frontier. *)
let simulate_defended s ~rng ~max_ticks ~defense ~entry ~target =
  let { off; dst; rate; uniform; _ } = s.table in
  let status = s.status and hits = s.hits in
  let n = Bytes.length status in
  Bytes.fill status 0 n susceptible;
  Bytes.set status entry infected;
  if entry = target then Some 0
  else begin
    let fallen = ref false and extinct = ref false in
    let ticks = ref 0 and attempts = ref 0 and infections = ref 0 in
    while (not !fallen) && (not !extinct) && !ticks < max_ticks do
      incr ticks;
      let n_hits = ref 0 and any_infected = ref false in
      for u = 0 to n - 1 do
        if Bytes.get status u = infected then begin
          any_infected := true;
          for e = off.(u) to off.(u + 1) - 1 do
            let v = dst.(e) in
            if Bytes.get status v = susceptible then begin
              let r = if uniform then pool_pick s.table rng e else rate.(e) in
              if r > 0.0 then begin
                incr attempts;
                if Random.State.float rng 1.0 < r then begin
                  hits.(!n_hits) <- v;
                  incr n_hits
                end
              end
            end
          done
        end
      done;
      if not !any_infected then extinct := true;
      for j = 0 to !n_hits - 1 do
        let v = hits.(j) in
        if Bytes.get status v = susceptible then begin
          Bytes.set status v infected;
          incr infections;
          if v = target then fallen := true
        end
      done;
      (* detection & response *)
      if (not !fallen) && defense.detect_rate > 0.0 then
        for h = 0 to n - 1 do
          if
            Bytes.get status h = infected
            && Random.State.float rng 1.0 < defense.detect_rate
          then
            Bytes.set status h
              (if defense.immunize then immune else susceptible)
        done
    done;
    flush ~ticks:!ticks ~attempts:!attempts ~infections:!infections;
    if !fallen then Some !ticks else None
  end

let check_defense defense =
  if not (defense.detect_rate >= 0.0 && defense.detect_rate <= 1.0) then
    invalid_arg "Engine: detect_rate outside [0,1]"

let run_defended ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) ~defense a ~entry
    ~target =
  check_defense defense;
  check_endpoints a ~entry ~target;
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  simulate_defended (scratch t) ~rng ~max_ticks ~defense ~entry ~target

let mttc_defended ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) ~defense ~runs a
    ~entry ~target =
  check_defense defense;
  check_runs runs;
  check_endpoints a ~entry ~target;
  let s = scratch (prepare ~attempt_scale ~sim_floor ~entry a strategy) in
  stats_of_samples ~runs ~max_ticks
    (collect runs (fun () ->
         simulate_defended s ~rng ~max_ticks ~defense ~entry ~target))

let pp_mttc ppf s =
  Format.fprintf ppf "MTTC %.3f ticks (%d/%d runs reached the target)"
    s.mean_ticks s.successes s.runs
