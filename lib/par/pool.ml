(* Chunked domain pool.  See pool.mli for the contract.

   Domains are spawned per call and always joined before the call
   returns: there is no persistent worker pool to shut down, so a
   program that finishes its last parallel region exits cleanly.  Chunk
   claiming goes through a single [Atomic] counter, which lets callers
   oversubscribe ([chunks] > [jobs]) for load balancing without
   affecting results: outputs are written into per-index slots or
   combined in chunk order, never in completion order. *)

exception Race of string

module Obs = Netdiv_obs.Obs
module Recorder = Netdiv_obs.Recorder
module Fault = Netdiv_fault.Fault

(* Injection points (armed only under NETDIV_FAULT; see Netdiv_fault).
   [pool.chunk] crashes a chunk body; [pool.alloc] fails the output
   allocation of a mapping combinator.  Chunk keys combine a region
   sequence number with the chunk index, both deterministic program
   quantities, so a recorded schedule replays exactly. *)
let p_chunk = Fault.point "pool.chunk"
let p_alloc = Fault.point "pool.alloc"
let region_seq = Atomic.make 0

(* Wrap one combinator invocation: a "pool.region" span in the calling
   domain, then the region's GC minor/major collection and allocated-word
   deltas (as observed by the caller) as [pool.gc_*] samples.  Covers
   every execution strategy — inline fast path, granularity-planned
   sequential run and dispatched chunks — so a trace shows each parallel
   region exactly once.  The whole region runs with the flight recorder
   suspended: chunks are claimed in a schedule-dependent order, by
   workers and the caller alike, so nothing inside a region may reach
   the ring — the GC samples included, whose values depend on when other
   domains force collections. *)
let observe_region f =
  Recorder.suspended @@ fun () ->
  if not (Obs.enabled ()) then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let r = Obs.span ~name:"pool.region" f in
    let g1 = Gc.quick_stat () in
    let collections n0 n1 = float_of_int (n1 - n0) in
    Obs.sample ~name:"pool.gc_minor"
      (collections g0.Gc.minor_collections g1.Gc.minor_collections);
    Obs.sample ~name:"pool.gc_major"
      (collections g0.Gc.major_collections g1.Gc.major_collections);
    (* allocation attribution, words not collections: a region can
       allocate heavily yet get lucky on collection timing *)
    Obs.sample ~name:"pool.gc_minor_words"
      (g1.Gc.minor_words -. g0.Gc.minor_words);
    Obs.sample ~name:"pool.gc_major_words"
      (g1.Gc.major_words -. g0.Gc.major_words);
    r
  end

(* --------------------------------------------------------- sanitizer --

   NETDIV_SANITIZE=1 turns on a debug mode that shadow-tracks which
   chunk executed each loop index of a [parallel_for]/[map_range] region
   and, for consumers routing output stores through [write], which chunk
   wrote each output slot.  Overlapping writes from distinct chunks and
   writes escaping the owning chunk's sub-range raise [Race] instead of
   silently corrupting results.  The mode exists to catch races the
   static netdiv-lint rules cannot see; it costs a mutex per tracked
   event, so it is strictly a test/debug facility. *)

(* netdiv-lint: allow toplevel-mutable-state — test-only override knob for
   the sanitizer; written once by set_sanitize before parallel regions
   start, read-only inside them. *)
let sanitize_override = ref None

let set_sanitize v = sanitize_override := v

let sanitize_enabled () =
  match !sanitize_override with
  | Some b -> b
  | None -> (
      match Sys.getenv_opt "NETDIV_SANITIZE" with
      | Some ("1" | "true") -> true
      | _ -> false)

(* Shadow state for one sanitized parallel region.  [dispatch] records
   the chunk that claimed each loop index; [written] records, per output
   array (compared physically), the chunk that wrote each slot. *)
type region = {
  span_lo : int;
  span_hi : int;
  dispatch : int array;
  mutable written : (Obj.t * (int, int) Hashtbl.t) list;
  lock : Mutex.t;
}

type chunk_ctx = { chunk : int; clo : int; chi : int; region : region }

let make_region ~lo ~hi =
  {
    span_lo = lo;
    span_hi = hi;
    dispatch = Array.make (max 0 (hi - lo)) (-1);
    written = [];
    lock = Mutex.create ();
  }

(* Per-domain chunk context; Domain.DLS state is domain-local by
   construction, so this carries no cross-domain sharing. *)
let ctx_key : chunk_ctx option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_ctx ctx f =
  let prev = Domain.DLS.get ctx_key in
  Domain.DLS.set ctx_key (Some ctx);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key prev) f

(* Claim loop index [i] for [ctx.chunk].  Catches a future chunking bug
   (overlapping or escaping chunk bounds) the moment it dispatches an
   index twice or outside the claiming chunk's sub-range. *)
let claim_dispatch ctx i =
  let r = ctx.region in
  if i < ctx.clo || i >= ctx.chi then
    raise
      (Race
         (Printf.sprintf
            "sanitizer: chunk %d [%d,%d) dispatched loop index %d outside \
             its bounds"
            ctx.chunk ctx.clo ctx.chi i));
  let clash =
    Mutex.protect r.lock (fun () ->
        let prev = r.dispatch.(i - r.span_lo) in
        if prev = -1 then r.dispatch.(i - r.span_lo) <- ctx.chunk;
        prev)
  in
  if clash <> -1 && clash <> ctx.chunk then
    raise
      (Race
         (Printf.sprintf
            "sanitizer: loop index %d dispatched to chunks %d and %d" i
            (min clash ctx.chunk) (max clash ctx.chunk)))

(* Shared shadow-tracking core of [write] / [write_slab]: record that
   [ctx.chunk] wrote slot [i] of the output identified by [o] and raise
   on a clash with another chunk. *)
let check_overlap ctx o i =
  let r = ctx.region in
  let clash =
    Mutex.protect r.lock (fun () ->
        let table =
          match List.find_opt (fun (o', _) -> o' == o) r.written with
          | Some (_, t) -> t
          | None ->
              let t = Hashtbl.create 64 in
              r.written <- (o, t) :: r.written;
              t
        in
        match Hashtbl.find_opt table i with
        | Some prev when prev <> ctx.chunk -> Some prev
        | _ ->
            Hashtbl.replace table i ctx.chunk;
            None)
  in
  match clash with
  | Some prev ->
      raise
        (Race
           (Printf.sprintf
              "sanitizer: overlapping write to slot %d by chunks %d and %d"
              i
              (min prev ctx.chunk)
              (max prev ctx.chunk)))
  | None -> ()

let write (arr : 'a array) i v =
  (match Domain.DLS.get ctx_key with
  | None -> ()
  | Some ctx ->
      check_overlap ctx (Obj.repr arr) i;
      if i < ctx.clo || i >= ctx.chi then
        raise
          (Race
             (Printf.sprintf
                "sanitizer: chunk %d [%d,%d) wrote slot %d across its \
                 chunk boundary"
                ctx.chunk ctx.clo ctx.chi i)));
  arr.(i) <- v

let write_slab (slab : floatarray) i v =
  (* Slab slots are indexed in their own offset space (directed-edge
     offsets, per-node scratch offsets, ...) which in general is not the
     loop-index space, so only the overlapping-write check applies — a
     slot owned by two distinct chunks is a race whatever the spaces. *)
  (match Domain.DLS.get ctx_key with
  | None -> ()
  | Some ctx -> check_overlap ctx (Obj.repr slab) i);
  Float.Array.set slab i v

let env_jobs () =
  match Sys.getenv_opt "NETDIV_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let resolve_jobs ?jobs () =
  match jobs with
  | Some n when n >= 1 -> n
  | _ -> (
      match env_jobs () with
      | Some n -> n
      | None -> max 1 (Domain.recommended_domain_count ()))

(* Splitmix64 finalizer over a mix of [seed] and [index].  Constants
   from Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014).  Mask to 62 bits so the result stays a
   non-negative OCaml [int] on 64-bit platforms. *)
let split_seed seed index =
  let open Int64 in
  let golden = 0x9E3779B97F4A7C15L in
  let z = add (of_int seed) (mul (of_int (index + 1)) golden) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (logand z 0x3FFF_FFFF_FFFF_FFFFL)

(* ------------------------------------------------- granularity plan --

   Callers may pass [?cost], an estimated per-item work weight in
   abstract units (~nanoseconds of straight-line compute).  The plan
   compares the total estimated work against a sequential cutoff:
   below it, domain spawn + join overhead (hundreds of microseconds
   per region on this runtime) dominates, so the region runs inline
   in the caller; above it, the chunk count adapts so each chunk
   carries enough work to amortize claiming, clamped to
   [jobs .. 8*jobs] for load balancing.  Without a hint the historical
   behavior is preserved exactly (chunks = jobs, always dispatch). *)

let sequential_cutoff = 20_000_000
let target_chunk_cost = 5_000_000

let plan ~jobs ~explicit_chunks ~cost ~n =
  let default_chunks =
    match explicit_chunks with Some c -> c | None -> jobs
  in
  match cost with
  | None -> (jobs, default_chunks)
  | Some per_item ->
      (* float arithmetic so absurd hints cannot overflow *)
      let total =
        float_of_int (max 1 per_item) *. float_of_int (max 0 n)
      in
      if total < float_of_int sequential_cutoff then
        (* inline, but an explicit chunk request still shapes the loop:
           chunk boundaries (and so sanitizer ownership, map_reduce
           association order) stay what the caller asked for *)
        (1, match explicit_chunks with Some c -> c | None -> 1)
      else
        let chunks =
          match explicit_chunks with
          | Some c -> c
          | None ->
              let by_cost =
                int_of_float (total /. float_of_int target_chunk_cost)
              in
              max jobs (min (8 * jobs) by_cost)
        in
        (jobs, chunks)

(* Hardware parallelism cap.  Spawning more domains than the runtime
   recommends (the CPUs actually visible to this process, cgroup quota
   included) always loses on OCaml 5: domains are OS threads sharing
   one stop-the-world minor collector, so oversubscription turns every
   minor GC into a contended global barrier.  [jobs] is therefore a cap
   on the domain count, never a demand.  Chunk boundaries remain a
   function of [chunks] alone, so the clamp can never change results,
   reduction order or sanitizer ownership. *)
let hardware_default = lazy (max 1 (Domain.recommended_domain_count ()))

(* netdiv-lint: allow toplevel-mutable-state — test-only override knob
   mirroring set_sanitize: lets the suite exercise the cross-domain
   machinery (Team barriers, chunk claiming) on single-core CI boxes
   where the recommended count would pin everything to the caller.
   Written between regions only. *)
let hardware_override = ref None

let set_hardware_jobs v = hardware_override := v

let hardware_jobs () =
  match !hardware_override with
  | Some n -> max 1 n
  | None -> Lazy.force hardware_default

(* Failure from the lowest-indexed failing chunk, so the exception the
   caller sees does not depend on domain scheduling. *)
type failure = { chunk : int; exn : exn; bt : Printexc.raw_backtrace }

let record_failure slot chunk exn bt =
  let f = { chunk; exn; bt } in
  let rec loop () =
    match Atomic.get slot with
    | Some prev when prev.chunk <= chunk -> ()
    | prev -> if not (Atomic.compare_and_set slot prev (Some f)) then loop ()
  in
  loop ()

(* Even split of [lo, lo+n) into [chunks] sub-ranges with the remainder
   spread over the first chunks; shared by [run_chunks] and [Team]. *)
let chunk_span ~lo ~n ~chunks c =
  let q = n / chunks and r = n mod chunks in
  let clo = lo + (c * q) + min c r in
  let chi = clo + q + (if c < r then 1 else 0) in
  (clo, chi)

(* Per-chunk span; it lands in the executing domain's buffer, so
   Perfetto shows which worker ran which chunk.  On failure the span is
   still closed before the exception propagates to [record_failure]. *)
let instrument_chunk body =
  if not (Obs.enabled ()) then body
  else fun c clo chi ->
    Obs.span ~name:"pool.chunk" (fun () -> body c clo chi)

(* Run [body c clo chi] for every chunk [c] covering [lo, hi).  [body]
   receives the chunk index and its sub-range; chunk boundaries depend
   only on [chunks], [lo] and [hi], never on [jobs]. *)
let run_chunks ~jobs ~chunks ~lo ~hi body =
  let n = hi - lo in
  if n <= 0 then ()
  else
    let body = instrument_chunk body in
    let chunks = max 1 (min chunks n) in
    let jobs = max 1 (min jobs chunks) in
    let jobs = min jobs (hardware_jobs ()) in
    let chunk_bounds c = chunk_span ~lo ~n ~chunks c in
    (* Injected chunk crashes are recoverable: the guard swallows them,
       notes the chunk, and the region re-executes those chunks
       sequentially after the parallel phase.  Chunk boundaries alone
       determine results, so a recovered region computes exactly what a
       fault-free region would — only the schedule differs.  Anything
       that is not an injected fault ([Race], programmer errors, real
       OS failures) still aborts the region through [record_failure]. *)
    let fault_on = Fault.enabled () in
    let rseq = if fault_on then Atomic.fetch_and_add region_seq 1 else 0 in
    let crash_mu = Mutex.create () in
    let crashed = ref [] in
    let guarded =
      if not fault_on then body
      else fun c clo chi ->
        match
          Fault.check ~key:((rseq lsl 12) lor c) p_chunk;
          body c clo chi
        with
        | () -> ()
        | exception exn when Fault.is_injected exn ->
            Obs.instant "pool.chunk_fault";
            Mutex.protect crash_mu (fun () -> crashed := c :: !crashed)
    in
    let recover () =
      (* ascending chunk order: deterministic, and (point, key) pairs
         fire at most once, so the re-execution cannot trip over the
         same injection again *)
      List.iter
        (fun c ->
          let clo, chi = chunk_bounds c in
          body c clo chi;
          Obs.instant "pool.chunk_recovered")
        (List.sort compare !crashed)
    in
    if jobs = 1 then begin
      for c = 0 to chunks - 1 do
        let clo, chi = chunk_bounds c in
        guarded c clo chi
      done;
      if fault_on then recover ()
    end
    else begin
      let next = Atomic.make 0 in
      let failed : failure option Atomic.t = Atomic.make None in
      let worker () =
        let continue = ref true in
        while !continue do
          let c = Atomic.fetch_and_add next 1 in
          if c >= chunks then continue := false
          else if Option.is_none (Atomic.get failed) then begin
            let clo, chi = chunk_bounds c in
            try guarded c clo chi
            with exn ->
              let bt = Printexc.get_raw_backtrace () in
              record_failure failed c exn bt
          end
        done
      in
      let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
      worker ();
      Array.iter Domain.join domains;
      match Atomic.get failed with
      | Some { exn; bt; _ } -> Printexc.raise_with_backtrace exn bt
      | None -> if fault_on then recover ()
    end

let parallel_for ?jobs ?chunks ?cost ~lo ~hi f =
  if hi <= lo then ()
  else observe_region @@ fun () ->
  let jobs = resolve_jobs ?jobs () in
  let explicit_chunks =
    match chunks with Some c when c >= 1 -> Some c | _ -> None
  in
  let jobs, chunks = plan ~jobs ~explicit_chunks ~cost ~n:(hi - lo) in
  if sanitize_enabled () then
    (* the serial fast path is skipped on purpose: sanitized runs always
       dispatch through chunks so every index is claim-checked *)
    let region = make_region ~lo ~hi in
    run_chunks ~jobs ~chunks ~lo ~hi (fun c clo chi ->
        let ctx = { chunk = c; clo; chi; region } in
        with_ctx ctx (fun () ->
            for i = clo to chi - 1 do
              claim_dispatch ctx i;
              f i
            done))
  else if jobs = 1 && chunks = 1 then
    for i = lo to hi - 1 do
      f i
    done
  else
    run_chunks ~jobs ~chunks ~lo ~hi (fun _c clo chi ->
        for i = clo to chi - 1 do
          f i
        done)

let map_range ?jobs ?chunks ?cost ~lo ~hi f =
  let n = hi - lo in
  if n <= 0 then [||]
  else begin
    observe_region @@ fun () ->
    (* injected allocation failure: the whole region fails before any
       work is dispatched; recovery belongs to the caller (the anytime
       harness retries the stage) *)
    Fault.check p_alloc;
    let jobs = resolve_jobs ?jobs () in
    let explicit_chunks =
      match chunks with Some c when c >= 1 -> Some c | _ -> None
    in
    let jobs, chunks = plan ~jobs ~explicit_chunks ~cost ~n in
    if sanitize_enabled () then begin
      (* The pool's own stores map loop index [i] to slot [i - lo]
         bijectively, so dispatch claims shadow the output slots: a
         chunking bug shows up as a duplicate or escaping claim. *)
      let region = make_region ~lo ~hi in
      let first = f lo in
      let out = Array.make n first in
      run_chunks ~jobs ~chunks ~lo:(lo + 1) ~hi (fun c clo chi ->
          let ctx = { chunk = c; clo; chi; region } in
          with_ctx ctx (fun () ->
              for i = clo to chi - 1 do
                claim_dispatch ctx i;
                out.(i - lo) <- f i
              done));
      out
    end
    else if jobs = 1 && chunks = 1 then Array.init n (fun i -> f (lo + i))
    else begin
      (* Fill the first slot serially so the array can be allocated
         without requiring ['a] to have a dummy value. *)
      let first = f lo in
      let out = Array.make n first in
      run_chunks ~jobs ~chunks ~lo:(lo + 1) ~hi (fun _c clo chi ->
          for i = clo to chi - 1 do
            out.(i - lo) <- f i
          done);
      out
    end
  end

let map_reduce ?jobs ?chunks ?cost ~lo ~hi ~map ~reduce ~init =
  let n = hi - lo in
  if n <= 0 then init
  else begin
    observe_region @@ fun () ->
    Fault.check p_alloc;
    let jobs = resolve_jobs ?jobs () in
    let explicit_chunks =
      match chunks with Some c when c >= 1 -> Some c | _ -> None
    in
    let jobs, chunks = plan ~jobs ~explicit_chunks ~cost ~n in
    if jobs = 1 && chunks = 1 then begin
      let acc = ref init in
      for i = lo to hi - 1 do
        acc := reduce !acc (map i)
      done;
      !acc
    end
    else begin
      let chunks = max 1 (min chunks n) in
      let partial = Array.make chunks None in
      run_chunks ~jobs ~chunks ~lo ~hi (fun c clo chi ->
          let acc = ref (map clo) in
          for i = clo + 1 to chi - 1 do
            acc := reduce !acc (map i)
          done;
          partial.(c) <- Some !acc);
      Array.fold_left
        (fun acc p -> match p with None -> acc | Some v -> reduce acc v)
        init partial
    end
  end

(* ------------------------------------------------- persistent team --

   The per-call combinators above spawn domains per region, which is
   fine when a region carries tens of milliseconds of work (per-
   component solves, SA restarts) but hopeless for the intra-component
   schedules: a TRW-S half-sweep or one chromatic-BP color phase is
   10us-1ms of work and there are thousands of them per solve.  A
   [Team] amortizes the spawn: worker domains are created once per
   solve and parked on a condition variable; each [run] is one
   broadcast + chunk-claim + join-by-counter round trip (microseconds,
   not the hundreds of microseconds of Domain.spawn).

   Determinism contract is the same as [run_chunks]: chunk boundaries
   are a function of [chunks], [lo], [hi] alone ([chunk_span]), chunks
   are claimed dynamically, and the lowest failing chunk's exception
   wins.  Unlike the mapping combinators there is NO fault-injection
   point here: Team bodies update shared slabs in place (Gauss-Seidel
   message sweeps), so re-executing a crashed chunk is not idempotent
   and recovery would be unsound.  Teams are for regions whose results
   are chunk-boundary-deterministic by construction. *)

module Team = struct
  type team = {
    size : int;  (* participating domains, caller included *)
    mu : Mutex.t;
    work_ready : Condition.t;
    work_done : Condition.t;
    mutable epoch : int;
    mutable stopping : bool;
    (* current region, written under [mu] before the epoch bump *)
    mutable lo : int;
    mutable n : int;
    mutable chunks : int;
    mutable body : int -> int -> int -> unit;
    next : int Atomic.t;
    failed : failure option Atomic.t;
    mutable active : int;  (* workers still executing this epoch *)
    mutable domains : unit Domain.t array;
  }

  type t = team

  let noop _ _ _ = ()

  let claim_loop t =
    let continue = ref true in
    while !continue do
      let c = Atomic.fetch_and_add t.next 1 in
      if c >= t.chunks then continue := false
      else if Option.is_none (Atomic.get t.failed) then begin
        let clo, chi = chunk_span ~lo:t.lo ~n:t.n ~chunks:t.chunks c in
        try t.body c clo chi
        with exn ->
          let bt = Printexc.get_raw_backtrace () in
          record_failure t.failed c exn bt
      end
    done

  let worker t =
    let my_epoch = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock t.mu;
      while (not t.stopping) && t.epoch = !my_epoch do
        Condition.wait t.work_ready t.mu
      done;
      if t.stopping then begin
        Mutex.unlock t.mu;
        continue := false
      end
      else begin
        my_epoch := t.epoch;
        Mutex.unlock t.mu;
        claim_loop t;
        Mutex.lock t.mu;
        t.active <- t.active - 1;
        if t.active = 0 then Condition.signal t.work_done;
        Mutex.unlock t.mu
      end
    done

  let create ?jobs () =
    let size = min (resolve_jobs ?jobs ()) (hardware_jobs ()) in
    let t =
      {
        size;
        mu = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        epoch = 0;
        stopping = false;
        lo = 0;
        n = 0;
        chunks = 0;
        body = noop;
        next = Atomic.make 0;
        failed = Atomic.make None;
        active = 0;
        domains = [||];
      }
    in
    if size > 1 then
      t.domains <-
        Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let size t = t.size

  let stop t =
    if Array.length t.domains > 0 then begin
      Mutex.protect t.mu (fun () ->
          t.stopping <- true;
          Condition.broadcast t.work_ready);
      Array.iter Domain.join t.domains;
      t.domains <- [||]
    end

  let run t ~chunks ~lo ~hi body =
    let n = hi - lo in
    if n <= 0 then ()
    else
      observe_region @@ fun () ->
      let chunks = max 1 (min chunks n) in
      let body = instrument_chunk body in
      let body =
        if not (sanitize_enabled ()) then body
        else begin
          (* same shadow tracking as parallel_for: every loop index is
             claimed by its chunk before the body runs, so overlapping
             or escaping chunk spans raise [Race]; bodies may addition-
             ally route stores through [write] / [write_slab]. *)
          let region = make_region ~lo ~hi in
          fun c clo chi ->
            let ctx = { chunk = c; clo; chi; region } in
            with_ctx ctx (fun () ->
                for i = clo to chi - 1 do
                  claim_dispatch ctx i
                done;
                body c clo chi)
        end
      in
      (* inline when there are no parked workers (size 1, or the team
         was stopped) or only one chunk exists *)
      if Array.length t.domains = 0 || chunks = 1 then
        for c = 0 to chunks - 1 do
          let clo, chi = chunk_span ~lo ~n ~chunks c in
          body c clo chi
        done
      else begin
        Mutex.lock t.mu;
        t.lo <- lo;
        t.n <- n;
        t.chunks <- chunks;
        t.body <- body;
        Atomic.set t.next 0;
        Atomic.set t.failed None;
        t.active <- t.size - 1;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.work_ready;
        Mutex.unlock t.mu;
        claim_loop t;
        Mutex.lock t.mu;
        while t.active > 0 do
          Condition.wait t.work_done t.mu
        done;
        Mutex.unlock t.mu;
        t.body <- noop;
        match Atomic.get t.failed with
        | Some { exn; bt; _ } -> Printexc.raise_with_backtrace exn bt
        | None -> ()
      end
end
