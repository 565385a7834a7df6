(* Tracing + metrics substrate.  See obs.mli for the contract.

   Design constraints, in order:
   - with tracing off and no flight recorder installed on any domain,
     every record operation is two atomic loads and a branch, with no
     domain-local read and no allocation, so instrumentation can live
     inside solver hot loops;
   - one emit path: each event is recorded once and goes to the
     domain's trace buffer while tracing is on and to the domain's
     installed recorder ring while one is installed;
   - recording must be race-free under the pool sanitizer: trace events
     go to per-domain buffers, ring writes take the ring's mutex,
     counters are atomics, histograms take a per-instance mutex;
   - the data must survive pool workers, which are joined after every
     region: each domain-local buffer is registered in a global list
     the moment it is created, so [events] can read it after the domain
     is gone. *)

module Clock = struct
  (* Per-domain monotone clamp over the system clock: a backwards step
     (NTP, VM migration) would otherwise produce negative span
     durations and out-of-order trace events. *)
  let last : float ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0.0)

  let now () =
    (* netdiv-lint: allow direct-clock-in-instrumented-code — this IS the
       clock shim the rule points everyone at; the one sanctioned
       gettimeofday read for telemetry and harness timing. *)
    let t = Unix.gettimeofday () in
    let r = Domain.DLS.get last in
    let t =
      if t > !r then begin
        r := t;
        t
      end
      else !r
    in
    (* Injected clock stalls land AFTER the monotone clamp: clearing
       the fault spec restores real time instead of leaving the skew
       captured in the per-domain [last] refs forever. *)
    t +. Netdiv_fault.Fault.clock_offset ()
end

(* Global enable flag.  An [Atomic] rather than a [ref] so domains
   spawned while the program toggles it still see a well-defined value
   under the OCaml 5 memory model. *)
let on = Atomic.make false
let enabled () = Atomic.get on

(* [set_enabled] lives below the metrics registry: the first enable
   lazily installs a GC alarm feeding the [gc.major_cycles] counter. *)

(* ------------------------------------------------------------- events *)

type kind = Begin | End | Instant | Sample

type event = {
  kind : kind;
  name : string;
  ts : float;
  value : float;
  tid : int;
}

let dummy_event = { kind = Instant; name = ""; ts = 0.0; value = 0.0; tid = 0 }

(* Growable per-domain event buffer (OCaml 5.1 has no Dynarray). *)
type buffer = { tid : int; mutable evs : event array; mutable len : int }

let registry_lock = Mutex.create ()
let buffers : buffer list ref = ref []
let next_tid = ref 0

(* First event on a domain allocates its buffer and registers it; the
   registration mutex is taken once per domain lifetime, never on the
   per-event path. *)
let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Mutex.protect registry_lock (fun () ->
          let b =
            { tid = !next_tid; evs = Array.make 256 dummy_event; len = 0 }
          in
          incr next_tid;
          buffers := b :: !buffers;
          b))

let push b ev =
  if b.len = Array.length b.evs then begin
    let bigger = Array.make (2 * Array.length b.evs) dummy_event in
    Array.blit b.evs 0 bigger 0 b.len;
    b.evs <- bigger
  end;
  b.evs.(b.len) <- ev;
  b.len <- b.len + 1

(* ----------------------------------------------------- recorder rings *)

(* A ring keeps the last [capacity] events in struct-of-arrays storage
   (stores into the floatarrays are unboxed); a write is a
   mutex-guarded bounded store, with no allocation and no growth. *)
type ring = {
  capacity : int;
  lock : Mutex.t;
  kinds : kind array;
  names : string array;
  stamps : floatarray;
  values : floatarray;
  mutable total : int;
}

type recorder = {
  rname : string;
  dump_path : string option;
  t0 : float;
  ring : ring;
  mutable last_reason : string option;
}

let new_ring capacity =
  let capacity = max 1 capacity in
  {
    capacity;
    lock = Mutex.create ();
    kinds = Array.make capacity Instant;
    names = Array.make capacity "";
    stamps = Float.Array.make capacity 0.0;
    values = Float.Array.make capacity 0.0;
    total = 0;
  }

let ring_capacity g = g.capacity
let ring_recorded g = g.total

(* manual lock/unlock: [Mutex.protect] would allocate a closure per
   event *)
let ring_write g kind name ts value =
  Mutex.lock g.lock;
  let slot = g.total mod g.capacity in
  g.kinds.(slot) <- kind;
  g.names.(slot) <- name;
  Float.Array.set g.stamps slot ts;
  Float.Array.set g.values slot value;
  g.total <- g.total + 1;
  Mutex.unlock g.lock

let ring_events g =
  Mutex.lock g.lock;
  (* oldest retained event first: once the ring has wrapped, the slot
     under the write cursor is the oldest *)
  let start = if g.total <= g.capacity then 0 else g.total mod g.capacity in
  let out =
    List.init (min g.total g.capacity) (fun i ->
        let s = (start + i) mod g.capacity in
        {
          kind = g.kinds.(s);
          name = g.names.(s);
          ts = Float.Array.get g.stamps s;
          value = Float.Array.get g.values s;
          tid = 0;
        })
  in
  Mutex.unlock g.lock;
  out

(* The installed recorder is per-domain state, so solver code records
   through the plain event API without threading a recorder argument.
   [installed_count] counts the domains that hold one right now: while
   it is zero the record path never reads domain-local state. *)
let installed_count = Atomic.make 0

let recorder_key : recorder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let installed () =
  if Atomic.get installed_count = 0 then None
  else !(Domain.DLS.get recorder_key)

let with_installed v f =
  match v with
  | None when Atomic.get installed_count = 0 -> f ()
  | _ ->
      let cell = Domain.DLS.get recorder_key in
      let saved = !cell in
      let swap a b =
        cell := b;
        let held = function None -> 0 | Some _ -> 1 in
        ignore (Atomic.fetch_and_add installed_count (held b - held a))
      in
      swap saved v;
      Fun.protect ~finally:(fun () -> swap v saved) f

(* ------------------------------------------------------------ emitting *)

let recording () = Atomic.get on || Atomic.get installed_count > 0

let record kind name value =
  let traced = Atomic.get on in
  let r = installed () in
  if traced || Option.is_some r then begin
    let ts = Clock.now () in
    if traced then begin
      let b = Domain.DLS.get buffer_key in
      push b { kind; name; ts; value; tid = b.tid }
    end;
    match r with Some r -> ring_write r.ring kind name ts value | None -> ()
  end

let begin_span name = if recording () then record Begin name 0.0
let end_span name = if recording () then record End name 0.0
let instant name = if recording () then record Instant name 0.0
let sample ~name v = if recording () then record Sample name v

let span ~name f =
  if not (recording ()) then f ()
  else begin
    record Begin name 0.0;
    match f () with
    | x ->
        record End name 0.0;
        x
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        record End name 0.0;
        Printexc.raise_with_backtrace e bt
  end

let events () =
  let all =
    Mutex.protect registry_lock (fun () ->
        List.concat_map
          (fun b -> List.init b.len (fun i -> b.evs.(i)))
          (List.sort (fun a b -> compare a.tid b.tid) !buffers))
  in
  (* stable sort: a buffer's events carry non-decreasing timestamps (the
     clock shim clamps per domain), so per-tid order survives *)
  List.stable_sort
    (fun a b ->
      let c = Float.compare a.ts b.ts in
      if c <> 0 then c else compare a.tid b.tid)
    all

(* ------------------------------------------------------------ metrics *)

module Counter = struct
  type t = { cname : string; v : int Atomic.t }

  let lock = Mutex.create ()
  let table : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some c -> c
        | None ->
            let c = { cname = name; v = Atomic.make 0 } in
            Hashtbl.add table name c;
            c)

  let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.v n)
  let incr c = add c 1
  let value c = Atomic.get c.v

  let reset_all () =
    Mutex.protect lock (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c.v 0) table)
end

module Histogram = struct
  let n_buckets = 64
  let base = 1e-6

  type t = {
    hname : string;
    hlock : Mutex.t;
    hbuckets : int array;
    mutable hcount : int;
    hstats : float array; (* [| sum; min; max |] *)
  }

  (* Bucket 0: everything below [base] (zero, negatives, nan).  Bucket
     [i >= 1] covers [base*2^(i-1), base*2^i).  Multiplying/dividing by
     a power of two is exact in IEEE double, so the edges are exact:
     [base *. 2.0 ** k] always lands in bucket [k + 1]. *)
  let bucket_of v =
    if not (v >= base) then 0
    else begin
      let b = 1 + int_of_float (Float.log2 (v /. base)) in
      if b >= n_buckets then n_buckets - 1 else b
    end

  let bucket_lower i = if i <= 0 then 0.0 else base *. (2.0 ** float_of_int (i - 1))

  let lock = Mutex.create ()
  let table : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table name with
        | Some h -> h
        | None ->
            let h =
              {
                hname = name;
                hlock = Mutex.create ();
                hbuckets = Array.make n_buckets 0;
                hcount = 0;
                hstats = [| 0.0; infinity; neg_infinity |];
              }
            in
            Hashtbl.add table name h;
            h)

  (* manual lock/unlock: [Mutex.protect] would allocate a closure on
     every record *)
  let record h v =
    if Atomic.get on then begin
      let b = bucket_of v in
      Mutex.lock h.hlock;
      h.hbuckets.(b) <- h.hbuckets.(b) + 1;
      h.hcount <- h.hcount + 1;
      h.hstats.(0) <- h.hstats.(0) +. v;
      if v < h.hstats.(1) then h.hstats.(1) <- v;
      if v > h.hstats.(2) then h.hstats.(2) <- v;
      Mutex.unlock h.hlock
    end

  let count h = h.hcount
  let sum h = h.hstats.(0)
  let buckets h = Array.copy h.hbuckets

  let clear h =
    Mutex.lock h.hlock;
    Array.fill h.hbuckets 0 n_buckets 0;
    h.hcount <- 0;
    h.hstats.(0) <- 0.0;
    h.hstats.(1) <- infinity;
    h.hstats.(2) <- neg_infinity;
    Mutex.unlock h.hlock

  let reset_all () =
    Mutex.protect lock (fun () -> Hashtbl.iter (fun _ h -> clear h) table)
end

(* GC attribution: a Gc alarm ticks a counter at the end of every major
   cycle on the installing domain, so a metrics dump shows how many
   full collections a run paid for.  Installed once, on the first
   enable — an alarm on a never-enabled process would be pure noise —
   and never removed: the counter add itself is gated on [on]. *)
let c_gc_major_cycles = Counter.make "gc.major_cycles"
let gc_alarm_installed = Atomic.make false

let set_enabled b =
  if b && not (Atomic.exchange gc_alarm_installed true) then
    ignore (Gc.create_alarm (fun () -> Counter.incr c_gc_major_cycles));
  Atomic.set on b

type metric =
  | Counter_v of { name : string; count : int }
  | Histogram_v of {
      name : string;
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : int array;
    }

let metric_name = function
  | Counter_v { name; _ } | Histogram_v { name; _ } -> name

let metrics () =
  let cs =
    Mutex.protect Counter.lock (fun () ->
        Hashtbl.fold
          (fun name c acc ->
            Counter_v { name; count = Atomic.get c.Counter.v } :: acc)
          Counter.table [])
  in
  let hs =
    Mutex.protect Histogram.lock (fun () ->
        Hashtbl.fold
          (fun name h acc ->
            Histogram_v
              {
                name;
                count = h.Histogram.hcount;
                sum = h.Histogram.hstats.(0);
                min = h.Histogram.hstats.(1);
                max = h.Histogram.hstats.(2);
                buckets = Array.copy h.Histogram.hbuckets;
              }
            :: acc)
          Histogram.table [])
  in
  List.sort
    (fun a b -> compare (metric_name a) (metric_name b))
    (cs @ hs)

let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter (fun b -> b.len <- 0) !buffers);
  Counter.reset_all ();
  Histogram.reset_all ()
