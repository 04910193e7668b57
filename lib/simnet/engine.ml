(* Discrete-event simulation engine. Time is in integer microseconds.
   Events fire in (time, insertion order) — ties break FIFO so models
   are deterministic. *)

type time = int64

(* [key] is [at] as an unboxed int, so the heap compares (key, seq)
   with int compares; [at] keeps the boxed time the caller passed, so
   firing sets the clock without allocating. [schedule_at] rejects
   times an int cannot hold. *)
type event = { key : int; seq : int; at : time; fn : unit -> unit }

(* Binary min-heap on (key, seq). The run loop reads the minimum as
   [data.(0)] and removes it with [drop_min]: no option per event. *)
module Heap = struct
  type t = { mutable data : event array; mutable size : int }

  let dummy = { key = 0; seq = 0; at = 0L; fn = ignore }
  let create () = { data = Array.make 256 dummy; size = 0 }

  let[@inline] less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

  (* Sift with a hole: parents move down into it, [e] is written once. *)
  let push h e =
    if h.size >= Array.length h.data then begin
      let bigger = Array.make (2 * Array.length h.data) dummy in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    let data = h.data in
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let parent = data.(p) in
      if less e parent then begin
        data.(!i) <- parent;
        i := p
      end
      else continue := false
    done;
    data.(!i) <- e

  (* Remove the minimum (the heap must be non-empty): the last event
     fills the root's hole, sifting down past smaller children. *)
  let drop_min h =
    let data = h.data in
    let n = h.size - 1 in
    h.size <- n;
    let last = data.(n) in
    data.(n) <- dummy;
    if n > 0 then begin
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let c = if l + 1 < n && less data.(l + 1) data.(l) then l + 1 else l in
          let child = data.(c) in
          if less child last then begin
            data.(!i) <- child;
            i := c
          end
          else continue := false
        end
      done;
      data.(!i) <- last
    end
end

type t = {
  mutable now : time;
  heap : Heap.t;
  mutable next_seq : int;
  mutable events_processed : int;
  (* During a run, per-event counter updates are batched into these and
     flushed once when the loop exits — the totals (and the final
     queue-depth gauge, which is the heap size at exit) are exactly
     what the per-event writes produced, without two hashtable lookups
     per event. *)
  mutable in_run : bool;
  mutable sched_batch : int;
  (* Optional deterministic event trace: models call [record] at the
     points they consider observable (a request served, a shard chosen)
     and tests compare whole traces across runs. Newest first. An
     optional cap bounds the buffer; records past it are counted, not
     kept. *)
  mutable tracing : bool;
  mutable trace_buf : (time * string) list;
  mutable trace_len : int;
  mutable trace_cap : int option;
  mutable trace_dropped : int;
}

let create () =
  {
    now = 0L;
    heap = Heap.create ();
    next_seq = 0;
    events_processed = 0;
    in_run = false;
    sched_batch = 0;
    tracing = false;
    trace_buf = [];
    trace_len = 0;
    trace_cap = None;
    trace_dropped = 0;
  }

let now t = t.now

let set_tracing t on =
  t.tracing <- on;
  t.trace_buf <- [];
  t.trace_len <- 0;
  t.trace_dropped <- 0

let set_trace_cap t cap =
  (match cap with
  | Some c when c < 0 -> invalid_arg "Engine.set_trace_cap: negative cap"
  | Some _ | None -> ());
  t.trace_cap <- cap

let record t label =
  if t.tracing then begin
    match t.trace_cap with
    | Some cap when t.trace_len >= cap ->
      t.trace_dropped <- t.trace_dropped + 1
    | Some _ | None ->
      t.trace_buf <- (t.now, label) :: t.trace_buf;
      t.trace_len <- t.trace_len + 1
  end

let trace t = List.rev t.trace_buf
let trace_dropped t = t.trace_dropped

let min_time = Int64.of_int min_int
let max_time = Int64.of_int max_int

let schedule_at t at fn =
  let at = if Int64.compare at t.now < 0 then t.now else at in
  if Int64.compare at max_time > 0 || Int64.compare at min_time < 0 then
    invalid_arg "Engine.schedule_at: time outside the int range";
  Heap.push t.heap { key = Int64.to_int at; seq = t.next_seq; at; fn };
  t.next_seq <- t.next_seq + 1;
  if Telemetry.Global.on () then
    if t.in_run then t.sched_batch <- t.sched_batch + 1
    else begin
      Telemetry.Global.incr "simnet.events.scheduled";
      Telemetry.Global.set_gauge "simnet.queue.depth"
        (Int64.of_int t.heap.Heap.size)
    end

let schedule t ~delay fn = schedule_at t (Int64.add t.now delay) fn

let run_loop ?until t =
  let processed = ref 0 in
  let flush () =
    t.in_run <- false;
    if (!processed > 0 || t.sched_batch > 0) && Telemetry.Global.on () then begin
      if t.sched_batch > 0 then
        Telemetry.Global.add "simnet.events.scheduled"
          (Int64.of_int t.sched_batch);
      if !processed > 0 then
        Telemetry.Global.add "simnet.events.processed"
          (Int64.of_int !processed);
      (* The last per-event gauge write always reflected the heap as it
         stood when the loop exited — one write says the same thing. *)
      Telemetry.Global.set_gauge "simnet.queue.depth"
        (Int64.of_int t.heap.Heap.size)
    end;
    t.sched_batch <- 0
  in
  t.in_run <- true;
  let heap = t.heap in
  Fun.protect ~finally:flush (fun () ->
      let continue = ref true in
      while !continue do
        if heap.Heap.size = 0 then continue := false
        else begin
          let e = heap.Heap.data.(0) in
          match until with
          | Some stop when Int64.compare e.at stop > 0 ->
            (* Past the horizon: leave it queued and stop. *)
            t.now <- stop;
            continue := false
          | Some _ | None ->
            Heap.drop_min heap;
            t.now <- e.at;
            t.events_processed <- t.events_processed + 1;
            if Telemetry.Global.on () then incr processed;
            e.fn ()
        end
      done)

let run_inner ?until t =
  if not (Telemetry.Global.on ()) then run_loop ?until t
  else begin
    (* Expose the virtual clock to telemetry for the duration of the
       run, so spans opened inside event handlers carry simulated
       timestamps alongside wall-clock ones. *)
    let reg = Telemetry.default in
    let prev_sim = Telemetry.sim_clock reg in
    Telemetry.set_sim_clock reg (Some (fun () -> t.now));
    let sim0 = t.now in
    let finish () =
      Telemetry.Global.add "simnet.virtual_us" (Int64.sub t.now sim0);
      Telemetry.set_sim_clock reg prev_sim
    in
    match
      Telemetry.Global.with_span ~cat:"simnet" "simnet.run" (fun () ->
          run_loop ?until t)
    with
    | () -> finish ()
    | exception e ->
      finish ();
      raise e
  end

let run ?until t =
  (* The distributed-trace collector reads time through its own clock;
     point it at virtual time for the whole run (whether or not the
     metrics registry is enabled — tracing can be on independently). *)
  let prev_trace_clock = Telemetry.Trace.current_clock () in
  Telemetry.Trace.set_clock (fun () -> t.now);
  Fun.protect
    ~finally:(fun () -> Telemetry.Trace.set_clock prev_trace_clock)
    (fun () -> run_inner ?until t)

let us n = Int64.of_int n
let ms n = Int64.of_int (n * 1000)
let sec n = Int64.of_int (n * 1_000_000)
let to_ms t = Int64.to_float t /. 1000.
let to_sec t = Int64.to_float t /. 1_000_000.

let events_processed t = t.events_processed
