(* System telemetry: counters, gauges and latency histograms with a
   global registry and a near-zero-cost disabled path, plus
   [with_span], which times a region and hands it to the one span
   store, the distributed-trace collector ([Trace]).

   A span is timed on the Simnet engine's virtual clock while a
   simulation is running (injected via [set_sim_clock], so telemetry
   never depends on the simulator) and on the wall clock otherwise.
   Every operation on a disabled registry returns after a single
   [enabled] flag check. *)

type clock = unit -> int64

(* --- Log-scale latency histograms. ---

   Bucket [i] counts observations v with 2^(i-1) <= v < 2^i (bucket 0
   counts v <= 0 and v = 1 lands in bucket 1). 63 buckets cover the
   whole non-negative int64 range in microseconds. *)

let hist_buckets = 63

type hist = {
  buckets : int array;
  mutable h_count : int;
  mutable h_sum : int64;
  mutable h_min : int64;
  mutable h_max : int64;
}

let hist_create () =
  {
    buckets = Array.make hist_buckets 0;
    h_count = 0;
    h_sum = 0L;
    h_min = Int64.max_int;
    h_max = Int64.min_int;
  }

let bucket_of v =
  if Int64.compare v 1L < 0 then 0
  else begin
    (* index of the highest set bit, plus one *)
    let rec bits acc v = if Int64.equal v 0L then acc else bits (acc + 1) (Int64.shift_right_logical v 1) in
    min (hist_buckets - 1) (bits 0 v)
  end

let hist_observe h v =
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- Int64.add h.h_sum v;
  if Int64.compare v h.h_min < 0 then h.h_min <- v;
  if Int64.compare v h.h_max > 0 then h.h_max <- v

(* Approximate quantile: walk buckets to the one holding the q-th
   observation and report its upper bound (clamped to the true max). *)
let hist_quantile h q =
  if h.h_count = 0 then 0L
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.h_count))) in
    let seen = ref 0 and result = ref h.h_max in
    (try
       for i = 0 to hist_buckets - 1 do
         seen := !seen + h.buckets.(i);
         if !seen >= rank then begin
           result := (if i = 0 then 0L else Int64.shift_left 1L i);
           raise Exit
         end
       done
     with Exit -> ());
    if Int64.compare !result h.h_max > 0 then h.h_max else !result
  end

type hist_stats = {
  count : int;
  sum_us : int64;
  min_us : int64;
  max_us : int64;
  p50_us : int64;
  p95_us : int64;
  p99_us : int64;
}

(* --- Capture/replay tapes. ---

   A tape is the recorded sequence of telemetry effects some
   computation performed: counter adds, gauge sets, histogram
   observations and span completions, in order. Replaying a tape
   re-performs those effects against the registry's *live* state — the
   current clock, the ambient distributed-trace scope — so a memoized
   computation can skip the work while leaving every aggregate (counts,
   sums, trace leaves) exactly as a real run would have. Counter, gauge
   and observe values are re-applied verbatim; a replayed span becomes
   a zero-length leaf at the live clock reading, which under a
   simulation clock is exactly the original (the captured computation
   was synchronous, so it elapsed zero virtual time). *)

type op =
  | Op_add of string * int64
  | Op_set_gauge of string * int64
  | Op_observe of string * int64
  | Op_leaf of string * (string * string) list (* name, args incl. "cat" *)

type tape = op list (* in execution order *)

type t = {
  mutable enabled : bool;
  mutable wall_clock : clock;
  mutable sim_clock : clock option;
  counters : (string, int64 ref) Hashtbl.t;
  gauges : (string, int64 ref) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
  mutable tape_rev : op list ref option; (* active capture, ops newest first *)
}

let wall_now () = Int64.of_float (Unix.gettimeofday () *. 1e6)

let create () =
  {
    enabled = false;
    wall_clock = wall_now;
    sim_clock = None;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 32;
    tape_rev = None;
  }

let default = create ()

let enabled t = t.enabled
let enable t = t.enabled <- true
let disable t = t.enabled <- false

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms

let set_wall_clock t c = t.wall_clock <- c
let set_sim_clock t c = t.sim_clock <- c
let sim_clock t = t.sim_clock

(* --- Counters and gauges. --- *)

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref 0L in
    Hashtbl.replace tbl name r;
    r

(* Record one op on the active capture, if any. Call sites only reach
   this when the registry is enabled, so a disabled registry captures
   an empty tape — matching the zero effects it performed. *)
let tape_op t op =
  match t.tape_rev with Some r -> r := op :: !r | None -> ()

let add t name by = if t.enabled then begin
    let r = cell t.counters name in
    r := Int64.add !r by;
    tape_op t (Op_add (name, by))
  end

let incr t name = add t name 1L

let set_gauge t name v =
  if t.enabled then begin
    cell t.gauges name := v;
    tape_op t (Op_set_gauge (name, v))
  end

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0L

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0L

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let gauges t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.gauges []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- Histograms. --- *)

let observe t name v =
  if t.enabled then begin
    let h =
      match Hashtbl.find_opt t.histograms name with
      | Some h -> h
      | None ->
        let h = hist_create () in
        Hashtbl.replace t.histograms name h;
        h
    in
    hist_observe h v;
    tape_op t (Op_observe (name, v))
  end

let histogram_stats t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h ->
    Some
      {
        count = h.h_count;
        sum_us = h.h_sum;
        min_us = (if h.h_count = 0 then 0L else h.h_min);
        max_us = (if h.h_count = 0 then 0L else h.h_max);
        p50_us = hist_quantile h 0.5;
        p95_us = hist_quantile h 0.95;
        p99_us = hist_quantile h 0.99;
      }

let histograms t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.histograms []
  |> List.sort String.compare
  |> List.filter_map (fun k ->
         Option.map (fun s -> (k, s)) (histogram_stats t k))

(* --- Spans. --- *)

(* A completed span becomes a leaf of the ambient trace scope, if any.
   An active capture records it either way: the replay may run under a
   scope the capture did not. *)
let leaf t ~cat ~args name ~start_us ~end_us =
  if t.tape_rev <> None || Trace.current () <> None then begin
    let args = ("cat", cat) :: args in
    tape_op t (Op_leaf (name, args));
    Trace.leaf ~args ~name ~start_us ~end_us ()
  end

let with_span ?(cat = "app") ?(args = []) ?observe_hist t name f =
  if not t.enabled then f ()
  else begin
    let wall0 = t.wall_clock () in
    let sim0 = Option.map (fun c -> c ()) t.sim_clock in
    let finish () =
      let wall1 = t.wall_clock () in
      let sim1 = Option.map (fun c -> c ()) t.sim_clock in
      (* Simulated time when a sim clock covers the whole span: benches
         must never mix virtual and host time in one distribution, or
         seeded runs stop being reproducible. *)
      let start_us, end_us =
        match (sim0, sim1) with
        | Some s0, Some s1 -> (s0, s1)
        | _ -> (wall0, wall1)
      in
      Option.iter (fun h -> observe t h (Int64.sub end_us start_us)) observe_hist;
      leaf t ~cat ~args name ~start_us ~end_us
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* --- Capture and replay. --- *)

let capture t f =
  match t.tape_rev with
  | Some _ ->
    (* A capture is already active: the outer capture owns the ops.
       The inner caller gets no tape, so it cannot memoize a partial
       recording. *)
    (f (), None)
  | None ->
    let r = ref [] in
    t.tape_rev <- Some r;
    let finish () = t.tape_rev <- None in
    (match f () with
    | v ->
      finish ();
      (v, Some (List.rev !r))
    | exception e ->
      finish ();
      raise e)

let replay t tape =
  if t.enabled then
    List.iter
      (function
        | Op_add (n, v) -> add t n v
        | Op_set_gauge (n, v) -> set_gauge t n v
        | Op_observe (n, v) -> observe t n v
        | Op_leaf (name, args) as op ->
          (* The span's ?observe_hist observation replays as its own
             Op_observe; only the leaf is re-emitted, live. *)
          tape_op t op;
          if Trace.current () <> None then begin
            let at =
              match t.sim_clock with Some c -> c () | None -> t.wall_clock ()
            in
            Trace.leaf ~args ~name ~start_us:at ~end_us:at ()
          end)
      tape

(* The one JSON string escaper; it lives in Flight, at the bottom of
   the library's dependency order, so every exporter can share it. *)
let json_escape = Flight.esc

(* JSON fragment of the latency histograms: [{"name":...,"count":...,
   "p50_us":...,...}, ...]. Benches embed this in their JSON output so
   tail latency is machine-readable alongside throughput. *)
let histograms_json t =
  let hs = histograms t in
  "["
  ^ String.concat ","
      (List.map
         (fun (k, s) ->
           Printf.sprintf
             "{\"name\":\"%s\",\"count\":%d,\"sum_us\":%Ld,\"min_us\":%Ld,\"p50_us\":%Ld,\"p95_us\":%Ld,\"p99_us\":%Ld,\"max_us\":%Ld}"
             (json_escape k) s.count s.sum_us s.min_us s.p50_us s.p95_us
             s.p99_us s.max_us)
         hs)
  ^ "]"

(* Full machine-readable snapshot: counters, gauges and histograms as
   one JSON object — `dvmctl metrics --json` and the BENCH_*.json
   writer share this. *)
let metrics_json t =
  let b = Buffer.create 1024 in
  let kv (k, v) = Printf.sprintf "\"%s\":%Ld" (json_escape k) v in
  Buffer.add_string b "{\"counters\":{";
  Buffer.add_string b (String.concat "," (List.map kv (counters t)));
  Buffer.add_string b "},\"gauges\":{";
  Buffer.add_string b (String.concat "," (List.map kv (gauges t)));
  Buffer.add_string b "},\"histograms\":";
  Buffer.add_string b (histograms_json t);
  Buffer.add_string b "}";
  Buffer.contents b

(* --- Plain-text metrics snapshot. --- *)

let metrics_snapshot t =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "== telemetry snapshot ==\n";
  let cs = counters t in
  if cs <> [] then begin
    pf "counters:\n";
    List.iter (fun (k, v) -> pf "  %-44s %12Ld\n" k v) cs
  end;
  let gs = gauges t in
  if gs <> [] then begin
    pf "gauges:\n";
    List.iter (fun (k, v) -> pf "  %-44s %12Ld\n" k v) gs
  end;
  let hs = histograms t in
  if hs <> [] then begin
    pf "histograms (µs):\n";
    pf "  %-44s %8s %12s %8s %8s %8s %8s %8s\n" "" "count" "sum" "min" "p50"
      "p95" "p99" "max";
    List.iter
      (fun (k, s) ->
        pf "  %-44s %8d %12Ld %8Ld %8Ld %8Ld %8Ld %8Ld\n" k s.count s.sum_us
          s.min_us s.p50_us s.p95_us s.p99_us s.max_us)
      hs
  end;
  Buffer.contents b

(* --- Shortcuts over the global default registry — what hot-path
   instrumentation call sites use. Disabled cost: one call + one flag
   check. --- *)

module Global = struct
  let on () = default.enabled
  let incr name = incr default name
  let add name by = add default name by
  let set_gauge name v = set_gauge default name v
  let observe name v = observe default name v

  let with_span ?cat ?args ?observe_hist name f =
    with_span ?cat ?args ?observe_hist default name f

  let host_hist name = if Option.is_none default.sim_clock then Some name else None
end

(* Sibling modules of the wrapped library, re-exported so users write
   Telemetry.Trace / Telemetry.Flight / Telemetry.Slo. *)
module Trace = Trace
module Flight = Flight
module Slo = Slo

(* The one call every decision site makes: bump counter [kind] and
   attach reason event [kind], so a counter and its event cannot drift
   apart. The detail is formatted only when a line is written — on a
   live trace, or on the flight recorder when [at] asks for an
   untraced decision to land there anyway. *)
let decision ?at ctx ~node kind fmt =
  Global.incr kind;
  if Trace.live ctx then Printf.ksprintf (Trace.event ctx ~node ~kind) fmt
  else
    match at with
    | Some at ->
      Printf.ksprintf (fun d -> Flight.note ~at ~node (kind ^ " " ^ d)) fmt
    | None -> Printf.ikfprintf ignore () fmt
