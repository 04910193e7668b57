(** System telemetry: counters, gauges, latency histograms and timed
    spans.

    A registry collects three kinds of signal:

    - {e counters} and {e gauges} — monotonic / last-value integers;
    - {e histograms} — log₂-bucketed latency distributions in µs;
    - {e spans} — timed regions ({!with_span}). The registry keeps no
      span store of its own: a span feeds an optional histogram and
      becomes a leaf of the ambient {!Trace} scope, the one span model
      and Chrome exporter.

    Registries are disabled by default; every operation on a disabled
    registry returns after a single flag check, so instrumentation can
    stay in hot paths permanently. Exporters: a plain-text metrics
    snapshot and its JSON twin.

    Most call sites use {!Global}, the shortcuts over the process-wide
    {!default} registry. *)

type t

type clock = unit -> int64
(** Microseconds. *)

val create : unit -> t
(** A fresh, disabled registry. *)

val default : t
(** The process-wide registry used by {!Global} and by the library
    instrumentation call sites. *)

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val reset : t -> unit
(** Drop all recorded data (keeps clocks and the enabled flag). *)

val set_wall_clock : t -> clock -> unit
val set_sim_clock : t -> clock option -> unit
(** Inject the simulation's virtual clock ([Simnet.Engine.run] does
    this for the duration of a run); [None] detaches it. *)

val sim_clock : t -> clock option

(** {1 Counters, gauges, histograms} *)

val incr : t -> string -> unit
val add : t -> string -> int64 -> unit
val set_gauge : t -> string -> int64 -> unit
val observe : t -> string -> int64 -> unit
(** Record one histogram observation (µs). *)

val counter_value : t -> string -> int64
val gauge_value : t -> string -> int64
val counters : t -> (string * int64) list
(** Sorted by name. *)

val gauges : t -> (string * int64) list

type hist_stats = {
  count : int;
  sum_us : int64;
  min_us : int64;
  max_us : int64;
  p50_us : int64;  (** approximate: bucket upper bound *)
  p95_us : int64;
  p99_us : int64;
}

val histogram_stats : t -> string -> hist_stats option
val histograms : t -> (string * hist_stats) list

(** {1 Spans} *)

val with_span :
  ?cat:string ->
  ?args:(string * string) list ->
  ?observe_hist:string ->
  t ->
  string ->
  (unit -> 'a) ->
  'a
(** Time the thunk, also when it raises. The span is timed on the
    sim clock when one is attached at both ends (so bench histograms
    never mix virtual and host time), on the wall clock otherwise.
    [observe_hist] records the duration into that histogram. If a
    {!Trace} scope is ambient the span becomes a leaf of it, with
    [("cat", cat)] prepended to [args]. On a disabled registry this is
    exactly [f ()]. *)

(** {1 Capture and replay}

    Memoization support: a [tape] is the recorded sequence of
    telemetry effects (counter adds, gauge sets, histogram
    observations, span completions) a computation performed. Replaying
    the tape re-performs those effects against the registry's live
    state — the current clock, the currently ambient {!Trace} scope —
    so a caller that cached the computation's result can skip the work
    while every aggregate a bench pins (counter and histogram values,
    trace leaves) comes out exactly as a real re-run would have
    produced. Counter/gauge/observation values are re-applied
    verbatim; a replayed span is a zero-length leaf at the live clock
    reading. Under a simulation clock this is exact, because the
    captured computation was synchronous and both runs elapse zero
    virtual time. *)

type tape

val capture : t -> (unit -> 'a) -> 'a * tape option
(** Run the thunk while recording its telemetry effects. Returns
    [None] for the tape when a capture was already active (the outer
    capture owns the ops — the caller must not memoize). A disabled
    registry yields an empty tape, matching its zero effects; callers
    memoizing against it must check {!enabled} parity before
    replaying. *)

val replay : t -> tape -> unit
(** Re-perform a captured tape's effects. A no-op on a disabled
    registry. *)

(** {1 Exporters} *)

val metrics_snapshot : t -> string
(** Human-readable table of counters, gauges and histograms. *)

val histograms_json : t -> string
(** The latency histograms as a JSON array of
    [{"name", "count", "sum_us", "min_us", "p50_us", "p95_us",
    "p99_us", "max_us"}] objects — what benches embed in their JSON
    output. *)

val metrics_json : t -> string
(** Counters, gauges and histograms as one JSON object
    [{"counters":{...},"gauges":{...},"histograms":[...]}] — the
    machine-readable twin of {!metrics_snapshot}, shared by
    [dvmctl metrics --json] and the [BENCH_*.json] writer. *)

val json_escape : string -> string
(** The one JSON string escaper ([Flight] and [Trace] share it): quotes,
    backslashes and every control byte. *)

(** {1 Global shortcuts} over {!default} — the form instrumentation
    call sites use. *)
module Global : sig
  val on : unit -> bool
  val incr : string -> unit
  val add : string -> int64 -> unit
  val set_gauge : string -> int64 -> unit
  val observe : string -> int64 -> unit

  val with_span :
    ?cat:string ->
    ?args:(string * string) list ->
    ?observe_hist:string ->
    string ->
    (unit -> 'a) ->
    'a

  val host_hist : string -> string option
  (** [Some name] when no sim clock is attached, [None] otherwise: the
      [observe_hist] of a span that is pure host CPU. Under the sim
      clock such a span always lasts 0 µs, so its histogram would only
      ever read 0. *)
end

(** {1 Distributed observability} — sibling modules re-exported. *)

module Trace : module type of Trace
module Flight : module type of Flight
module Slo : module type of Slo

val decision :
  ?at:int64 ->
  Trace.ctx ->
  node:string ->
  string ->
  ('a, unit, string, unit) format4 ->
  'a
(** [decision ctx ~node kind fmt ...] records one decision: it bumps
    the default registry's counter [kind] and attaches a reason event
    of the same [kind] to [ctx], with the detail formatted from [fmt].
    Every decision site goes through here, so each event count equals
    its same-named counter by construction. On a dead [ctx] the detail
    is not formatted, unless [at] (virtual µs) sends the line to the
    {!Flight} recorder as ["<kind> <detail>"]. *)
