(** Distributed request tracing.

    A {e trace} is one client request's causal span tree across
    simulated hosts: the client session mints a root context, the
    context crosses the wire as [Trace-Id]/[Parent-Span-Id] headers,
    and each hop opens child spans under the parent it decoded.
    Decision points attach structured {e reason events} (admission
    sheds, breaker trips, hedges, failovers, coalesce joins,
    serve-stale) to the owning span.

    The collector is process-global and disabled by default; a null
    context short-circuits every operation, so instrumentation stays in
    hot paths.  Timestamps come from an injected clock —
    [Simnet.Engine.run] points it at virtual time for the duration of a
    run — and ids are minted sequentially, so seeded runs export
    byte-identical traces. *)

type ctx
(** A (trace id, parent span id) pair; the propagation token. *)

val none : ctx
(** The null context: operations on it are no-ops. *)

val live : ctx -> bool
(** Tracing enabled and [ctx] is not {!none}. *)

type span
(** Handle for an open span; [finish] closes it (idempotent). *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all spans/events, restart id minting, clear the flight
    recorder. Keeps the enabled flag and clock. *)

val set_clock : (unit -> int64) -> unit
val current_clock : unit -> unit -> int64
val set_max_records : int -> unit
(** Cap on spans plus events held (default 500 k, at least 1); records
    past it are counted in {!dropped}, not stored. *)

(** {1 Producing} *)

val root : ?args:(string * string) list -> node:string -> string -> span
(** Mint a fresh trace with this span as root (no-op span when
    disabled). *)

val start : ?args:(string * string) list -> ctx -> node:string -> string -> span
(** Open a child span under [ctx] (no-op when [ctx] is dead). *)

val ctx_of : span -> ctx
val finish : span -> unit

val event : ctx -> node:string -> kind:string -> string -> unit
(** Attach a reason event — [kind] is the stable machine name (e.g.
    ["admission.shed_deadline"]), the string argument free-form
    detail. *)

val scope : ctx -> node:string -> (unit -> 'a) -> 'a
(** Run a thunk with [ctx] as the ambient trace scope, so
    context-free instrumentation ({!leaf}) can attach to it. *)

val current : unit -> (ctx * string) option

val leaf :
  ?args:(string * string) list ->
  name:string -> start_us:int64 -> end_us:int64 -> unit -> unit
(** Attach an already-timed span (a [Telemetry.with_span] completion)
    as a closed leaf under the ambient scope, if any. *)

(** {1 Wire} *)

val wire : ctx -> (int64 * int) option
(** What to put in the request headers; [None] when the ctx is dead. *)

val of_wire : trace_id:int64 option -> parent_span:int option -> ctx
(** Rebuild a context from decoded headers; absent headers (an old
    peer) yield {!none}. *)

(** {1 Inspecting} *)

type srec = {
  s_trace : int64;
  s_id : int;
  s_parent : int;  (** 0 = root *)
  s_node : string;
  s_name : string;
  s_args : (string * string) list;
  s_start : int64;
  mutable s_end : int64;  (** -1 while open *)
}

type erec = {
  e_trace : int64;
  e_span : int;
  e_node : string;
  e_kind : string;
  e_detail : string;
  e_at : int64;
}

val spans : unit -> srec list
val events : unit -> erec list
val spans_of : int64 -> srec list
val events_of : int64 -> erec list
val trace_ids : unit -> int64 list
val find_trace_with : kind:string -> int64 option
(** First trace (by event order) containing a reason event of [kind]. *)

val event_kind_counts : unit -> (string * int) list
(** Sorted (kind, occurrences) — what the completeness tests compare
    against telemetry counters. *)

val span_count : unit -> int
val event_count : unit -> int
val dropped : unit -> int

(** {1 Exporting} *)

val export_json : int64 -> string
(** One trace as JSON: flat span and event arrays, tree via parent
    ids. *)

val export_chrome : int64 -> string
(** One trace as Chrome [trace_event] JSON: one pid per node, spans as
    "X" events, reason events as instants. *)

val render : int64 -> string
(** Human-readable indented tree, reason events flagged with '!'. *)
