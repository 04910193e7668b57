(** Discrete-event simulation engine.

    Time is in integer microseconds. Events fire in
    (time, insertion-order): ties break FIFO, so models are
    deterministic. *)

type time = int64
type t

val create : unit -> t
val now : t -> time
val events_processed : t -> int

val schedule_at : t -> time -> (unit -> unit) -> unit
(** Times in the past are clamped to now.
    @raise Invalid_argument if the (clamped) time lies outside
    [[Int64.of_int min_int, Int64.of_int max_int]]: the queue orders
    events on native ints. On a 64-bit host that bound is ~146,000
    years of virtual microseconds. *)

val schedule : t -> delay:time -> (unit -> unit) -> unit

val run : ?until:time -> t -> unit
(** Process events until the queue drains (or past the horizon). *)

(** {1 Deterministic event traces}

    Models call {!record} at the points they consider observable (a
    request served, a shard chosen); determinism tests compare whole
    traces across runs. Recording is off by default and free when
    off. *)

val set_tracing : t -> bool -> unit
(** Enable or disable recording; either way the buffer is cleared. *)

val record : t -> string -> unit
(** Append [(now, label)] to the trace when tracing is on. *)

val trace : t -> (time * string) list
(** The recorded trace, in chronological (firing) order. *)

val set_trace_cap : t -> int option -> unit
(** Bound the trace buffer: once it holds that many records, further
    {!record} calls count into {!trace_dropped} instead of growing the
    buffer. [None] (the default) is unbounded. The cap applies from
    now on — an already-larger buffer is left intact.
    @raise Invalid_argument on a negative cap. *)

val trace_dropped : t -> int
(** Records dropped by the cap since tracing was last (re)enabled. *)

(** Time constructors and conversions. *)

val us : int -> time
val ms : int -> time
val sec : int -> time
val to_ms : time -> float
val to_sec : time -> float
