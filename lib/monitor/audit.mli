(** The audit trail (§3.3).

    Events live on a central administration host, off-limits to
    untrusted applications. Each event seals the digest of its
    predecessor (hash chain), making in-place tampering detectable. *)

type event = {
  ev_seq : int;
  ev_time : int64;
  ev_session : int;
  ev_kind : string;
  ev_detail : string;
  ev_chain : string;
}

type t

val create : ?clock:(unit -> int64) -> unit -> t
(** [clock] supplies event times when [append] is not given one —
    inject the simulation's virtual clock so audit events and
    telemetry spans agree on timestamps. Defaults to a constant 0. *)

val seal :
  prev:string ->
  seq:int ->
  time:int64 ->
  session:int ->
  kind:string ->
  detail:string ->
  string
(** The hex MD5 of ["prev|seq|time|session|kind|detail"], the decimals
    written as [%d] / [%Ld] would: an event's [ev_chain]. *)

val append : ?time:int64 -> t -> session:int -> kind:string -> detail:string -> unit
val events : t -> event list
val verify_chain : t -> bool
val count : t -> int
val filter_kind : t -> string -> event list
val pp_event : Format.formatter -> event -> unit

exception Corrupt_log of string

val to_bytes : t -> string
(** Serialize for shipment to the console host. *)

val of_bytes : string -> t
(** Import, re-verifying every seal.
    @raise Corrupt_log on tampering or truncation. *)
