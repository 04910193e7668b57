(** Availability under injected faults (§5's replication argument,
    evaluated): application startup through a farm of 1..N proxies
    with link loss, latency jitter, and an optional shard-0 crash
    mid-startup. Every attempt is one {!Client.Session.fetch} against
    a {!Proxy.Farm}: the farm fails over along its hash ring and
    breakers, the session enforces the per-attempt deadline over the
    lossy client LAN, and this module only retries [Failed] attempts
    with bounded exponential backoff. Fully deterministic for a fixed
    scenario seed. *)

type scenario = {
  sc_seed : int;
  sc_crash_primary : (Simnet.Engine.time * Simnet.Engine.time) option;
      (** crash shard 0 at [fst] for [snd] µs, restarting cache-cold *)
}

val default_scenario : scenario
(** Seed 23, no crash. *)

val crash_scenario : scenario
(** [default_scenario] plus a shard-0 crash at t=400 ms lasting
    2.5 s with a cache-cold restart. *)

val parameters : string
(** The fixed knobs, for report headers: jlex (small build), 500 ms
    per-attempt deadline, 4 attempts, 100..800 ms backoff; the LAN
    adds up to 5 ms jitter and the origin is 40 ms away. *)

type point = {
  av_loss_pct : float;
  av_replicas : int;
  av_classes : int;
  av_startup_us : int64;  (** virtual time to fetch every class *)
  av_requests : int;  (** attempts issued *)
  av_retries : int;
  av_drops : int;  (** transfers lost on the client LAN *)
  av_failovers : int;
      (** requests served by a non-owner shard ([Farm.failovers]) *)
  av_degraded : int;  (** classes that exhausted the retry budget *)
  av_trace : string list;  (** the fault plan's injected-fault trace *)
}

val run :
  ?slo:Telemetry.Slo.t ->
  ?scenario:scenario ->
  loss_pct:float ->
  replicas:int ->
  unit ->
  point
(** [replicas] is the farm's shard count. [slo] is the session's SLO
    feed: one outcome per attempt (served bytes as fresh, a failed
    attempt as failed) on the run's virtual clock, so a sweep can be
    summarized by the SLO monitor. *)

val sweep :
  ?slo:Telemetry.Slo.t ->
  ?scenario:scenario ->
  loss_pcts:float list ->
  replica_counts:int list ->
  unit ->
  point list

val print_table : point list -> unit
