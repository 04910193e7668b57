(* The availability experiment the paper's §5 replication argument
   calls for but never runs: application startup through the proxy
   under injected faults — link loss and jitter on the client's LAN,
   and a shard-0 crash mid-startup — at 1 and 2 proxies.

   It runs on the same failover stack as the chaos harness: the N
   proxies are one [Proxy.Farm] (ring failover, per-shard breakers)
   and every attempt is one deadline-bound [Client.Session.fetch]
   whose replies cross the lossy client LAN. A single client fetches
   every class of the workload application sequentially; a [Failed]
   attempt (deadline expired, reply lost, every shard unavailable) is
   retried after a bounded exponential backoff, and a class that
   exhausts its attempts is given up on (the real client would load
   the §3.1 error-propagation replacement class in its place).
   Everything is driven by one seeded fault plan, so a run is a pure
   function of (seed, loss, proxies, scenario): byte-identical across
   repeats. *)

type scenario = {
  sc_seed : int;
  (* Crash shard 0 at [fst] for [snd] µs; None = no crash. *)
  sc_crash_primary : (Simnet.Engine.time * Simnet.Engine.time) option;
}

let default_scenario = { sc_seed = 23; sc_crash_primary = None }

let crash_scenario =
  {
    default_scenario with
    sc_crash_primary = Some (Simnet.Engine.ms 400, Simnet.Engine.ms 2500);
  }

let spec = Workloads.Apps.jlex
let attempt_timeout_us = 500_000
let max_attempts = 4
let base_backoff_us = 100_000
let max_backoff_us = 800_000
let jitter_max_us = 5_000
let wan_latency = Simnet.Engine.ms 40

let parameters =
  Printf.sprintf "Per-attempt timeout %d ms, %d attempts, backoff %d..%d ms"
    (attempt_timeout_us / 1000) max_attempts (base_backoff_us / 1000)
    (max_backoff_us / 1000)

type point = {
  av_loss_pct : float;
  av_replicas : int;
  av_classes : int;
  av_startup_us : int64; (* virtual time to fetch every class *)
  av_requests : int; (* attempts issued *)
  av_retries : int;
  av_drops : int; (* transfers lost on the client LAN *)
  av_failovers : int; (* requests served by a non-owner shard *)
  av_degraded : int; (* classes that exhausted the retry budget *)
  av_trace : string list; (* the fault plan's injected-fault trace *)
}

let backoff_us ~attempt =
  min (base_backoff_us * (1 lsl min 20 (attempt - 1))) max_backoff_us

let run ?slo ?(scenario = default_scenario) ~loss_pct ~replicas () =
  let app = Workloads.Apps.build_small spec in
  let engine = Simnet.Engine.create () in
  let plan = Simnet.Fault.create ~seed:scenario.sc_seed in
  let lan = Simnet.Link.ethernet_10mb engine in
  Simnet.Link.set_faults lan ~plan ~drop_prob:(loss_pct /. 100.0)
    ~jitter_max_us ();
  let oracle =
    Verifier.Oracle.of_classes
      (Jvm.Bootlib.boot_classes () @ app.Workloads.Appgen.classes)
  in
  let shards =
    Array.init replicas (fun _ ->
        let services = Experiment.standard_services ~oracle () in
        Proxy.create engine
          ~origin:(Workloads.Appgen.origin app)
          ~origin_latency:(fun _ -> wan_latency)
          ~filters:services.Experiment.filters ())
  in
  let farm = Proxy.Farm.create engine shards in
  (match scenario.sc_crash_primary with
  | None -> ()
  | Some (at, down_for) ->
    Simnet.Fault.schedule_host_faults plan shards.(0).Proxy.host
      ~on_restart:(fun () ->
        (* The restarted shard comes back cache-cold: the measurable
           price of failing back. *)
        Proxy.Cache.drop_fraction shards.(0).Proxy.cache ~fraction:1.0)
      ~schedule:[ (at, down_for) ]
      ());
  (* The response crosses the client's lossy LAN; a drop is
     discovered by the session's deadline. *)
  let session =
    Client.Session.create
      ~budget_us:(Int64.of_int attempt_timeout_us)
      ~deliver:(fun ~bytes k -> Simnet.Link.transfer lan ~bytes k)
      ?slo engine farm
  in
  let classes = List.map fst (Workloads.Appgen.class_bytes app) in
  let retries = ref 0 in
  let degraded = ref 0 in
  let finished_at = ref 0L in
  let rec fetch_next = function
    | [] -> finished_at := Simnet.Engine.now engine
    | cls :: rest ->
      let rec attempt n =
        Client.Session.fetch session ~cls (function
          | Client.Session.Fresh _ | Client.Session.Stale _ -> fetch_next rest
          | Client.Session.Failed when n >= max_attempts ->
            incr degraded;
            Telemetry.Global.incr "client.degraded";
            fetch_next rest
          | Client.Session.Failed ->
            incr retries;
            Telemetry.Global.incr "client.retries";
            let b = backoff_us ~attempt:n in
            Telemetry.Global.observe "client.retry_backoff_us"
              (Int64.of_int b);
            Simnet.Engine.schedule engine ~delay:(Int64.of_int b) (fun () ->
                attempt (n + 1)))
      in
      attempt 1
  in
  (* Kick off inside the event loop, not before it: spans opened during
     the first fetch must see the virtual clock (a pre-run dispatch
     would salt the latency histograms with wall-clock durations and
     break run-to-run reproducibility). *)
  Simnet.Engine.schedule_at engine 0L (fun () -> fetch_next classes);
  Simnet.Engine.run engine;
  {
    av_loss_pct = loss_pct;
    av_replicas = replicas;
    av_classes = List.length classes;
    av_startup_us = !finished_at;
    av_requests = session.Client.Session.fetches;
    av_retries = !retries;
    av_drops = lan.Simnet.Link.drops;
    av_failovers = farm.Proxy.Farm.failovers;
    av_degraded = !degraded;
    av_trace = Simnet.Fault.trace plan;
  }

let sweep ?slo ?scenario ~loss_pcts ~replica_counts () =
  List.concat_map
    (fun replicas ->
      List.map
        (fun loss_pct -> run ?slo ?scenario ~loss_pct ~replicas ())
        loss_pcts)
    replica_counts

(* Render a sweep as the bench/CLI table. *)
let print_table points =
  Printf.printf "%9s %9s %12s %9s %9s %9s %10s %9s\n" "Loss" "Shards"
    "Startup(s)" "Requests" "Retries" "Drops" "Failovers" "Degraded";
  List.iter
    (fun p ->
      Printf.printf "%8.1f%% %9d %12.2f %9d %9d %9d %10d %9d\n" p.av_loss_pct
        p.av_replicas
        (Int64.to_float p.av_startup_us /. 1e6)
        p.av_requests p.av_retries p.av_drops p.av_failovers p.av_degraded)
    points
