(* The four workloads. Each one is set up (timed, outside the measured
   region), then runs closed-loop operations for the requested time.

   Untraced mode reports the end-to-end metrics. Traced mode runs every
   operation twice on the same input, untraced and then traced: the
   untraced twin gives the host times and the virtual-clock figures, the
   traced twin gives spans and counts, and the pair gives the tracing
   overhead. *)

let now = Spans.now

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* Timings are means over a run's whole passes, not medians: the host
   drifts between speed states that last several seconds, and a mean
   over the run repeats across runs better than a median that lands in
   one state or the other. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("app_pass_s", "s");
    ("classes_per_s", "1/s");
    ("fetches_per_s", "1/s");
  ]

let layer_us =
  [
    "bytecode.decode";
    "verifier.verify";
    "security.rewrite";
    "monitor.audit";
    "verifier.reflect";
    "dsig.sign";
    "bytecode.encode";
  ]

let per_layer =
  List.map (fun l -> (l ^ "_us_p50", "us")) layer_us
  @ List.map (fun l -> (l ^ ".share", "share")) layer_us
  @ [
      ("proxy.node_self_us_p50", "us");
      ("proxy.node_self.share", "share");
      ("class_ms_p50", "ms");
      ("class_ms_p99", "ms");
      ("apps.fetch_share", "share");
      ("jvm.ns_per_bytecode", "ns");
      ("jvm.bytecodes_executed", "count");
      ("jvm.classes_loaded", "count");
      ("jvm.methods_invoked", "count");
      ("jvm.verifier.dynamic_checks", "count");
      ("security.enforcement_checks", "count");
      ("simnet.events_processed", "count");
      ("simnet.ns_per_event", "ns");
      ("simnet.drops", "count");
      ("simnet.crashes", "count");
      ("admission.shed_deadline", "count");
      ("breaker.trips", "count");
      ("farm.failovers", "count");
      ("farm.served_per_fetch", "ratio");
      ("client.hedges", "count");
      ("client.hedge_win_ratio", "ratio");
      ("sim_goodput_bps", "bps");
      ("sim_fetch_ms_p50", "ms");
      ("sim_fetch_ms_p99", "ms");
      ("control.heartbeats", "count");
      ("control.commits", "count");
      ("control.heartbeats_per_commit", "ratio");
      ("control.election_win", "count");
      ("control.redrive", "count");
      ("control.snapshot_compact", "count");
      ("control.snapshot_install", "count");
      ("cache.hit_ratio", "ratio");
      ("proxy.l2_hit_ratio", "ratio");
      ("cache.invalidations", "count");
      ("cache.stale_drops", "count");
      ("sim_commit_ms", "ms");
      ("error_rate", "share");
      ("trace.overhead_share", "share");
    ]

let check = function Ok () -> () | Error msg -> raise (Checks.Violation msg)

(* Run [op 0], [op 1], ... until [seconds] have passed and at least
   [min_ops] operations ran; returns the count. *)
let loop ~seconds ~min_ops op =
  let t0 = now () in
  let rec go i =
    if i >= min_ops && now () -. t0 >= seconds then i
    else begin
      op i;
      go (i + 1)
    end
  in
  go 0

(* Set up [reps] times from scratch; keep the last environment and
   report the median set-up time. *)
let timed_setup ~reps setup =
  let rec go k times env =
    if k = 0 then (Option.get env, Stats.median times)
    else
      let t0 = now () in
      let e = setup () in
      go (k - 1) ((now () -. t0) :: times) (Some e)
  in
  go reps [] None

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One operation and, in traced mode, its traced twin on the same input.
   The twins take turns going first so that neither always finds the
   host's caches warm. *)
let twins i spans untraced traced =
  match spans with
  | None -> (untraced (), None)
  | Some sp when i mod 2 = 0 ->
    let u = untraced () in
    let t = traced sp in
    (u, Some t)
  | Some sp ->
    let t = traced sp in
    let u = untraced () in
    (u, Some t)

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let overhead ~traced ~untraced = (Stats.sum traced /. Stats.sum untraced) -. 1.0

(* --- apps: the five paper applications under the DVM (Fig. 6) --- *)

module Apps = struct
  module A = Workloads.Appgen

  type env = { apps : A.app list; reference : (string * string) list }

  let name (a : A.app) = a.spec.A.name

  let setup () =
    let apps = List.map A.build Workloads.Apps.all_specs in
    let reference =
      List.map
        (fun a ->
          (name a, (Dvm.Experiment.run ~arch:Dvm.Experiment.Monolithic a).r_output))
        apps
    in
    { apps; reference }

  let run_app env a =
    let r = Dvm.Experiment.run ~arch:(Dvm.Experiment.Dvm { cached = false }) a in
    check
      (Checks.app_output ~app:(name a)
         ~reference:(List.assoc (name a) env.reference)
         ~output:r.r_output);
    r.r_output

  type counts = {
    mutable bytecodes : int;
    mutable classes : int;
    mutable methods : int;
    mutable dynamic_checks : int;
    mutable enforcement_checks : int;
  }

  (* The DVM run [Experiment.run] makes, assembled from the public
     parts so the benchmark can time the class provider the client is
     given. *)
  let run_app_traced spans counts (a : A.app) =
    let engine = Simnet.Engine.create () in
    let seen = Hashtbl.create 64 in
    let boot = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ()) in
    let oracle n =
      match boot n with Some i -> Some i | None -> Hashtbl.find_opt seen n
    in
    let services = Dvm.Experiment.standard_services ~oracle () in
    let record_seen =
      Rewrite.Filter.make ~name:"record-seen" (fun cf ->
          Hashtbl.replace seen cf.Bytecode.Classfile.name
            (Verifier.Oracle.info_of_classfile cf);
          cf)
    in
    let proxy =
      Proxy.create engine ~cache_capacity:0 ~origin:(A.origin a)
        ~origin_latency:(fun _ -> 0L)
        ~filters:(services.filters @ [ record_seen ])
        ()
    in
    let provider cls =
      Spans.with_span spans ~req:(name a) "proxy.request_sync" (fun () ->
          match Proxy.request_sync proxy ~cls with
          | Proxy.Bytes b ->
            counts.classes <- counts.classes + 1;
            Some b
          | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded -> None)
    in
    let console =
      Monitor.Console.create ~clock:(fun () -> Simnet.Engine.now engine) ()
    in
    let cclient =
      Monitor.Console.handshake console ~user:"egs" ~hardware:"x86-200MHz-64MB"
        ~native_format:"x86" ~vm_version:"dvm-1.0"
    in
    let client =
      Dvm.Client.create_dvm ~console ~session:cclient.Monitor.Console.session
        ~security_server:(Security.Server.create Dvm.Experiment.standard_policy)
        ~sid:"apps" ~provider ()
    in
    Monitor.Console.record_app_start console cclient ~app:a.entry;
    let outcome =
      Spans.with_span spans ~req:(name a) "jvm.run_main" (fun () ->
          Dvm.Client.run_main client a.entry)
    in
    let vm = client.Dvm.Client.vm in
    counts.bytecodes <- counts.bytecodes + vm.Jvm.Vmstate.instr_count;
    counts.methods <- counts.methods + vm.Jvm.Vmstate.invocations;
    Option.iter
      (fun s ->
        counts.dynamic_checks <-
          counts.dynamic_checks + s.Verifier.Rt_verifier.dynamic_checks)
      client.Dvm.Client.rt_verifier;
    Option.iter
      (fun e ->
        counts.enforcement_checks <-
          counts.enforcement_checks + e.Security.Enforcement.checks)
      client.Dvm.Client.enforcement;
    match outcome with
    | Ok () -> Jvm.Vmstate.output vm
    | Error e -> "uncaught: " ^ Jvm.Interp.describe_throwable e

  let run ~seed ~seconds ~spans =
    let traced = Option.is_some spans in
    let env, setup_s = timed_setup ~reps:(if traced then 1 else 3) setup in
    let classes_per_pass =
      List.fold_left (fun n a -> n + List.length a.A.classes) 0 env.apps
    in
    let rng = Random.State.make [| seed |] in
    let pass_times = ref [] and twin_times = ref [] in
    let counts =
      {
        bytecodes = 0;
        classes = 0;
        methods = 0;
        dynamic_checks = 0;
        enforcement_checks = 0;
      }
    in
    let pass i =
      let t = ref 0.0 and t_traced = ref 0.0 in
      let body () =
        List.iteri
          (fun j a ->
            let (out, dt), traced =
              twins (i + j) spans
                (fun () -> timed (fun () -> run_app env a))
                (fun sp -> timed (fun () -> run_app_traced sp counts a))
            in
            t := !t +. dt;
            Option.iter
              (fun (out', dt') ->
                t_traced := !t_traced +. dt';
                if not (String.equal out out') then
                  raise
                    (Checks.Violation
                       (name a ^ ": assembled DVM output differs from Experiment.run")))
              traced)
          (shuffle rng env.apps)
      in
      (match spans with
      | None -> body ()
      | Some sp ->
        Spans.with_span sp ~req:(Printf.sprintf "pass%d" i) "apps.pass" body);
      pass_times := !t :: !pass_times;
      twin_times := !t_traced :: !twin_times
    in
    let passes = loop ~seconds ~min_ops:1 pass in
    let total = Stats.sum !pass_times in
    let per_pass n = float_of_int n /. float_of_int passes in
    let metrics =
      match spans with
      | None ->
        [
          ("setup_s", setup_s);
          ("peak_heap_mb", peak_heap_mb ());
          ("app_pass_s", Stats.mean !pass_times);
          ("classes_per_s", float_of_int (classes_per_pass * passes) /. total);
          ("fetches_per_s", float_of_int (classes_per_pass * passes) /. total);
        ]
      | Some sp ->
        let all = Spans.spans sp in
        let fetch = Stats.sum (Spans.durations_by_name all "proxy.request_sync") in
        let interp = Stats.sum (Spans.self_by_name all "jvm.run_main") in
        let traced_passes = Stats.sum (Spans.durations_by_name all "apps.pass") in
        [
          ("apps.fetch_share", fetch /. traced_passes);
          ("jvm.ns_per_bytecode", interp *. 1e9 /. float_of_int counts.bytecodes);
          ("jvm.bytecodes_executed", per_pass counts.bytecodes);
          ("jvm.classes_loaded", per_pass counts.classes);
          ("jvm.methods_invoked", per_pass counts.methods);
          ("jvm.verifier.dynamic_checks", per_pass counts.dynamic_checks);
          ("security.enforcement_checks", per_pass counts.enforcement_checks);
          ("error_rate", 0.0);
          ("trace.overhead_share", overhead ~traced:!twin_times ~untraced:!pass_times);
        ]
    in
    { attempted = passes; failed = 0; metrics }
end

(* --- proxy_cold: one class request to an uncached proxy (Fig. 10) --- *)

module Proxy_cold = struct
  type env = {
    key : Dsig.Sign.key;
    proxy : Proxy.t;
    classes : Bytecode.Classfile.t list;  (** as the origin holds them *)
    origin_bytes : (string, string) Hashtbl.t;
    expected : (string, string) Hashtbl.t;
    layers : (string * Rewrite.Filter.t) list;  (** pipeline order *)
  }

  let layer_of_filter (f : Rewrite.Filter.t) =
    match f.name with
    | "verifier" -> "verifier.verify"
    | "security" -> "security.rewrite"
    | "auditor" -> "monitor.audit"
    | "reflect" -> "verifier.reflect"
    | other -> invalid_arg ("Proxy_cold: unexpected filter " ^ other)

  (* The pipeline's steps, called one by one in its order. *)
  let decompose ?spans ?(req = "") env bytes =
    let span name f =
      match spans with
      | None -> f ()
      | Some sp -> Spans.with_span sp ~req name f
    in
    let cf = span "bytecode.decode" (fun () -> Bytecode.Decode.class_of_bytes bytes) in
    let cf =
      List.fold_left
        (fun cf (layer, f) -> span layer (fun () -> Rewrite.Filter.apply f cf))
        cf env.layers
    in
    let cf = span "dsig.sign" (fun () -> Dsig.Sign.sign env.key cf) in
    span "bytecode.encode" (fun () -> Bytecode.Encode.class_to_bytes cf)

  let setup_for apps =
    let classes = List.concat_map (fun a -> a.Workloads.Appgen.classes) apps in
    let origin_bytes = Hashtbl.create 512 in
    List.iter
      (fun a ->
        List.iter
          (fun (n, b) -> Hashtbl.replace origin_bytes n b)
          (Workloads.Appgen.class_bytes a))
      apps;
    let oracle =
      Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes () @ classes)
    in
    let services = Dvm.Experiment.standard_services ~oracle () in
    let key = Dsig.Sign.make_key ~key_id:"perfbench" ~secret:"perfbench-proxy-key" in
    let proxy =
      Proxy.create (Simnet.Engine.create ()) ~cache_capacity:0 ~signer:key
        ~origin:(Hashtbl.find_opt origin_bytes)
        ~origin_latency:(fun _ -> 0L)
        ~filters:services.filters ()
    in
    let layers = List.map (fun f -> (layer_of_filter f, f)) services.filters in
    let env =
      { key; proxy; classes; origin_bytes; expected = Hashtbl.create 512; layers }
    in
    List.iter
      (fun (cf : Bytecode.Classfile.t) ->
        match decompose env (Hashtbl.find origin_bytes cf.name) with
        | out ->
          check
            (Checks.served_class ~key ~origin:cf ~expected:out (Proxy.Bytes out));
          Hashtbl.replace env.expected cf.name out
        | exception Rewrite.Filter.Rejected { filter; reason; _ } ->
          raise
            (Checks.Violation
               (Printf.sprintf "%s: rejected by %s: %s" cf.name filter reason)))
      classes;
    env

  let setup () =
    setup_for (List.map Workloads.Appgen.build Workloads.Apps.all_specs)

  let request env (cf : Bytecode.Classfile.t) =
    let t0 = now () in
    let reply = Proxy.request_sync env.proxy ~cls:cf.name in
    let dt = now () -. t0 in
    check
      (Checks.served_class ~key:env.key ~origin:cf
         ~expected:(Hashtbl.find env.expected cf.name)
         reply);
    dt

  let request_traced env sp (cf : Bytecode.Classfile.t) =
    let t0 = now () in
    let reply =
      Spans.with_span sp ~req:cf.name "proxy.request_sync" (fun () ->
          Proxy.request_sync env.proxy ~cls:cf.name)
    in
    let dt = now () -. t0 in
    let expected = Hashtbl.find env.expected cf.name in
    check (Checks.served_class ~key:env.key ~origin:cf ~expected reply);
    let out =
      Spans.with_span sp ~req:cf.name "proxy.decomposed" (fun () ->
          decompose ~spans:sp ~req:cf.name env
            (Hashtbl.find env.origin_bytes cf.name))
    in
    if not (String.equal out expected) then
      raise (Checks.Violation (cf.name ^ ": decomposition differs from served bytes"));
    dt

  let run ~seed ~seconds ~spans =
    let env, setup_s =
      timed_setup ~reps:(if Option.is_some spans then 1 else 3) setup
    in
    let rng = Random.State.make [| seed |] in
    let latencies = ref [] and twin = ref [] in
    let pass_times = ref [] in
    let order = ref [] and in_pass = ref 0.0 in
    let op i =
      (match !order with
      | [] ->
        order := shuffle rng env.classes;
        in_pass := 0.0
      | _ -> ());
      let cf = List.hd !order in
      order := List.tl !order;
      let dt, traced =
        twins i spans (fun () -> request env cf) (fun sp -> request_traced env sp cf)
      in
      latencies := dt :: !latencies;
      in_pass := !in_pass +. dt;
      if !order = [] then pass_times := !in_pass :: !pass_times;
      Option.iter (fun dt' -> twin := dt' :: !twin) traced
    in
    let n = List.length env.classes in
    let requests = loop ~seconds ~min_ops:(max 1000 n) op in
    let served = float_of_int requests /. Stats.sum !latencies in
    let metrics =
      match spans with
      | None ->
        [
          ("setup_s", setup_s);
          ("peak_heap_mb", peak_heap_mb ());
          ("app_pass_s", Stats.mean !pass_times);
          ("classes_per_s", served);
          ("fetches_per_s", served);
        ]
      | Some sp ->
        let all = Spans.spans sp in
        let req_total = Stats.sum (Spans.durations_by_name all "proxy.request_sync") in
        (* The decomposition follows its request, so each request's
           node self time is its duration minus the layer spans (the
           decomposition's children) that come after it. *)
        let last = ref 0.0 in
        let self =
          List.filter_map
            (fun ((s : Spans.span), own) ->
              if String.equal s.name "proxy.request_sync" then begin
                last := Spans.duration s;
                None
              end
              else if String.equal s.name "proxy.decomposed" then
                Some (!last -. (Spans.duration s -. own))
              else None)
            (Spans.self_times all)
        in
        let layers_total =
          Stats.sum
            (List.concat_map (fun l -> Spans.durations_by_name all l) layer_us)
        in
        List.concat_map
          (fun l ->
            let d = Spans.durations_by_name all l in
            [
              (l ^ "_us_p50", Stats.median d *. 1e6);
              (l ^ ".share", Stats.sum d /. req_total);
            ])
          layer_us
        @ [
            ("proxy.node_self_us_p50", Stats.median self *. 1e6);
            ("proxy.node_self.share", (req_total -. layers_total) /. req_total);
            ("class_ms_p50", Stats.quantile !latencies 0.5 *. 1e3);
            ("class_ms_p99", Stats.quantile !latencies 0.99 *. 1e3);
            ("error_rate", 0.0);
            ("trace.overhead_share", overhead ~traced:!twin ~untraced:!latencies);
          ]
    in
    { attempted = requests; failed = 0; metrics }
end

(* --- farm_chaos and policy_bump: seeded simulated-time runs --- *)

(* The simulation seeds every run covers. A pass runs each of them once,
   in an order the workload seed shuffles, so every run does the same
   work. 1000-1019 is the range the control scenario was sized on; it
   holds seeds whose runs fail, and they stay in. *)
let sim_pool = List.init 20 (fun i -> 1000 + i)

(* Set-up warms up on a seed outside the pool. *)
let warm_up_seed = 999

(* The virtual-clock figures are medians over the first [sim_ops]
   operations, which every run makes, so they repeat exactly for a
   seed however fast the host is. *)
let sim_ops = 8

let first n xs =
  List.filteri (fun i _ -> i < n) (List.rev xs) (* [xs] is newest first *)

let counter name = Int64.to_float (Telemetry.counter_value Telemetry.default name)

(* Run [f] with the program's own counters on, from zero. *)
let with_counters f =
  Telemetry.reset Telemetry.default;
  Telemetry.enable Telemetry.default;
  Fun.protect ~finally:(fun () -> Telemetry.disable Telemetry.default) f

type sim_op = {
  host_s : float;
  fetches : int;
  served : int;
  sim : float list;  (** this operation's virtual-clock figures *)
  digest : string;  (** engine trace digest of the chaotic run *)
}

(* The loop shared by both simulated workloads. [op seed] runs one
   verification untraced; [traced seed] runs it again under counters
   and returns the per-layer counts.

   A liveness failure is the program's verdict on a run that completed,
   not an operation the benchmark failed to make: each one goes to
   standard error with its seed and invariant, and the traced run's
   [error_rate] counts them. The result's [failed] stays for operations
   that did not complete, so two runs of the same code report the same
   [failed] however many operations fit in their time. *)
let sim_run ~seed ~seconds ~spans ~name ~op ~traced ~sim_names ~layer =
  let warm () =
    match op warm_up_seed with
    | _, Checks.Safety why ->
      raise (Checks.Violation (Printf.sprintf "%s: warm-up: %s" name why))
    | _, (Checks.Pass | Checks.Liveness _) -> ()
  in
  let (), setup_s =
    timed_setup ~reps:(if Option.is_some spans then 1 else 3) warm
  in
  let rng = Random.State.make [| seed |] in
  let order = ref [] and pass = ref [] and passes = ref [] in
  let ops = ref [] and liveness = ref 0 and twin = ref [] and counts = ref [] in
  let step i =
    if !order = [] then order := shuffle rng sim_pool;
    let s = List.hd !order in
    order := List.tl !order;
    let ((r, verdict), host_s), traced =
      twins i spans
        (fun () -> timed (fun () -> op s))
        (fun sp ->
          timed (fun () ->
              Spans.with_span sp ~req:(string_of_int s) ("dvm." ^ name) (fun () ->
                  traced s)))
    in
    let r = { r with host_s } in
    (match verdict with
    | Checks.Pass -> ()
    | Checks.Liveness why ->
      incr liveness;
      Printf.eprintf "%s: seed %d failed liveness: %s\n%!" name s why
    | Checks.Safety why ->
      raise (Checks.Violation (Printf.sprintf "%s: seed %d: %s" name s why)));
    ops := r :: !ops;
    pass := r :: !pass;
    if !order = [] then begin
      passes := !pass :: !passes;
      pass := []
    end;
    match traced with
    | None -> ()
    | Some ((digest, c), dt) ->
      twin := dt :: !twin;
      if not (String.equal digest r.digest) then
        raise
          (Checks.Violation
             (Printf.sprintf "%s: seed %d: counters changed the simulation" name s));
      counts := (r, c) :: !counts
  in
  (* Untraced runs need a whole pass; traced runs need the [sim_ops]
     operations the virtual-clock figures are taken over. *)
  let min_ops = if Option.is_some spans then sim_ops else List.length sim_pool in
  let n = loop ~seconds ~min_ops step in
  let host = List.map (fun r -> r.host_s) !ops in
  (* Throughput over whole passes only, so every run weighs the pool's
     seeds alike. *)
  let whole = List.concat !passes in
  let total = Stats.sum (List.map (fun r -> r.host_s) whole) in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 whole) in
  let metrics =
    match spans with
    | None ->
      [
        ("setup_s", setup_s);
        ("peak_heap_mb", peak_heap_mb ());
        ("app_pass_s",
          Stats.mean
            (List.map (fun p -> Stats.sum (List.map (fun r -> r.host_s) p)) !passes));
        ("classes_per_s", sum (fun r -> r.served) /. total);
        ("fetches_per_s", sum (fun r -> r.fetches) /. total);
      ]
    | Some _ ->
      let sims = List.map (fun r -> r.sim) (first sim_ops !ops) in
      List.mapi
        (fun i m ->
          let xs =
            List.filter
              (fun x -> not (Float.is_nan x))
              (List.map (fun l -> List.nth l i) sims)
          in
          (m, if xs = [] then 0.0 else Stats.median xs))
        sim_names
      @ layer !counts
      @ [
          ("error_rate", float_of_int !liveness /. float_of_int n);
          ("trace.overhead_share", overhead ~traced:!twin ~untraced:host);
        ]
  in
  { attempted = n; failed = 0; metrics }

(* Mean of [f] over the traced operations. *)
let per_op counts f = Stats.mean (List.map f counts)

let ns_per_event counts =
  per_op counts (fun (r, c) -> r.host_s *. 1e9 /. List.assoc "simnet.events_processed" c)

module Farm_chaos = struct
  let config s = { Dvm.Chaos.default_config with ch_seed = s }

  let op s =
    let v = Dvm.Chaos.verify (config s) in
    let both f = f v.v_reference + f v.v_chaotic in
    let c = v.v_chaotic in
    ( {
        host_s = 0.0;
        fetches = both (fun o -> o.Dvm.Chaos.co_fetches);
        served = both (fun o -> o.Dvm.Chaos.co_served);
        sim =
          [
            c.co_goodput_bps;
            Int64.to_float c.co_p50_us /. 1e3;
            Int64.to_float c.co_p99_us /. 1e3;
          ];
        digest = c.co_trace_digest;
      },
      Checks.chaos v )

  let traced s =
    with_counters (fun () ->
        let v = Dvm.Chaos.verify (config s) in
        let both f = f v.v_reference + f v.v_chaotic in
        ( v.v_chaotic.co_trace_digest,
          [
            ("simnet.events_processed", counter "simnet.events.processed");
            ("simnet.drops", counter "simnet.drops");
            ("simnet.crashes", counter "simnet.crashes");
            ("admission.shed_deadline", counter "admission.shed_deadline");
            ("breaker.trips", counter "breaker.trips");
            ("farm.failovers", counter "farm.failovers");
            ("client.hedges", counter "client.hedges");
            ("client.hedge_wins", counter "client.hedge_wins");
            ("fetches", float_of_int (both (fun o -> o.Dvm.Chaos.co_fetches)));
            ("served", float_of_int (both (fun o -> o.Dvm.Chaos.co_served)));
          ] ))

  let layer counts =
    let mean name = per_op counts (fun (_, c) -> List.assoc name c) in
    let total name = Stats.sum (List.map (fun (_, c) -> List.assoc name c) counts) in
    List.map
      (fun m -> (m, mean m))
      [
        "simnet.events_processed";
        "simnet.drops";
        "simnet.crashes";
        "admission.shed_deadline";
        "breaker.trips";
        "farm.failovers";
        "client.hedges";
      ]
    @ [
        ("simnet.ns_per_event", ns_per_event counts);
        ("client.hedge_win_ratio", Stats.ratio (total "client.hedge_wins") (total "client.hedges"));
        ("farm.served_per_fetch", Stats.ratio (total "served") (total "fetches"));
      ]

  let run ~seed ~seconds ~spans =
    sim_run ~seed ~seconds ~spans ~name:"farm_chaos" ~op ~traced
      ~sim_names:[ "sim_goodput_bps"; "sim_fetch_ms_p50"; "sim_fetch_ms_p99" ]
      ~layer
end

module Policy_bump = struct
  let config s = { Dvm.Chaos.default_control_config with cc_seed = s }

  (* Virtual time from the bump's proposal to its commit; runs that
     never commit are left out of the median (they count in [error_rate]). *)
  let commit_ms (cfg : Dvm.Chaos.control_config) (o : Dvm.Chaos.control_outcome) =
    if o.cn_commit_us = 0L then Float.nan
    else
      Int64.to_float (Int64.sub o.cn_commit_us (Int64.mul (Int64.of_int cfg.cc_bump_at_s) 1_000_000L))
      /. 1e3

  let op s =
    let cfg = config s in
    let w = Dvm.Chaos.verify_control cfg in
    let both f = f w.w_reference + f w.w_chaotic in
    ( {
        host_s = 0.0;
        fetches = both (fun o -> o.Dvm.Chaos.cn_fetches);
        served = both (fun o -> o.Dvm.Chaos.cn_served);
        sim = [ commit_ms cfg w.w_chaotic ];
        digest = w.w_chaotic.cn_trace_digest;
      },
      Checks.control w )

  let traced s =
    with_counters (fun () ->
        let w = Dvm.Chaos.verify_control (config s) in
        let both f = float_of_int (f w.w_reference + f w.w_chaotic) in
        ( w.w_chaotic.cn_trace_digest,
          [
            ("simnet.events_processed", counter "simnet.events.processed");
            ("control.heartbeats", both (fun o -> o.Dvm.Chaos.cn_heartbeats));
            ("control.commits", both (fun o -> o.Dvm.Chaos.cn_commits));
            ("control.election_win", both (fun o -> o.Dvm.Chaos.cn_elections));
            ("control.redrive", both (fun o -> o.Dvm.Chaos.cn_redrives));
            ("control.snapshot_compact", both (fun o -> o.Dvm.Chaos.cn_compactions));
            ("control.snapshot_install", both (fun o -> o.Dvm.Chaos.cn_snapshot_installs));
            ("cache.invalidations", both (fun o -> o.Dvm.Chaos.cn_invalidations));
            ("cache.stale_drops", both (fun o -> o.Dvm.Chaos.cn_stale_drops));
            ("cache.hits", counter "cache.hits");
            ("cache.misses", counter "cache.misses");
            ("proxy.l2_hits", counter "proxy.l2_hits");
          ] ))

  let layer counts =
    let mean name = per_op counts (fun (_, c) -> List.assoc name c) in
    let total name = Stats.sum (List.map (fun (_, c) -> List.assoc name c) counts) in
    List.map
      (fun m -> (m, mean m))
      [
        "control.heartbeats";
        "control.commits";
        "control.election_win";
        "control.redrive";
        "control.snapshot_compact";
        "control.snapshot_install";
        "cache.invalidations";
        "cache.stale_drops";
      ]
    @ [
        ("control.heartbeats_per_commit",
          Stats.ratio (total "control.heartbeats") (total "control.commits"));
        ("cache.hit_ratio",
          Stats.ratio (total "cache.hits") (total "cache.hits" +. total "cache.misses"));
        ("proxy.l2_hit_ratio", Stats.ratio (total "proxy.l2_hits") (total "cache.misses"));
        ("simnet.ns_per_event", ns_per_event counts);
      ]

  let run ~seed ~seconds ~spans =
    sim_run ~seed ~seconds ~spans ~name:"policy_bump" ~op ~traced
      ~sim_names:[ "sim_commit_ms" ] ~layer
end

let workloads =
  [
    ("apps", Apps.run);
    ("proxy_cold", Proxy_cold.run);
    ("farm_chaos", Farm_chaos.run);
    ("policy_bump", Policy_bump.run);
  ]
