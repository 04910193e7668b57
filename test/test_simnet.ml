(* Tests for the discrete-event engine, links and hosts. *)

let check = Alcotest.check

let test_event_order () =
  let e = Simnet.Engine.create () in
  let order = ref [] in
  let at t tag = Simnet.Engine.schedule_at e t (fun () -> order := tag :: !order) in
  at 30L "c";
  at 10L "a";
  at 20L "b";
  at 10L "a2" (* FIFO tie-break *);
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.string) "order" [ "a"; "a2"; "b"; "c" ]
    (List.rev !order)

let test_clock_advances () =
  let e = Simnet.Engine.create () in
  let seen = ref [] in
  Simnet.Engine.schedule e ~delay:(Simnet.Engine.ms 5) (fun () ->
      seen := Simnet.Engine.now e :: !seen;
      Simnet.Engine.schedule e ~delay:(Simnet.Engine.ms 7) (fun () ->
          seen := Simnet.Engine.now e :: !seen));
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.int64) "times" [ 5000L; 12000L ] (List.rev !seen)

let test_run_until () =
  let e = Simnet.Engine.create () in
  let fired = ref 0 in
  Simnet.Engine.schedule_at e 100L (fun () -> incr fired);
  Simnet.Engine.schedule_at e 200L (fun () -> incr fired);
  Simnet.Engine.run ~until:150L e;
  check Alcotest.int "only first" 1 !fired;
  check Alcotest.int64 "clock at horizon" 150L (Simnet.Engine.now e);
  Simnet.Engine.run e;
  check Alcotest.int "rest runs" 2 !fired

let test_trace_cap () =
  let e = Simnet.Engine.create () in
  Simnet.Engine.set_tracing e true;
  Simnet.Engine.set_trace_cap e (Some 3);
  for i = 1 to 5 do
    Simnet.Engine.record e (Printf.sprintf "r%d" i)
  done;
  check Alcotest.int "buffer capped" 3 (List.length (Simnet.Engine.trace e));
  check Alcotest.int "overflow counted" 2 (Simnet.Engine.trace_dropped e);
  check
    (Alcotest.list Alcotest.string)
    "oldest records kept" [ "r1"; "r2"; "r3" ]
    (List.map snd (Simnet.Engine.trace e));
  (* lifting the cap resumes recording; dropped stays as history *)
  Simnet.Engine.set_trace_cap e None;
  Simnet.Engine.record e "r6";
  check Alcotest.int "uncapped grows" 4 (List.length (Simnet.Engine.trace e));
  check Alcotest.int "dropped untouched" 2 (Simnet.Engine.trace_dropped e);
  (* re-enabling tracing clears both the buffer and the counter *)
  Simnet.Engine.set_tracing e true;
  check Alcotest.int "cleared" 0 (List.length (Simnet.Engine.trace e));
  check Alcotest.int "dropped reset" 0 (Simnet.Engine.trace_dropped e);
  check Alcotest.bool "negative cap rejected" true
    (try
       Simnet.Engine.set_trace_cap e (Some (-1));
       false
     with Invalid_argument _ -> true)

let test_past_events_clamped () =
  let e = Simnet.Engine.create () in
  let t = ref (-1L) in
  Simnet.Engine.schedule_at e 100L (fun () ->
      (* scheduling in the past runs "now" *)
      Simnet.Engine.schedule_at e 5L (fun () -> t := Simnet.Engine.now e));
  Simnet.Engine.run e;
  check Alcotest.int64 "clamped to now" 100L !t

let test_link_bandwidth_math () =
  (* 10 Mb/s: 1250 bytes take 1 ms on the wire. *)
  let e = Simnet.Engine.create () in
  let link = Simnet.Link.ethernet_10mb e in
  check Alcotest.int64 "tx time" 1000L (Simnet.Link.tx_time link ~bytes:1250);
  let done_at = ref 0L in
  Simnet.Link.transfer link ~bytes:1250 (fun () -> done_at := Simnet.Engine.now e);
  Simnet.Engine.run e;
  (* tx 1000 + latency 500 *)
  check Alcotest.int64 "arrival" 1500L !done_at

let test_link_serializes () =
  let e = Simnet.Engine.create () in
  let link = Simnet.Link.ethernet_10mb e in
  let arrivals = ref [] in
  Simnet.Link.transfer link ~bytes:1250 (fun () ->
      arrivals := Simnet.Engine.now e :: !arrivals);
  Simnet.Link.transfer link ~bytes:1250 (fun () ->
      arrivals := Simnet.Engine.now e :: !arrivals);
  Simnet.Engine.run e;
  (* Second transmission queues behind the first: 2000 + 500. *)
  check (Alcotest.list Alcotest.int64) "arrivals" [ 1500L; 2500L ]
    (List.rev !arrivals)

let test_closed_form_matches () =
  check Alcotest.int "closed form" 1500
    (Simnet.Link.transfer_time_us ~bandwidth_bps:10_000_000 ~latency_us:500
       ~bytes:1250)

let test_host_compute_serializes () =
  let e = Simnet.Engine.create () in
  let h = Simnet.Host.create e ~name:"h" in
  let arrivals = ref [] in
  Simnet.Host.compute h ~cost_us:100L (fun () ->
      arrivals := Simnet.Engine.now e :: !arrivals);
  Simnet.Host.compute h ~cost_us:50L (fun () ->
      arrivals := Simnet.Engine.now e :: !arrivals);
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.int64) "fifo cpu" [ 100L; 150L ]
    (List.rev !arrivals)

let test_host_cpu_factor () =
  let e = Simnet.Engine.create () in
  let fast = Simnet.Host.create ~cpu_factor:2.0 e ~name:"fast" in
  check Alcotest.int64 "half cost" 50L
    (Simnet.Host.effective_cost fast ~cost_us:100L)

let test_memory_pressure_slows () =
  let e = Simnet.Engine.create () in
  let h = Simnet.Host.create ~mem_capacity:1000 ~thrash_factor:10.0 e ~name:"h" in
  let base = Simnet.Host.effective_cost h ~cost_us:100L in
  Simnet.Host.allocate h 2000;
  (* 2x over-committed *)
  let slowed = Simnet.Host.effective_cost h ~cost_us:100L in
  check Alcotest.bool "slower under pressure" true (slowed > base);
  Simnet.Host.release h 2000;
  check Alcotest.int64 "recovers" base (Simnet.Host.effective_cost h ~cost_us:100L)

(* Flat schedules, many equal and past times: the firing order is
   exactly List.stable_sort by time clamped to the clock. *)
let prop_heap_orders_events =
  QCheck.Test.make ~name:"events fire in time order" ~count:300
    QCheck.(list (int_range (-10) 40))
    (fun times ->
      let e = Simnet.Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i t ->
          Simnet.Engine.schedule_at e (Int64.of_int t) (fun () ->
              fired := (i, Simnet.Engine.now e) :: !fired))
        times;
      Simnet.Engine.run e;
      let expect =
        List.stable_sort
          (fun (_, a) (_, b) -> compare a b)
          (List.mapi (fun i t -> (i, Int64.of_int (max 0 t))) times)
      in
      List.rev !fired = expect)

(* A schedule: events at absolute times (negative = in the past), each
   of whose handlers schedules children at relative delays (negative =
   in the past again) when it fires, two levels deep. Every event has
   its own [id], so the two sides compare which event fired when. *)
type ev = { id : int; time : int; kids : ev list }

let gen_schedule =
  QCheck.Gen.(
    let node kids time = { id = 0; time; kids } in
    let time = int_range (-20) 60 in
    let leaf = map (node []) time in
    let mid = map2 node (list_size (int_bound 3) leaf) time in
    let number evs =
      let next = ref 0 in
      let rec go e =
        incr next;
        let id = !next in
        { e with id; kids = List.map go e.kids }
      in
      List.map go evs
    in
    pair
      (map number (list_size (int_bound 25) (map2 node (list_size (int_bound 3) mid) time)))
      (opt (int_range (-5) 80)))

let print_schedule (evs, until) =
  let rec pp e =
    Printf.sprintf "#%d@%d[%s]" e.id e.time (String.concat "," (List.map pp e.kids))
  in
  Printf.sprintf "until=%s events=%s"
    (match until with Some u -> string_of_int u | None -> "-")
    (String.concat " " (List.map pp evs))

(* The engine's contract as a naive model: pending events in a list,
   each at its time clamped to the clock when scheduled, numbered in
   scheduling order; the next to fire is the least (time, number) —
   what a stable sort by clamped time gives. Returns the fired
   (id, time) pairs and the clock at the end. *)
let model ?until evs =
  let now = ref 0 and seq = ref 0 and pending = ref [] and fired = ref [] in
  let add at e =
    pending := (max at !now, !seq, e) :: !pending;
    incr seq
  in
  List.iter (fun e -> add e.time e) evs;
  let rec loop () =
    match List.sort (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j)) !pending with
    | [] -> ()
    | (at, _, _) :: _ when (match until with Some u -> at > u | None -> false) ->
      now := Option.get until
    | (at, _, e) :: rest ->
      pending := rest;
      now := at;
      fired := (e.id, at) :: !fired;
      List.iter (fun k -> add (at + k.time) k) e.kids;
      loop ()
  in
  loop ();
  (List.rev !fired, !now)

let engine_run ?until evs =
  let e = Simnet.Engine.create () in
  let fired = ref [] in
  let rec handler ev () =
    fired := (ev.id, Int64.to_int (Simnet.Engine.now e)) :: !fired;
    List.iter
      (fun k -> Simnet.Engine.schedule e ~delay:(Int64.of_int k.time) (handler k))
      ev.kids
  in
  List.iter (fun ev -> Simnet.Engine.schedule_at e (Int64.of_int ev.time) (handler ev)) evs;
  Simnet.Engine.run ?until:(Option.map Int64.of_int until) e;
  let first = (List.rev !fired, Int64.to_int (Simnet.Engine.now e)) in
  (* a later unbounded run drains what the horizon left queued *)
  Simnet.Engine.run e;
  (first, List.rev !fired, e)

(* Bounded by the optional horizon first (fired prefix and clock),
   then drained by an unbounded run. *)
let prop_engine_matches_model =
  QCheck.Test.make ~count:300
    ~name:"firing order = stable sort by (clamped time, insertion seq)"
    (QCheck.make gen_schedule ~print:print_schedule)
    (fun (evs, until) ->
      let (bounded, now), all, e = engine_run ?until evs in
      let m_bounded, m_now = model ?until evs in
      let m_all, _ = model evs in
      bounded = m_bounded && now = m_now && all = m_all
      && Simnet.Engine.events_processed e = List.length m_all)

(* The queue orders events on native ints: a time an int cannot hold
   is refused at scheduling, not misordered. *)
let test_time_outside_int_range () =
  let e = Simnet.Engine.create () in
  let big = Int64.succ (Int64.of_int max_int) in
  Alcotest.check_raises "past max_int"
    (Invalid_argument "Engine.schedule_at: time outside the int range")
    (fun () -> Simnet.Engine.schedule_at e big ignore);
  Alcotest.check_raises "max_int64"
    (Invalid_argument "Engine.schedule_at: time outside the int range")
    (fun () -> Simnet.Engine.schedule_at e Int64.max_int ignore);
  (* the largest int time is accepted and still fires last *)
  let order = ref [] in
  Simnet.Engine.schedule_at e (Int64.of_int max_int) (fun () -> order := "max" :: !order);
  Simnet.Engine.schedule_at e 5L (fun () -> order := "five" :: !order);
  Simnet.Engine.run e;
  check (Alcotest.list Alcotest.string) "order" [ "five"; "max" ] (List.rev !order);
  check Alcotest.int64 "clock" (Int64.of_int max_int) (Simnet.Engine.now e);
  (* an int64 horizon beyond every int time stops nothing *)
  let e = Simnet.Engine.create () in
  let fired = ref 0 in
  Simnet.Engine.schedule_at e 7L (fun () -> incr fired);
  Simnet.Engine.run ~until:Int64.max_int e;
  check Alcotest.int "fired under a huge horizon" 1 !fired

let () =
  Alcotest.run "simnet"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "past events clamped" `Quick
            test_past_events_clamped;
          Alcotest.test_case "trace cap and dropped counter" `Quick
            test_trace_cap;
          QCheck_alcotest.to_alcotest prop_heap_orders_events;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
          Alcotest.test_case "time outside the int range" `Quick
            test_time_outside_int_range;
        ] );
      ( "link",
        [
          Alcotest.test_case "bandwidth math" `Quick test_link_bandwidth_math;
          Alcotest.test_case "serializes" `Quick test_link_serializes;
          Alcotest.test_case "closed form" `Quick test_closed_form_matches;
        ] );
      ( "host",
        [
          Alcotest.test_case "cpu serializes" `Quick
            test_host_compute_serializes;
          Alcotest.test_case "cpu factor" `Quick test_host_cpu_factor;
          Alcotest.test_case "memory pressure" `Quick
            test_memory_pressure_slows;
        ] );
    ]
