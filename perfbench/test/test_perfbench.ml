(* The benchmark's own checks must catch wrong outputs, and its
   virtual-clock figures must repeat for a seed. *)

open Perfbench

let small_proxy () =
  Bench.Proxy_cold.setup_for
    [ Workloads.Apps.build_small Workloads.Apps.jlex ]

let served env (cf : Bytecode.Classfile.t) =
  match Proxy.request_sync env.Bench.Proxy_cold.proxy ~cls:cf.name with
  | Proxy.Bytes b -> b
  | _ -> Alcotest.fail "no bytes served"

let check_reply env cf reply =
  Checks.served_class ~key:env.Bench.Proxy_cold.key ~origin:cf
    ~expected:(Hashtbl.find env.expected cf.name)
    reply

let is_error = function Ok () -> false | Error _ -> true

let test_served_class_passes () =
  let env = small_proxy () in
  List.iter
    (fun cf ->
      Alcotest.(check bool)
        cf.Bytecode.Classfile.name false
        (is_error (check_reply env cf (Proxy.Bytes (served env cf)))))
    env.classes

let test_flipped_byte () =
  let env = small_proxy () in
  let cf = List.hd env.classes in
  let b = Bytes.of_string (served env cf) in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Alcotest.(check bool)
    "flipped byte caught" true
    (is_error (check_reply env cf (Proxy.Bytes (Bytes.to_string b))))

let test_stripped_signature () =
  let env = small_proxy () in
  let cf = List.hd env.classes in
  let stripped =
    Bytecode.Encode.class_to_bytes
      (Dsig.Sign.strip_signature
         (Bytecode.Decode.class_of_bytes (served env cf)))
  in
  Alcotest.(check bool)
    "stripped signature caught" true
    (is_error (check_reply env cf (Proxy.Bytes stripped)))

let test_replacement_class () =
  let env = small_proxy () in
  let cf = List.hd env.classes in
  let repl =
    Dsig.Sign.sign env.key
      (Verifier.Error_class.build ~name:cf.name ~message:"rejected")
  in
  Alcotest.(check bool)
    "replacement class caught" true
    (is_error
       (check_reply env cf (Proxy.Bytes (Bytecode.Encode.class_to_bytes repl))))

let test_not_bytes () =
  let env = small_proxy () in
  Alcotest.(check bool)
    "Unavailable caught" true
    (is_error (check_reply env (List.hd env.classes) Proxy.Unavailable))

let test_wrong_reference_output () =
  let app = Workloads.Apps.build_small Workloads.Apps.jlex in
  let name = app.Workloads.Appgen.spec.Workloads.Appgen.name in
  let env = { Bench.Apps.apps = [ app ]; reference = [ (name, "wrong\n") ] } in
  Alcotest.check_raises "wrong reference output caught"
    (Checks.Violation (name ^ ": DVM output differs from its Monolithic output"))
    (fun () -> ignore (Bench.Apps.run_app env app))

let test_safety_verdicts () =
  let v = Dvm.Chaos.verify { Dvm.Chaos.default_config with ch_seed = 5 } in
  Alcotest.(check bool) "chaos seed passes" true (Checks.chaos v = Checks.Pass);
  Alcotest.(check bool)
    "digest mismatch is a safety violation" true
    (Checks.chaos { v with v_digests_ok = false } = Checks.Safety "digest mismatch");
  Alcotest.(check bool)
    "late serves are a safety violation" true
    (Checks.chaos { v with v_no_late_serves = false } = Checks.Safety "late serves");
  let cfg = { Dvm.Chaos.default_control_config with cc_seed = 1000 } in
  let w = Dvm.Chaos.verify_control cfg in
  Alcotest.(check bool) "control seed passes" true (Checks.control w = Checks.Pass);
  Alcotest.(check bool)
    "revoked serves are a safety violation" true
    (Checks.control { w with w_no_revoked_serves = false }
    = Checks.Safety "revoked serves");
  let two_leaders =
    { w with
      w_single_leader = false;
      w_chaotic = { w.w_chaotic with cn_max_leased = 2 } }
  in
  Alcotest.(check bool)
    "two leased leaders are a safety violation" true
    (Checks.control two_leaders = Checks.Safety "two leased leaders")

(* Seed 1006 of the default control scenario ends unconverged: a known
   liveness defect the benchmark reports and counts in [error_rate]. *)
let test_known_liveness_failure () =
  let w =
    Dvm.Chaos.verify_control
      { Dvm.Chaos.default_control_config with cc_seed = 1006 }
  in
  match Checks.control w with
  | Checks.Liveness _ -> ()
  | Checks.Pass -> Alcotest.fail "seed 1006 now passes: update the doc and CHANGES"
  | Checks.Safety why -> Alcotest.fail ("safety violation: " ^ why)

let sim_metrics (o : Bench.outcome) =
  List.filter
    (fun (name, _) -> String.length name > 4 && String.sub name 0 4 = "sim_")
    o.metrics

let traced_run run = run ~seed:3 ~seconds:0.0 ~spans:(Some (Spans.create ()))

let test_deterministic run () =
  let a = sim_metrics (traced_run run) and b = sim_metrics (traced_run run) in
  Alcotest.(check bool) "sim metrics reported" true (a <> []);
  Alcotest.(check (list (pair string (float 0.0)))) "same sim metrics" a b

(* Every metric the benchmark prints is declared, with its unit, in
   BENCHMARK.json, and nothing else is. *)
let test_declared_metrics () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let declared (name, unit) =
    let entry = Printf.sprintf "\"name\": %S,\n      \"unit\": %S" name unit in
    let n = String.length entry in
    let rec find i =
      i + n <= String.length text && (String.sub text i n = entry || find (i + 1))
    in
    find 0
  in
  let printed = Bench.end_to_end @ Bench.per_layer in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check bool) (name ^ " declared") true (declared (name, unit)))
    printed;
  let count_names =
    let rec go i acc =
      match String.index_from_opt text i '"' with
      | None -> acc
      | Some j ->
        if j + 7 <= String.length text && String.sub text j 7 = "\"name\":" then
          go (j + 7) (acc + 1)
        else go (j + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "declared metrics and workloads"
    (List.length printed + List.length Bench.workloads)
    count_names

let () =
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "served classes pass" `Quick test_served_class_passes;
          Alcotest.test_case "flipped byte" `Quick test_flipped_byte;
          Alcotest.test_case "stripped signature" `Quick test_stripped_signature;
          Alcotest.test_case "replacement class" `Quick test_replacement_class;
          Alcotest.test_case "reply not bytes" `Quick test_not_bytes;
          Alcotest.test_case "wrong reference output" `Quick test_wrong_reference_output;
          Alcotest.test_case "safety verdicts" `Quick test_safety_verdicts;
          Alcotest.test_case "known liveness failure" `Quick test_known_liveness_failure;
        ] );
      ( "declared",
          [ Alcotest.test_case "metrics match BENCHMARK.json" `Quick test_declared_metrics ] );
      ( "determinism",
        [
          Alcotest.test_case "farm_chaos sim metrics" `Quick
            (test_deterministic Bench.Farm_chaos.run);
          Alcotest.test_case "policy_bump sim metrics" `Quick
            (test_deterministic Bench.Policy_bump.run);
        ] );
    ]
