(* perfbench: run one workload and print its metrics as the last line
   of standard output.

   main.exe --workload <apps|proxy_cold|farm_chaos|policy_bump>
            --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]

   A wrong output or a safety violation exits 1 without a result. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1> \
     [--trace-file <path>]";
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0.0 in
  let trace = ref 0 and trace_file = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--trace-file" :: v :: rest -> trace_file := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload Perfbench.Bench.workloads with
    | Some r -> r
    | None -> usage ()
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let spans = if !trace = 1 then Some (Perfbench.Spans.create ()) else None in
  match run ~seed:!seed ~seconds:!seconds ~spans with
  | exception Perfbench.Checks.Violation msg ->
    Printf.eprintf "perfbench: check failed: %s\n%!" msg;
    exit 1
  | o ->
    Option.iter
      (fun sp ->
        let path =
          if !trace_file <> "" then !trace_file
          else
            Printf.sprintf "_build/perfbench/%s-seed%d.spans.jsonl" !workload
              !seed
        in
        mkdir_p (Filename.dirname path);
        Perfbench.Spans.write sp path;
        Printf.eprintf "perfbench: spans written to %s\n%!" path)
      spans;
    let names =
      if !trace = 1 then Perfbench.Bench.per_layer else Perfbench.Bench.end_to_end
    in
    let metric (name, unit) =
      let v = Option.value ~default:0.0 (List.assoc_opt name o.metrics) in
      let v = if Float.is_finite v then v else 0.0 in
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
    in
    Printf.printf
      "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      o.attempted o.failed
      (String.concat ", " (List.map metric names))
