(* Malformed-classfile fuzzing: seeded byte-level corruptions of real
   encoded classes pushed through the production decoder, the static
   verifier and the full proxy pipeline. The contract under test is
   the paper's §3.1 error discipline — hostile input never escapes as
   an arbitrary exception; it either decodes and verifies (possibly
   [Rejected]), or surfaces as [Decode.Format_error], which the
   pipeline turns into a well-formed error-propagation replacement
   class. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile
module I = Bytecode.Instr

let check = Alcotest.check

(* --- Corpus: small but structurally rich classes (branches, a loop,
   an exception handler, string constants, calls) so mutations hit
   pool entries, code arrays, handler tables and attributes. --- *)

let static = [ CF.Public; CF.Static ]

let corpus =
  [
    B.class_ "fuzz/Branchy"
      [
        B.meth ~flags:static "f" "(I)I"
          [
            B.Iload 0;
            B.If_z (I.Ne, "else");
            B.Const 1;
            B.Goto "join";
            B.Label "else";
            B.Const 2;
            B.Label "join";
            B.Ireturn;
          ];
      ];
    B.class_ "fuzz/Loopy"
      [
        B.meth ~flags:static "sum" "(I)I"
          [
            B.Const 0;
            B.Istore 1;
            B.Const 0;
            B.Istore 2;
            B.Label "head";
            B.Iload 2;
            B.Iload 0;
            B.If_icmp (I.Ge, "exit");
            B.Iload 1;
            B.Iload 2;
            B.Add;
            B.Istore 1;
            B.Inc (2, 1);
            B.Goto "head";
            B.Label "exit";
            B.Iload 1;
            B.Ireturn;
          ];
        B.meth ~flags:static "main" "()V"
          [
            B.Const 4;
            B.Invokestatic ("fuzz/Loopy", "sum", "(I)I");
            B.Pop;
            B.Return;
          ];
      ];
    B.class_ "fuzz/Catchy"
      [
        B.meth ~flags:static
          ~handlers:[ ("t0", "t1", "h", Some "java/lang/Exception") ]
          "g" "()I"
          [
            B.Label "t0";
            B.Push_str "boom";
            B.Pop;
            B.Const 7;
            B.Label "t1";
            B.Ireturn;
            B.Label "h";
            B.Pop;
            B.Const 0;
            B.Ireturn;
          ];
      ];
  ]

let corpus_bytes =
  Array.of_list (List.map Bytecode.Encode.class_to_bytes corpus)

(* --- Mutation generator: a corpus pick plus a short program of byte
   edits (overwrite, truncate, insert, delete), applied in order. --- *)

type edit = Set of int * char | Trunc of int | Ins of int * char | Del of int

let apply_edit s = function
  | Set (p, c) ->
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      Bytes.set b (p mod Bytes.length b) c;
      Bytes.to_string b
    end
  | Trunc k -> String.sub s 0 (min k (String.length s))
  | Ins (p, c) ->
    let p = if String.length s = 0 then 0 else p mod (String.length s + 1) in
    String.sub s 0 p ^ String.make 1 c ^ String.sub s p (String.length s - p)
  | Del p ->
    if String.length s = 0 then s
    else
      let p = p mod String.length s in
      String.sub s 0 p ^ String.sub s (p + 1) (String.length s - p - 1)

let mutate bytes edits = List.fold_left apply_edit bytes edits

let gen_case =
  QCheck.Gen.(
    let edit =
      frequency
        [
          (6, map2 (fun p c -> Set (p, Char.chr c)) (int_bound 99_999) (int_bound 255));
          (1, map (fun k -> Trunc k) (int_bound 2_000));
          (2, map2 (fun p c -> Ins (p, Char.chr c)) (int_bound 99_999) (int_bound 255));
          (2, map (fun p -> Del p) (int_bound 99_999));
        ]
    in
    pair (int_bound (Array.length corpus_bytes - 1)) (list_size (int_range 1 8) edit))

let edit_to_string = function
  | Set (p, c) -> Printf.sprintf "set[%d]=0x%02x" p (Char.code c)
  | Trunc k -> Printf.sprintf "trunc[%d]" k
  | Ins (p, c) -> Printf.sprintf "ins[%d]=0x%02x" p (Char.code c)
  | Del p -> Printf.sprintf "del[%d]" p

let arbitrary_case =
  QCheck.make gen_case ~print:(fun (ci, edits) ->
      Printf.sprintf "corpus[%d] %s" ci
        (String.concat ";" (List.map edit_to_string edits)))

(* --- Property 1: decoder and verifier never leak an exception. A
   mutated image either fails to decode with [Format_error], or
   decodes to a class the static verifier judges without raising
   (either verdict is fine — the discipline is the error channel, not
   the answer). --- *)

let boot_oracle = Verifier.Oracle.of_classes (Jvm.Bootlib.boot_classes ())

let prop_decode_verify_total =
  QCheck.Test.make ~name:"decoder+verifier never leak an exception"
    ~count:1000 arbitrary_case (fun (ci, edits) ->
      let bytes = mutate corpus_bytes.(ci) edits in
      (* The attributes-only fast path obeys the same contract. *)
      (match Bytecode.Decode.class_attributes_of_bytes bytes with
      | _ -> ()
      | exception Bytecode.Decode.Format_error _ -> ());
      match Bytecode.Decode.class_of_bytes bytes with
      | exception Bytecode.Decode.Format_error _ -> true
      | cf -> (
        match Verifier.Static_verifier.verify ~oracle:boot_oracle cf with
        | Verifier.Static_verifier.Verified _
        | Verifier.Static_verifier.Rejected _ -> true))

(* --- Property 2: the pipeline converts every hostile input into a
   servable outcome — no exception, and the served bytes are
   themselves a well-formed class; on rejection, the §3.1 replacement
   (a class whose <clinit> throws) is what got served. --- *)

let filters () = [ Verifier.Static_verifier.filter ~oracle:boot_oracle () ]

let prop_pipeline_total =
  QCheck.Test.make ~name:"pipeline serves a clean §3.1 outcome on any input"
    ~count:400 arbitrary_case (fun (ci, edits) ->
      let bytes = mutate corpus_bytes.(ci) edits in
      let out = Proxy.Pipeline.run (filters ()) bytes in
      let served = Bytecode.Decode.class_of_bytes out.Proxy.Pipeline.out_bytes in
      match out.Proxy.Pipeline.rejected with
      | None -> true
      | Some (_filter, _reason) ->
        (* The replacement class raises at initialization: it must
           carry a <clinit> and decode under its §3.1 name. *)
        CF.find_method served "<clinit>" "()V" <> None)

(* --- Fixed regression cases the generator might visit rarely. --- *)

let test_empty_and_garbage () =
  List.iter
    (fun s ->
      (match Bytecode.Decode.class_of_bytes s with
      | _ -> Alcotest.fail "expected Format_error"
      | exception Bytecode.Decode.Format_error _ -> ());
      let out = Proxy.Pipeline.run (filters ()) s in
      check Alcotest.bool "rejected" true (out.Proxy.Pipeline.rejected <> None);
      let served = Bytecode.Decode.class_of_bytes out.Proxy.Pipeline.out_bytes in
      check Alcotest.string "§3.1 name" "malformed/Input" served.CF.name)
    [ ""; "\x00"; "garbage not a class"; String.make 4096 '\xff' ]

let test_truncation_sweep () =
  (* Every prefix of a real class either decodes (full length) or
     raises Format_error — never anything else. *)
  let bytes = corpus_bytes.(1) in
  for k = 0 to String.length bytes - 1 do
    match Bytecode.Decode.class_of_bytes (String.sub bytes 0 k) with
    | _ -> Alcotest.fail (Printf.sprintf "prefix %d decoded" k)
    | exception Bytecode.Decode.Format_error _ -> ()
  done;
  match Bytecode.Decode.class_of_bytes bytes with
  | cf -> check Alcotest.string "full image decodes" "fuzz/Loopy" cf.CF.name
  | exception Bytecode.Decode.Format_error e ->
    Alcotest.fail ("full image failed to decode: " ^ e)

(* --- Golden pin of the reject path: a fixed-seed corpus of mutated
   images through the verifier pipeline. Format_error text and verifier
   rejection text reach clients inside §3.1 replacement classes, so the
   digest over every served image and rejection reason pins both. --- *)

let reject_path_md5 = "befeecc992df2f8938723d5c057cd19e"

let test_reject_path_pin () =
  let rand = Random.State.make [| 20261017 |] in
  let cases = QCheck.Gen.generate ~rand ~n:300 gen_case in
  let buf = Buffer.create 65536 in
  let by_filter = Hashtbl.create 4 in
  List.iter
    (fun (ci, edits) ->
      let out = Proxy.Pipeline.run (filters ()) (mutate corpus_bytes.(ci) edits) in
      Buffer.add_string buf out.Proxy.Pipeline.out_bytes;
      match out.Proxy.Pipeline.rejected with
      | None -> Buffer.add_string buf "\n-\n"
      | Some (filter, reason) ->
        Hashtbl.replace by_filter filter
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_filter filter));
        Printf.bprintf buf "\n%s: %s\n" filter reason)
    cases;
  let rejections f = Option.value ~default:0 (Hashtbl.find_opt by_filter f) in
  check Alcotest.int "format errors" 262 (rejections "decode");
  check Alcotest.int "verifier rejections" 10 (rejections "verifier");
  check Alcotest.string "outcomes md5" reject_path_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "fuzz"
    [
      ( "bytes",
        [
          QCheck_alcotest.to_alcotest prop_decode_verify_total;
          QCheck_alcotest.to_alcotest prop_pipeline_total;
          Alcotest.test_case "empty and garbage inputs" `Quick
            test_empty_and_garbage;
          Alcotest.test_case "truncation sweep" `Quick test_truncation_sweep;
          Alcotest.test_case "reject path pin" `Quick test_reject_path_pin;
        ] );
    ]
