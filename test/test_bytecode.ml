(* Unit and property tests for the bytecode library: descriptors,
   constant pool, instructions, assembler, encoder/decoder. *)

module D = Bytecode.Descriptor
module CP = Bytecode.Cp
module I = Bytecode.Instr
module CF = Bytecode.Classfile
module B = Bytecode.Builder
module Enc = Bytecode.Encode
module Dec = Bytecode.Decode

let check = Alcotest.check
let fail = Alcotest.fail

(* --- Descriptors. --- *)

let test_descriptor_roundtrip () =
  let cases =
    [ "I"; "Ljava/lang/String;"; "[I"; "[[I"; "[Ljava/lang/Object;" ]
  in
  List.iter
    (fun s -> check Alcotest.string "field" s (D.ty_to_string (D.ty_of_string s)))
    cases;
  let mcases =
    [ "()V"; "(I)I"; "(ILjava/lang/String;[I)Ljava/lang/Object;"; "([[I)V" ]
  in
  List.iter
    (fun s ->
      check Alcotest.string "method" s
        (D.method_sig_to_string (D.method_sig_of_string s)))
    mcases

let test_descriptor_errors () =
  let bad_fields = [ ""; "X"; "L;"; "Lfoo"; "II"; "["; "(I)V" ] in
  List.iter
    (fun s ->
      match D.ty_of_string s with
      | _ -> fail (Printf.sprintf "accepted bad field descriptor %S" s)
      | exception D.Bad_descriptor _ -> ())
    bad_fields;
  let bad_methods = [ ""; "()"; "(I"; "()VV"; "(V)V"; "I" ] in
  List.iter
    (fun s ->
      match D.method_sig_of_string s with
      | _ -> fail (Printf.sprintf "accepted bad method descriptor %S" s)
      | exception D.Bad_descriptor _ -> ())
    bad_methods

let test_descriptor_slots () =
  check Alcotest.int "0 params" 0 (D.param_slots (D.method_sig_of_string "()V"));
  check Alcotest.int "3 params" 3
    (D.param_slots (D.method_sig_of_string "(I[ILjava/lang/String;)I"))

(* --- Constant pool. --- *)

let test_cp_interning () =
  let b = CP.Builder.create () in
  let i1 = CP.Builder.utf8 b "hello" in
  let i2 = CP.Builder.utf8 b "hello" in
  check Alcotest.int "utf8 interned" i1 i2;
  let f1 = CP.Builder.fieldref b ~cls:"A" ~name:"x" ~desc:"I" in
  let f2 = CP.Builder.fieldref b ~cls:"A" ~name:"x" ~desc:"I" in
  check Alcotest.int "fieldref interned" f1 f2;
  let pool = CP.Builder.to_pool b in
  let r = CP.get_fieldref pool f1 in
  check Alcotest.string "class" "A" r.CP.ref_class;
  check Alcotest.string "name" "x" r.CP.ref_name;
  check Alcotest.string "desc" "I" r.CP.ref_desc

let test_cp_of_pool_preserves_indices () =
  let b = CP.Builder.create () in
  let m = CP.Builder.methodref b ~cls:"A" ~name:"f" ~desc:"()V" in
  let pool = CP.Builder.to_pool b in
  let b2 = CP.Builder.of_pool pool in
  let m2 = CP.Builder.methodref b2 ~cls:"A" ~name:"f" ~desc:"()V" in
  check Alcotest.int "existing entry reused" m m2;
  let extra = CP.Builder.utf8 b2 "new" in
  check Alcotest.bool "new entry appended" true (extra >= CP.size pool)

let test_cp_errors () =
  let b = CP.Builder.create () in
  let u = CP.Builder.utf8 b "s" in
  let pool = CP.Builder.to_pool b in
  (match CP.entry pool 0 with
  | _ -> fail "index 0 should be invalid"
  | exception CP.Invalid_index 0 -> ());
  (match CP.get_class_name pool u with
  | _ -> fail "utf8 is not a class"
  | exception CP.Wrong_kind _ -> ());
  match CP.entry pool 999 with
  | _ -> fail "out of range"
  | exception CP.Invalid_index _ -> ()

(* --- Instructions. --- *)

let test_instr_targets () =
  check (Alcotest.list Alcotest.int) "goto" [ 7 ] (I.targets (I.Goto 7));
  check (Alcotest.list Alcotest.int) "switch" [ 1; 2; 3 ]
    (I.targets (I.Tableswitch { low = 0l; targets = [| 2; 3 |]; default = 1 }));
  check (Alcotest.list Alcotest.int) "iadd none" [] (I.targets I.Iadd);
  let mapped = I.map_targets (fun t -> t + 10) (I.If_icmp (I.Lt, 5)) in
  check (Alcotest.list Alcotest.int) "mapped" [ 15 ] (I.targets mapped)

let test_instr_successors () =
  check (Alcotest.list Alcotest.int) "fallthrough" [ 4 ]
    (I.successors 3 I.Iadd);
  check (Alcotest.list Alcotest.int) "branch+fall" [ 9; 4 ]
    (I.successors 3 (I.If_z (I.Eq, 9)));
  check (Alcotest.list Alcotest.int) "return" [] (I.successors 3 I.Return)

(* --- Builder. --- *)

let test_builder_labels () =
  let pool = CP.Builder.create () in
  let code =
    B.assemble pool
      [
        B.Const 10;
        B.Label "loop";
        B.Const 1;
        B.Sub;
        B.Dup;
        B.If_z (I.Gt, "loop");
        B.Return;
      ]
  in
  check Alcotest.int "length" 6 (Array.length code);
  match code.(4) with
  | I.If_z (I.Gt, 1) -> ()
  | i -> fail ("bad branch: " ^ I.to_string i)

let test_builder_duplicate_label () =
  let pool = CP.Builder.create () in
  match B.assemble pool [ B.Label "a"; B.Pop; B.Label "a"; B.Return ] with
  | _ -> fail "duplicate label accepted"
  | exception B.Duplicate_label "a" -> ()

let test_builder_unbound_label () =
  let pool = CP.Builder.create () in
  match B.assemble pool [ B.Goto "nowhere"; B.Return ] with
  | _ -> fail "unbound label accepted"
  | exception B.Unbound_label "nowhere" -> ()

let test_builder_max_locals () =
  let cls =
    B.class_ "T"
      [ B.meth ~flags:[ CF.Public; CF.Static ] "f" "(II)I"
          [ B.Iload 0; B.Iload 1; B.Add; B.Istore 5; B.Iload 5; B.Ireturn ] ]
  in
  match CF.find_method cls "f" "(II)I" with
  | Some { CF.m_code = Some c; _ } ->
    check Alcotest.bool "max_locals >= 6" true (c.CF.max_locals >= 6);
    check Alcotest.bool "max_stack >= 2" true (c.CF.max_stack >= 2)
  | _ -> fail "method not found"

(* --- Encode / decode. --- *)

let sample_class () =
  B.class_ "com/example/Sample" ~super:"java/lang/Object"
    ~interfaces:[ "com/example/Iface" ]
    ~fields:
      [
        B.field "x" "I";
        B.field ~flags:[ CF.Public; CF.Static ] "shared" "Ljava/lang/String;";
      ]
    ~attributes:[ ("com.example.note", "\x00\x01binary\xffdata") ]
    [
      B.default_init "java/lang/Object";
      B.meth ~flags:[ CF.Public; CF.Static ] "main" "()V"
        ~handlers:[ ("try", "end", "catch", Some "java/lang/Exception") ]
        [
          B.Label "try";
          B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
          B.Push_str "hi";
          B.Invokevirtual
            ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
          B.Label "end";
          B.Return;
          B.Label "catch";
          B.Pop;
          B.Return;
        ];
      B.meth "loop" "(I)I"
        [
          B.Const 0;
          B.Istore 2;
          B.Label "top";
          B.Iload 1;
          B.If_z (I.Le, "done");
          B.Iload 2;
          B.Iload 1;
          B.Add;
          B.Istore 2;
          B.Inc (1, -1);
          B.Goto "top";
          B.Label "done";
          B.Iload 2;
          B.Ireturn;
        ];
    ]

let test_roundtrip_sample () =
  let cls = sample_class () in
  let bytes = Enc.class_to_bytes cls in
  let cls' = Dec.class_of_bytes bytes in
  check Alcotest.bool "roundtrip equal" true (cls = cls')

let test_roundtrip_invokeinterface () =
  let cls =
    B.class_ "IfaceUser"
      [
        B.meth ~flags:[ CF.Public; CF.Static ] "f" "(Ljava/lang/Object;)I"
          [
            B.Aload 0;
            B.Invokeinterface ("some/Iface", "m", "()I");
            B.Ireturn;
          ];
      ]
  in
  let cls' = Dec.class_of_bytes (Enc.class_to_bytes cls) in
  check Alcotest.bool "invokeinterface roundtrip" true (cls = cls')

let test_attributes_fast_path () =
  let cls = sample_class () in
  let bytes = Enc.class_to_bytes cls in
  check Alcotest.bool "fast path = full decode attributes" true
    (Dec.class_attributes_of_bytes bytes
    = (Dec.class_of_bytes bytes).CF.attributes);
  match Dec.class_attributes_of_bytes "garbage" with
  | _ -> fail "garbage accepted"
  | exception Dec.Format_error _ -> ()

let test_roundtrip_switch_and_jsr () =
  let cls =
    B.class_ "S"
      [
        B.meth ~flags:[ CF.Public; CF.Static ] "f" "(I)I"
          [
            B.Iload 0;
            B.Switch (0, [ "a"; "b" ], "dflt");
            B.Label "a";
            B.Const 100;
            B.Ireturn;
            B.Label "b";
            B.Jsr "sub";
            B.Const 200;
            B.Ireturn;
            B.Label "dflt";
            B.Const (-1);
            B.Ireturn;
            B.Label "sub";
            B.Astore 3;
            B.Ret 3;
          ];
      ]
  in
  let cls' = Dec.class_of_bytes (Enc.class_to_bytes cls) in
  check Alcotest.bool "switch/jsr roundtrip" true (cls = cls')

let test_decode_bad_magic () =
  match Dec.class_of_bytes "NOTACLASSFILE---" with
  | _ -> fail "bad magic accepted"
  | exception Dec.Format_error _ -> ()

let test_decode_truncated () =
  let bytes = Enc.class_to_bytes (sample_class ()) in
  for cut = 1 to 20 do
    let len = String.length bytes * cut / 21 in
    match Dec.class_of_bytes (String.sub bytes 0 len) with
    | _ -> fail (Printf.sprintf "truncation at %d accepted" len)
    | exception Dec.Format_error _ -> ()
  done

let test_decode_trailing_junk () =
  let bytes = Enc.class_to_bytes (sample_class ()) ^ "junk" in
  match Dec.class_of_bytes bytes with
  | _ -> fail "trailing junk accepted"
  | exception Dec.Format_error _ -> ()

let test_decode_misaligned_branch () =
  (* Encode a goto, then corrupt its target to point into the middle
     of an instruction. Goto encodes as [opcode; u4 offset]. *)
  let cls =
    B.class_ "M"
      [
        B.meth ~flags:[ CF.Public; CF.Static ] "f" "()V"
          [ B.Const 1; B.Pop; B.Goto "l"; B.Label "l"; B.Return ];
      ]
  in
  let bytes = Bytes.of_string (Enc.class_to_bytes cls) in
  (* Find the goto opcode (24) and nudge its 4-byte operand to an
     offset inside the iconst instruction (offset 1). *)
  let found = ref false in
  for i = 0 to Bytes.length bytes - 5 do
    if (not !found) && Bytes.get_uint8 bytes i = 24 then begin
      found := true;
      Bytes.set_uint8 bytes (i + 1) 0;
      Bytes.set_uint8 bytes (i + 2) 0;
      Bytes.set_uint8 bytes (i + 3) 0;
      Bytes.set_uint8 bytes (i + 4) 3
      (* byte 3 is inside the 5-byte iconst at offset 0 *)
    end
  done;
  check Alcotest.bool "found goto" true !found;
  match Dec.class_of_bytes (Bytes.to_string bytes) with
  | _ -> fail "misaligned branch accepted"
  | exception Dec.Format_error _ -> ()

let test_size_accounting () =
  let cls = sample_class () in
  check Alcotest.int "class_size = length"
    (String.length (Enc.class_to_bytes cls))
    (Enc.class_size cls);
  check Alcotest.bool "non-trivial" true (Enc.class_size cls > 100)

(* --- Writer overflow (regression). ---

   The u2/i2/str writers used to mask out-of-range values with [land
   0xff] per byte, silently corrupting any class whose pool, table or
   string outgrew a 16-bit field. They must raise [Overflow] instead. *)

let expect_overflow what f =
  match f () with
  | () -> fail (what ^ ": expected Overflow")
  | exception Bytecode.Io.Overflow _ -> ()

let test_writer_overflow () =
  let module W = Bytecode.Io.Writer in
  expect_overflow "u2 65536" (fun () -> W.u2 (W.create ()) 65536);
  expect_overflow "u2 negative" (fun () -> W.u2 (W.create ()) (-1));
  expect_overflow "i2 32768" (fun () -> W.i2 (W.create ()) 32768);
  expect_overflow "i2 -32769" (fun () -> W.i2 (W.create ()) (-32769));
  (* a length-prefixed string over 64 KiB - 1 *)
  expect_overflow "str 65536 bytes" (fun () ->
      W.str (W.create ()) (String.make 65536 'x'));
  (* boundary values still encode *)
  let w = W.create () in
  W.u2 w 65535;
  W.i2 w (-32768);
  W.i2 w 32767;
  W.str w (String.make 65535 'x');
  check Alcotest.int "boundary bytes" (2 + 2 + 2 + 2 + 65535)
    (String.length (W.contents w))

let test_encode_overwide_table () =
  (* A method whose locals outgrow the u2 max_locals field: the encoder
     must refuse the class rather than emit a truncated count. *)
  let cls = sample_class () in
  let cls =
    {
      cls with
      CF.methods =
        List.map
          (fun m ->
            match m.CF.m_code with
            | None -> m
            | Some c ->
              { m with CF.m_code = Some { c with CF.max_locals = 70_000 } })
          cls.CF.methods;
    }
  in
  expect_overflow "max_locals 70000" (fun () ->
      ignore (Enc.class_to_bytes cls))

(* --- Reader slice boundaries. ---

   [Reader.sub] readers share the parent's backing buffer; the
   interesting cases are the edges: empty slices, slices ending exactly
   at the parent's end, and slices of slices. *)

let test_reader_slice_boundaries () =
  let module R = Bytecode.Io.Reader in
  let r = R.of_string "\x00\x01\x02\x03\x04\x05\x06\x07" in
  (* empty slice: valid, immediately at end, parent not advanced past it *)
  let empty = R.sub r 0 in
  check Alcotest.bool "empty slice at_end" true (R.at_end empty);
  check Alcotest.int "empty slice pos" 0 (R.pos empty);
  (match R.u1 empty with
  | _ -> fail "read past empty slice"
  | exception Bytecode.Io.Truncated _ -> ());
  check Alcotest.int "parent pos unchanged" 0 (R.pos r);
  (* nested slices: positions are relative to each slice's start *)
  check Alcotest.int "parent u2" 0x0001 (R.u2 r);
  let outer = R.sub r 4 in
  check Alcotest.int "outer pos" 0 (R.pos outer);
  check Alcotest.int "outer u1" 2 (R.u1 outer);
  let inner = R.sub outer 2 in
  check Alcotest.int "inner pos" 0 (R.pos inner);
  check Alcotest.int "inner u2" 0x0304 (R.u2 inner);
  check Alcotest.bool "inner at_end" true (R.at_end inner);
  (* the outer slice advanced past the inner's bytes *)
  check Alcotest.int "outer u1 after inner" 5 (R.u1 outer);
  check Alcotest.bool "outer at_end" true (R.at_end outer);
  (match R.u1 outer with
  | _ -> fail "read past outer slice"
  | exception Bytecode.Io.Truncated _ -> ());
  (* slice ending exactly at the parent's end *)
  check Alcotest.int "parent resumes after slice" 6 (R.pos r);
  let tail = R.sub r 2 in
  check Alcotest.bool "parent at_end" true (R.at_end r);
  check Alcotest.int "tail u2" 0x0607 (R.u2 tail);
  check Alcotest.bool "tail at_end" true (R.at_end tail);
  (* a slice cannot extend past its parent's remaining bytes *)
  let r2 = R.of_string "ab" in
  match R.sub r2 3 with
  | _ -> fail "oversized slice accepted"
  | exception Bytecode.Io.Truncated _ -> ()

(* --- Disassembler smoke. --- *)

let test_disasm () =
  let s = Bytecode.Disasm.class_to_string (sample_class ()) in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "has class name" true (contains "com/example/Sample");
  check Alcotest.bool "has println ref" true (contains "println");
  check Alcotest.bool "has handler" true (contains "handler")

(* --- Property tests. --- *)

(* Generator of random but structurally valid classes: straight-line
   arithmetic bodies with occasional forward branches, always ending in
   return. *)
let gen_class =
  let open QCheck.Gen in
  let gen_name =
    map (fun n -> Printf.sprintf "gen/Class%d" n) (int_range 0 1000)
  in
  let gen_body =
    let* n = int_range 1 30 in
    let* ops =
      list_repeat n
        (oneof
           [
             return (B.Const 1);
             return (B.Const 42);
             map (fun k -> B.Const k) (int_range (-100) 100);
             return B.Dup;
             return (B.Push_str "s");
             return B.Pop;
           ])
    in
    (* Keep the stack non-empty at the end so we can return cleanly;
       pad with consts and end with Return. *)
    return ([ B.Const 0 ] @ ops @ [ B.Label "end"; B.Return ])
  in
  let* name = gen_name in
  let* nmeths = int_range 1 5 in
  let* bodies = list_repeat nmeths gen_body in
  let meths =
    List.mapi
      (fun i body ->
        B.meth
          ~flags:[ CF.Public; CF.Static ]
          (Printf.sprintf "m%d" i) "()V" body)
      bodies
  in
  let* nfields = int_range 0 4 in
  let fields =
    List.init nfields (fun i ->
        B.field (Printf.sprintf "f%d" i) (if i mod 2 = 0 then "I" else "[I"))
  in
  return (B.class_ name ~fields meths)

let arbitrary_class =
  QCheck.make ~print:(fun c -> Bytecode.Disasm.class_to_string c) gen_class

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:200 arbitrary_class
    (fun cls -> Dec.class_of_bytes (Enc.class_to_bytes cls) = cls)

let prop_attrs_fast_path =
  QCheck.Test.make ~name:"attributes-only decode agrees with full decode"
    ~count:200 arbitrary_class (fun cls ->
      let bytes = Enc.class_to_bytes cls in
      Dec.class_attributes_of_bytes bytes
      = (Dec.class_of_bytes bytes).CF.attributes)

let prop_size_matches =
  QCheck.Test.make ~name:"instr encoded_size consistent" ~count:200
    arbitrary_class (fun cls ->
      (* Sum of per-instruction sizes equals the encoded body length
         implied by a re-decode. *)
      let cls' = Dec.class_of_bytes (Enc.class_to_bytes cls) in
      List.for_all2
        (fun m m' ->
          match (m.CF.m_code, m'.CF.m_code) with
          | Some c, Some c' -> Array.length c.CF.instrs = Array.length c'.CF.instrs
          | None, None -> true
          | _ -> false)
        cls.CF.methods cls'.CF.methods)

(* --- Codec property over raw method bodies: every one of the 68
   opcodes, branch, jsr and tableswitch targets anywhere in [0, n]
   (n is the end of the body) and exception handlers, built directly
   as [Classfile.t] values rather than through the assembler. --- *)

let icmps = [| I.Eq; I.Ne; I.Lt; I.Ge; I.Gt; I.Le |]

(* The instruction with opcode [op] (the wire numbering), its operands
   drawn from [u2], [i2], [i4] and [target]. *)
let instr_of_opcode ~u2 ~i2 ~i4 ~target ~targets op =
  match op with
  | 0 -> I.Nop
  | 1 -> I.Iconst (i4 ())
  | 2 -> I.Ldc_str (u2 ())
  | 3 -> I.Aconst_null
  | 4 -> I.Iload (u2 ())
  | 5 -> I.Istore (u2 ())
  | 6 -> I.Aload (u2 ())
  | 7 -> I.Astore (u2 ())
  | 8 ->
    let n = u2 () in
    I.Iinc (n, i2 ())
  | 9 -> I.Iadd
  | 10 -> I.Isub
  | 11 -> I.Imul
  | 12 -> I.Idiv
  | 13 -> I.Irem
  | 14 -> I.Ineg
  | 15 -> I.Ishl
  | 16 -> I.Ishr
  | 17 -> I.Iand
  | 18 -> I.Ior
  | 19 -> I.Ixor
  | 20 -> I.Dup
  | 21 -> I.Dup_x1
  | 22 -> I.Pop
  | 23 -> I.Swap
  | 24 -> I.Goto (target ())
  | op when op >= 25 && op <= 30 -> I.If_icmp (icmps.(op - 25), target ())
  | op when op >= 31 && op <= 36 -> I.If_z (icmps.(op - 31), target ())
  | 37 -> I.If_acmp (true, target ())
  | 38 -> I.If_acmp (false, target ())
  | 39 -> I.If_null (true, target ())
  | 40 -> I.If_null (false, target ())
  | 41 -> I.Jsr (target ())
  | 42 -> I.Ret (u2 ())
  | 43 ->
    let low = i4 () in
    let default = target () in
    I.Tableswitch { low; targets = targets (); default }
  | 44 -> I.Ireturn
  | 45 -> I.Areturn
  | 46 -> I.Return
  | 47 -> I.Getstatic (u2 ())
  | 48 -> I.Putstatic (u2 ())
  | 49 -> I.Getfield (u2 ())
  | 50 -> I.Putfield (u2 ())
  | 51 -> I.Invokevirtual (u2 ())
  | 52 -> I.Invokestatic (u2 ())
  | 53 -> I.Invokespecial (u2 ())
  | 54 -> I.New (u2 ())
  | 55 -> I.Newarray
  | 56 -> I.Anewarray (u2 ())
  | 57 -> I.Arraylength
  | 58 -> I.Iaload
  | 59 -> I.Iastore
  | 60 -> I.Aaload
  | 61 -> I.Aastore
  | 62 -> I.Athrow
  | 63 -> I.Checkcast (u2 ())
  | 64 -> I.Instanceof (u2 ())
  | 65 -> I.Monitorenter
  | 66 -> I.Monitorexit
  | 67 -> I.Invokeinterface (u2 ())
  | op -> invalid_arg (Printf.sprintf "instr_of_opcode %d" op)

let n_opcodes = 68

let raw_class methods =
  {
    CF.name = "gen/Raw";
    super = Some CF.java_lang_object;
    interfaces = [];
    c_flags = [ CF.Public ];
    fields = [];
    methods;
    pool = [| CP.Utf8 ""; CP.Utf8 "gen/Raw"; CP.Class 1 |];
    attributes = [];
  }

let raw_method i code =
  {
    CF.m_name = Printf.sprintf "m%d" i;
    m_desc = "()V";
    m_flags = [ CF.Public; CF.Static ];
    m_code = Some code;
  }

let gen_code =
  let open QCheck.Gen in
  fun rand ->
    let n = int_range 1 40 rand in
    let target () = int_bound n rand in
    let instrs =
      Array.init n (fun _ ->
          instr_of_opcode (int_bound (n_opcodes - 1) rand)
            ~u2:(fun () -> int_bound 0xffff rand)
            ~i2:(fun () -> int_range (-0x8000) 0x7fff rand)
            ~i4:(fun () -> Int32.of_int (int_range (-0x8000_0000) 0x7fff_ffff rand))
            ~target
            ~targets:(fun () -> Array.init (int_bound 4 rand) (fun _ -> target ())))
    in
    let handlers =
      List.init (int_bound 3 rand) (fun _ ->
          {
            CF.h_start = target ();
            h_end = target ();
            h_target = target ();
            h_catch =
              (if bool rand then None else Some "java/lang/Exception");
          })
    in
    {
      CF.max_stack = int_bound 0xffff rand;
      max_locals = int_bound 0xffff rand;
      instrs;
      handlers;
    }

let gen_raw_class =
  QCheck.Gen.(
    map
      (fun codes -> raw_class (List.mapi raw_method codes))
      (list_size (int_range 1 4) gen_code))

let arbitrary_raw_class =
  QCheck.make ~print:Bytecode.Disasm.class_to_string gen_raw_class

let prop_raw_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip over all opcodes" ~count:500
    arbitrary_raw_class (fun cls ->
      Dec.class_of_bytes (Enc.class_to_bytes cls) = cls)

(* Every opcode, once, in one body: the property's generator draws
   opcodes at random; this pins that the table covers all 68. *)
let test_every_opcode_roundtrips () =
  let n = n_opcodes in
  let instrs =
    Array.init n (fun op ->
        instr_of_opcode op
          ~u2:(fun () -> op)
          ~i2:(fun () -> -op)
          ~i4:(fun () -> Int32.of_int (op - 1000))
          ~target:(fun () -> (op * 7) mod (n + 1))
          ~targets:(fun () -> [| 0; n; op |]))
  in
  let cls =
    raw_class
      [
        raw_method 0
          { CF.max_stack = 3; max_locals = 2; instrs; handlers = [] };
      ]
  in
  let bytes = Enc.class_to_bytes cls in
  check Alcotest.bool "roundtrip" true (Dec.class_of_bytes bytes = cls);
  let mnemonic i = List.hd (String.split_on_char ' ' (I.to_string i)) in
  check Alcotest.int "one instruction per opcode" n
    (List.length
       (List.sort_uniq String.compare (List.map mnemonic (Array.to_list instrs))))

(* Where method 0's body starts in [cls]'s encoding: a copy holding
   only method 0, with an empty body and no handlers, ends with that
   (empty) body, the u2 handler count and the u2 attribute count. *)
let body_start (cls : CF.t) =
  let m = List.hd cls.CF.methods in
  let code = Option.get m.CF.m_code in
  let empty =
    { m with CF.m_code = Some { code with CF.instrs = [||]; handlers = [] } }
  in
  String.length (Enc.class_to_bytes { cls with CF.methods = [ empty ] }) - 4

let boundary_error = function
  | Dec.Format_error msg ->
    let needle = "not on an instruction boundary" in
    let ln = String.length needle in
    let rec scan p =
      p + ln <= String.length msg
      && (String.equal (String.sub msg p ln) needle || scan (p + 1))
    in
    scan 0
  | _ -> false

let prop_corrupt_branch_target =
  QCheck.Test.make ~name:"one-byte branch-target corruption is a Format_error"
    ~count:300 arbitrary_raw_class (fun cls ->
      let code = Option.get (List.hd cls.CF.methods).CF.m_code in
      let instrs = code.CF.instrs in
      let is_branch = function
        | I.Goto _ | I.If_icmp _ | I.If_z _ | I.If_acmp _ | I.If_null _
        | I.Jsr _ ->
          true
        | _ -> false
      in
      let branches =
        List.filter
          (fun k -> is_branch instrs.(k))
          (List.init (Array.length instrs) Fun.id)
      in
      match branches with
      | [] -> QCheck.assume_fail ()
      | k :: _ ->
        let offsets = Array.make (Array.length instrs + 1) 0 in
        Array.iteri
          (fun j i -> offsets.(j + 1) <- offsets.(j) + I.encoded_size i)
          instrs;
        let bytes = Enc.class_to_bytes cls in
        (* The branch's u4 target offset follows its opcode byte. *)
        let pos = body_start cls + offsets.(k) + 1 in
        let corrupt p c =
          let b = Bytes.of_string bytes in
          Bytes.set b p c;
          match Dec.class_of_bytes (Bytes.to_string b) with
          | _ -> false
          | exception e -> boundary_error e
        in
        (* Top byte: the target lands far past the end of the body. *)
        corrupt pos '\x80'
        &&
        (* Low byte: the target lands inside the branch itself, when
           that is one low-byte edit away. *)
        let inside = offsets.(k) + 1 in
        let upper =
          (Char.code bytes.[pos] lsl 24)
          lor (Char.code bytes.[pos + 1] lsl 16)
          lor (Char.code bytes.[pos + 2] lsl 8)
        in
        if upper = inside land lnot 0xff then
          corrupt (pos + 3) (Char.chr (inside land 0xff))
        else true)

let () =
  let qt =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_roundtrip;
        prop_size_matches;
        prop_attrs_fast_path;
        prop_raw_roundtrip;
        prop_corrupt_branch_target;
      ]
  in
  Alcotest.run "bytecode"
    [
      ( "descriptor",
        [
          Alcotest.test_case "roundtrip" `Quick test_descriptor_roundtrip;
          Alcotest.test_case "errors" `Quick test_descriptor_errors;
          Alcotest.test_case "slots" `Quick test_descriptor_slots;
        ] );
      ( "cp",
        [
          Alcotest.test_case "interning" `Quick test_cp_interning;
          Alcotest.test_case "of_pool" `Quick test_cp_of_pool_preserves_indices;
          Alcotest.test_case "errors" `Quick test_cp_errors;
        ] );
      ( "instr",
        [
          Alcotest.test_case "targets" `Quick test_instr_targets;
          Alcotest.test_case "successors" `Quick test_instr_successors;
        ] );
      ( "builder",
        [
          Alcotest.test_case "labels" `Quick test_builder_labels;
          Alcotest.test_case "duplicate label" `Quick
            test_builder_duplicate_label;
          Alcotest.test_case "unbound label" `Quick test_builder_unbound_label;
          Alcotest.test_case "max locals/stack" `Quick test_builder_max_locals;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip sample" `Quick test_roundtrip_sample;
          Alcotest.test_case "roundtrip switch/jsr" `Quick
            test_roundtrip_switch_and_jsr;
          Alcotest.test_case "roundtrip invokeinterface" `Quick
            test_roundtrip_invokeinterface;
          Alcotest.test_case "attributes fast path" `Quick
            test_attributes_fast_path;
          Alcotest.test_case "bad magic" `Quick test_decode_bad_magic;
          Alcotest.test_case "truncated" `Quick test_decode_truncated;
          Alcotest.test_case "trailing junk" `Quick test_decode_trailing_junk;
          Alcotest.test_case "misaligned branch" `Quick
            test_decode_misaligned_branch;
          Alcotest.test_case "size accounting" `Quick test_size_accounting;
          Alcotest.test_case "every opcode roundtrips" `Quick
            test_every_opcode_roundtrips;
        ] );
      ( "io",
        [
          Alcotest.test_case "writer overflow" `Quick test_writer_overflow;
          Alcotest.test_case "over-wide table" `Quick
            test_encode_overwide_table;
          Alcotest.test_case "reader slice boundaries" `Quick
            test_reader_slice_boundaries;
        ] );
      ("disasm", [ Alcotest.test_case "smoke" `Quick test_disasm ]);
      ("properties", qt);
    ]
