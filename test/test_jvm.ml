(* Tests for the JVM runtime: interpreter semantics, exceptions,
   dispatch, class loading/initialization, natives, faults on
   unverified-style code. *)

module B = Bytecode.Builder
module CF = Bytecode.Classfile
module I = Bytecode.Instr
module V = Jvm.Value

let check = Alcotest.check
let fail = Alcotest.fail

let static = [ CF.Public; CF.Static ]

(* Build a VM with the given extra classes registered directly. *)
let vm_with classes =
  let vm = Jvm.Bootlib.fresh_vm () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg) classes;
  vm

let run_main_expect_output classes entry expected =
  let vm = vm_with classes in
  (match Jvm.Interp.run_main vm entry with
  | Ok () -> ()
  | Error e -> fail ("uncaught: " ^ Jvm.Interp.describe_throwable e));
  check Alcotest.string "output" expected (Jvm.Vmstate.output vm)

let call_static vm cls name desc args = Jvm.Interp.invoke vm ~cls ~name ~desc args

(* --- Basics. --- *)

let hello_cls =
  B.class_ "Hello"
    [
      B.meth ~flags:static "main" "()V"
        [
          B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
          B.Push_str "hello world";
          B.Invokevirtual
            ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
          B.Return;
        ];
    ]

let test_hello () = run_main_expect_output [ hello_cls ] "Hello" "hello world\n"

let gcd_cls =
  B.class_ "Gcd"
    [
      B.meth ~flags:static "gcd" "(II)I"
        [
          B.Label "top";
          B.Iload 1;
          B.If_z (I.Eq, "done");
          B.Iload 0;
          B.Iload 1;
          B.Rem;
          B.Iload 1;
          B.Istore 0;
          B.Istore 1;
          B.Goto "top";
          B.Label "done";
          B.Iload 0;
          B.Ireturn;
        ];
    ]

let test_gcd () =
  let vm = vm_with [ gcd_cls ] in
  match call_static vm "Gcd" "gcd" "(II)I" [ V.Int 252l; V.Int 105l ] with
  | Some (V.Int 21l) -> ()
  | r ->
    fail
      (match r with
      | Some v -> "got " ^ V.to_string v
      | None -> "got nothing")

let test_arithmetic_ops () =
  let body ops = B.meth ~flags:static "f" "()I" (ops @ [ B.Ireturn ]) in
  let expect name ops result =
    let cls = B.class_ ("Arith" ^ name) [ body ops ] in
    let vm = vm_with [ cls ] in
    match call_static vm ("Arith" ^ name) "f" "()I" [] with
    | Some (V.Int n) -> check Alcotest.int32 name result n
    | _ -> fail name
  in
  expect "add" [ B.Const 2; B.Const 3; B.Add ] 5l;
  expect "sub" [ B.Const 2; B.Const 3; B.Sub ] (-1l);
  expect "mul" [ B.Const (-4); B.Const 3; B.Mul ] (-12l);
  expect "div" [ B.Const 7; B.Const 2; B.Div ] 3l;
  expect "rem" [ B.Const 7; B.Const 2; B.Rem ] 1l;
  expect "neg" [ B.Const 9; B.Neg ] (-9l);
  expect "shl" [ B.Const 1; B.Const 4; B.Shl ] 16l;
  expect "shr" [ B.Const (-16); B.Const 2; B.Shr ] (-4l);
  expect "and" [ B.Const 12; B.Const 10; B.And ] 8l;
  expect "or" [ B.Const 12; B.Const 10; B.Or ] 14l;
  expect "xor" [ B.Const 12; B.Const 10; B.Xor ] 6l;
  expect "swap" [ B.Const 1; B.Const 2; B.Swap; B.Sub ] 1l;
  expect "dup_x1" [ B.Const 5; B.Const 3; B.Dup_x1; B.Add; B.Add ] 11l

let test_int32_wraparound () =
  let cls =
    B.class_ "Wrap"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Const 2147483647; B.Const 1; B.Add; B.Ireturn ];
      ]
  in
  let vm = vm_with [ cls ] in
  match call_static vm "Wrap" "f" "()I" [] with
  | Some (V.Int n) -> check Alcotest.int32 "wraps" Int32.min_int n
  | _ -> fail "no result"

let test_tableswitch () =
  let cls =
    B.class_ "Sw"
      [
        B.meth ~flags:static "f" "(I)I"
          [
            B.Iload 0;
            B.Switch (10, [ "a"; "b"; "c" ], "d");
            B.Label "a";
            B.Const 1;
            B.Ireturn;
            B.Label "b";
            B.Const 2;
            B.Ireturn;
            B.Label "c";
            B.Const 3;
            B.Ireturn;
            B.Label "d";
            B.Const 0;
            B.Ireturn;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  let f n =
    match call_static vm "Sw" "f" "(I)I" [ V.Int (Int32.of_int n) ] with
    | Some (V.Int r) -> Int32.to_int r
    | _ -> fail "no result"
  in
  check Alcotest.int "10" 1 (f 10);
  check Alcotest.int "11" 2 (f 11);
  check Alcotest.int "12" 3 (f 12);
  check Alcotest.int "9" 0 (f 9);
  check Alcotest.int "13" 0 (f 13)

let test_jsr_ret () =
  (* A subroutine called from two sites, as javac's try/finally once
     compiled. *)
  let cls =
    B.class_ "JsrDemo"
      [
        B.meth ~flags:static "f" "(I)I"
          [
            B.Const 0;
            B.Istore 1;
            B.Iload 0;
            B.If_z (I.Eq, "second");
            B.Jsr "sub";
            B.Goto "out";
            B.Label "second";
            B.Jsr "sub";
            B.Jsr "sub";
            B.Label "out";
            B.Iload 1;
            B.Ireturn;
            B.Label "sub";
            B.Astore 2;
            B.Inc (1, 10);
            B.Ret 2;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  let f n =
    match call_static vm "JsrDemo" "f" "(I)I" [ V.Int (Int32.of_int n) ] with
    | Some (V.Int r) -> Int32.to_int r
    | _ -> fail "no result"
  in
  check Alcotest.int "one call" 10 (f 1);
  check Alcotest.int "two calls" 20 (f 0)

(* --- Int32 semantics: every int op must match [Int32] exactly. --- *)

let int_ops =
  let shift f a b = f a (Int32.to_int b land 31) in
  let total f a b = Some (f a b) in
  let checked f a b = if Int32.equal b 0l then None else Some (f a b) in
  [
    ("iadd", B.Add, total Int32.add);
    ("isub", B.Sub, total Int32.sub);
    ("imul", B.Mul, total Int32.mul);
    ("idiv", B.Div, checked Int32.div);
    ("irem", B.Rem, checked Int32.rem);
    ("ishl", B.Shl, total (shift Int32.shift_left));
    ("ishr", B.Shr, total (shift Int32.shift_right));
    ("iand", B.And, total Int32.logand);
    ("ior", B.Or, total Int32.logor);
    ("ixor", B.Xor, total Int32.logxor);
  ]

let cmps = [ ("eq", I.Eq); ("ne", I.Ne); ("lt", I.Lt); ("ge", I.Ge); ("gt", I.Gt); ("le", I.Le) ]

let cmp_holds c n =
  match c with
  | I.Eq -> n = 0
  | I.Ne -> n <> 0
  | I.Lt -> n < 0
  | I.Ge -> n >= 0
  | I.Gt -> n > 0
  | I.Le -> n <= 0

(* Deltas wider than 32 bits wrap like [Int32.of_int]. *)
let iinc_deltas =
  [ 1; -1; 0x7fffffff; -0x80000000; 0x80000000; 0xffffffff; 1 lsl 32; max_int; min_int ]

let switch_lows =
  [ Int32.min_int; Int32.succ Int32.min_int; Int32.sub Int32.max_int 2l; Int32.max_int; 0l ]

let returns_flag branch =
  [ branch; B.Const 0; B.Ireturn; B.Label "t"; B.Const 1; B.Ireturn ]

(* Each op [name] returns its result; [name ^ "_eq"] also takes the
   expected result as a last argument and compares it with if_icmpeq
   inside the frame, before any boxing could re-wrap a result that was
   left outside 32 bits. *)
let int_desc arity = "(" ^ String.make arity 'I' ^ ")I"

let int32_cls =
  let m = B.meth ~flags:static in
  let op_and_eq name arity body =
    [
      m name (int_desc arity) (body @ [ B.Ireturn ]);
      m (name ^ "_eq") (int_desc (arity + 1))
        (body @ (B.Iload arity :: returns_flag (B.If_icmp (I.Eq, "t"))));
    ]
  in
  B.class_ "I32"
    (List.concat_map
       (fun (name, op, _) -> op_and_eq name 2 [ B.Iload 0; B.Iload 1; op ])
       int_ops
    @ op_and_eq "ineg" 1 [ B.Iload 0; B.Neg ]
    @ List.concat_map
        (fun (name, c) ->
          [
            m ("icmp_" ^ name) "(II)I"
              (B.Iload 0 :: B.Iload 1 :: returns_flag (B.If_icmp (c, "t")));
            m ("ifz_" ^ name) "(I)I" (B.Iload 0 :: returns_flag (B.If_z (c, "t")));
          ])
        cmps
    @ List.concat
        (List.mapi
           (fun i d -> op_and_eq (Printf.sprintf "iinc%d" i) 1 [ B.Inc (0, d); B.Iload 0 ])
           iinc_deltas)
    @ List.mapi
        (fun i low ->
          m (Printf.sprintf "switch%d" i) "(I)I"
            [
              B.Iload 0;
              B.Switch (Int32.to_int low, [ "a"; "b"; "c" ], "d");
              B.Label "a"; B.Const 1; B.Ireturn;
              B.Label "b"; B.Const 2; B.Ireturn;
              B.Label "c"; B.Const 3; B.Ireturn;
              B.Label "d"; B.Const 0; B.Ireturn;
            ])
        switch_lows
    @ [
        m "array" "(I)I"
          [
            B.Const 1; B.Newarray; B.Astore 1;
            B.Aload 1; B.Const 0; B.Iload 0; B.Iastore;
            B.Aload 1; B.Const 0; B.Iaload; B.Ireturn;
          ];
      ])

let int32_vm = lazy (vm_with [ int32_cls ])

(* [Some n] for a returned int, [None] for an ArithmeticException. *)
let run_i32 name desc args =
  let vm = Lazy.force int32_vm in
  match call_static vm "I32" name desc (List.map (fun n -> V.Int n) args) with
  | Some (V.Int n) -> Some n
  | _ -> fail (name ^ ": no int result")
  | exception Jvm.Vmstate.Throw e
    when String.equal (V.class_of e) "java/lang/ArithmeticException" ->
    None

let edge_int32 =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [ Int32.min_int; Int32.max_int; -1l; 0l; 1l; 31l; 32l; 63l; Int32.succ Int32.min_int; Int32.pred Int32.max_int ] );
        (1, int32);
      ])

let prop_int32_ops =
  QCheck.Test.make ~name:"int ops match Int32" ~count:400
    (QCheck.make
       ~print:(fun (a, b, d) -> Printf.sprintf "a=%ld b=%ld d=%d" a b d)
       QCheck.Gen.(triple edge_int32 edge_int32 (int_range (-2) 4)))
    (fun (a, b, d) ->
      let same what got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s: got %s, want %s" what
            (match got with Some n -> Int32.to_string n | None -> "throw")
            (match want with Some n -> Int32.to_string n | None -> "throw")
      in
      let exact name args want =
        let arity = List.length args in
        same name (run_i32 name (int_desc arity) args) want;
        match want with
        | Some n ->
          same (name ^ "_eq")
            (run_i32 (name ^ "_eq") (int_desc (arity + 1)) (args @ [ n ]))
            (Some 1l)
        | None -> ()
      in
      List.iter (fun (name, _, f) -> exact name [ a; b ] (f a b)) int_ops;
      exact "ineg" [ a ] (Some (Int32.neg a));
      List.iter
        (fun (name, c) ->
          let flag b = Some (if b then 1l else 0l) in
          same ("icmp_" ^ name) (run_i32 ("icmp_" ^ name) "(II)I" [ a; b ])
            (flag (cmp_holds c (Int32.compare a b)));
          same ("ifz_" ^ name) (run_i32 ("ifz_" ^ name) "(I)I" [ a ])
            (flag (cmp_holds c (Int32.compare a 0l))))
        cmps;
      List.iteri
        (fun i delta ->
          exact (Printf.sprintf "iinc%d" i) [ a ]
            (Some (Int32.add a (Int32.of_int delta))))
        iinc_deltas;
      List.iteri
        (fun i low ->
          let name = Printf.sprintf "switch%d" i in
          List.iter
            (fun v ->
              let k = Int32.to_int (Int32.sub v low) in
              let want = if k >= 0 && k < 3 then Int32.of_int (k + 1) else 0l in
              same name (run_i32 name "(I)I" [ v ]) (Some want))
            [ a; Int32.add low (Int32.of_int d) ])
        switch_lows;
      same "array" (run_i32 "array" "(I)I" [ a ]) (Some a);
      true)

let test_int32_extremes () =
  List.iter
    (fun n ->
      check Alcotest.(option int32) "iastore/iaload" (Some n) (run_i32 "array" "(I)I" [ n ]))
    [ Int32.min_int; Int32.max_int ];
  check Alcotest.(option int32) "min_int / -1" (Some Int32.min_int)
    (run_i32 "idiv" "(II)I" [ Int32.min_int; -1l ]);
  check Alcotest.(option int32) "min_int % -1" (Some 0l)
    (run_i32 "irem" "(II)I" [ Int32.min_int; -1l ]);
  check Alcotest.(option int32) "neg min_int" (Some Int32.min_int)
    (run_i32 "ineg" "(I)I" [ Int32.min_int ])

(* --- Objects, dispatch, fields. --- *)

let animal_classes =
  [
    B.class_ "Animal"
      [
        B.default_init "java/lang/Object";
        B.meth "speak" "()Ljava/lang/String;" [ B.Push_str "..."; B.Areturn ];
        B.meth "describe" "()Ljava/lang/String;"
          [
            (* virtual call through this: subclasses override speak *)
            B.Aload 0;
            B.Invokevirtual ("Animal", "speak", "()Ljava/lang/String;");
            B.Areturn;
          ];
      ];
    B.class_ "Dog" ~super:"Animal"
      [
        B.default_init "Animal";
        B.meth "speak" "()Ljava/lang/String;" [ B.Push_str "woof"; B.Areturn ];
      ];
    B.class_ "Cat" ~super:"Animal"
      [
        B.default_init "Animal";
        B.meth "speak" "()Ljava/lang/String;" [ B.Push_str "meow"; B.Areturn ];
      ];
    B.class_ "Kennel"
      [
        B.meth ~flags:static "main" "()V"
          [
            B.New "Dog";
            B.Dup;
            B.Invokespecial ("Dog", "<init>", "()V");
            B.Invokevirtual ("Animal", "describe", "()Ljava/lang/String;");
            B.Astore 0;
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Aload 0;
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.New "Cat";
            B.Dup;
            B.Invokespecial ("Cat", "<init>", "()V");
            B.Invokevirtual ("Animal", "describe", "()Ljava/lang/String;");
            B.Astore 0;
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Aload 0;
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.Return;
          ];
      ];
  ]

let test_virtual_dispatch () =
  run_main_expect_output animal_classes "Kennel" "woof\nmeow\n"

let counter_cls =
  B.class_ "Counter"
    ~fields:[ B.field "n" "I" ]
    [
      B.default_init "java/lang/Object";
      B.meth "bump" "()V"
        [
          B.Aload 0;
          B.Aload 0;
          B.Getfield ("Counter", "n", "I");
          B.Const 1;
          B.Add;
          B.Putfield ("Counter", "n", "I");
          B.Return;
        ];
      B.meth "get" "()I"
        [ B.Aload 0; B.Getfield ("Counter", "n", "I"); B.Ireturn ];
    ]

let test_instance_fields () =
  let vm = vm_with [ counter_cls ] in
  let o =
    Jvm.Heap.alloc_obj vm.Jvm.Vmstate.heap ~cls:"Counter"
      ~field_descs:[ ("n", "I") ]
  in
  let recv = V.Obj o in
  for _ = 1 to 5 do
    ignore (Jvm.Interp.invoke vm ~cls:"Counter" ~name:"bump" ~desc:"()V" [ recv ])
  done;
  match Jvm.Interp.invoke vm ~cls:"Counter" ~name:"get" ~desc:"()I" [ recv ] with
  | Some (V.Int 5l) -> ()
  | _ -> fail "field count wrong"

let test_clinit_runs_once () =
  let cls =
    B.class_ "WithInit"
      ~fields:[ B.field ~flags:static "k" "I" ]
      [
        B.meth ~flags:static "<clinit>" "()V"
          [
            B.Getstatic ("WithInit", "k", "I");
            B.Const 7;
            B.Add;
            B.Putstatic ("WithInit", "k", "I");
            B.Return;
          ];
        B.meth ~flags:static "get" "()I"
          [ B.Getstatic ("WithInit", "k", "I"); B.Ireturn ];
      ]
  in
  let vm = vm_with [ cls ] in
  let get () =
    match call_static vm "WithInit" "get" "()I" [] with
    | Some (V.Int n) -> Int32.to_int n
    | _ -> fail "no result"
  in
  check Alcotest.int "first" 7 (get ());
  check Alcotest.int "second (no re-init)" 7 (get ())

let test_inherited_fields_visible () =
  let classes =
    [
      B.class_ "Base" ~fields:[ B.field "x" "I" ] [ B.default_init "java/lang/Object" ];
      B.class_ "Derived" ~super:"Base"
        [
          B.default_init "Base";
          B.meth "setX" "(I)V"
            [ B.Aload 0; B.Iload 1; B.Putfield ("Base", "x", "I"); B.Return ];
          B.meth "getX" "()I"
            [ B.Aload 0; B.Getfield ("Base", "x", "I"); B.Ireturn ];
        ];
    ]
  in
  let vm = vm_with classes in
  let fields = Jvm.Classreg.all_instance_fields vm.Jvm.Vmstate.reg "Derived" in
  let o = Jvm.Heap.alloc_obj vm.Jvm.Vmstate.heap ~cls:"Derived" ~field_descs:fields in
  ignore
    (Jvm.Interp.invoke vm ~cls:"Derived" ~name:"setX" ~desc:"(I)V"
       [ V.Obj o; V.Int 33l ]);
  match Jvm.Interp.invoke vm ~cls:"Derived" ~name:"getX" ~desc:"()I" [ V.Obj o ] with
  | Some (V.Int 33l) -> ()
  | _ -> fail "inherited field broken"

let speaker_iface =
  B.class_ ~flags:[ CF.Public; CF.Abstract ] "Speaker"
    [ B.abstract_meth "speak" "()Ljava/lang/String;" ]

let test_interface_dispatch () =
  let duck =
    B.class_ "Duck" ~interfaces:[ "Speaker" ]
      [
        B.default_init "java/lang/Object";
        B.meth "speak" "()Ljava/lang/String;" [ B.Push_str "quack"; B.Areturn ];
      ]
  in
  let caller =
    B.class_ "Pond"
      [
        B.meth ~flags:static "main" "()V"
          [
            B.New "Duck";
            B.Dup;
            B.Invokespecial ("Duck", "<init>", "()V");
            B.Astore 0;
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Aload 0;
            B.Invokeinterface ("Speaker", "speak", "()Ljava/lang/String;");
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.Return;
          ];
      ]
  in
  run_main_expect_output [ speaker_iface; duck; caller ] "Pond" "quack\n";
  (* instanceof through the interface *)
  let vm = vm_with [ speaker_iface; duck ] in
  check Alcotest.bool "Duck <= Speaker" true
    (Jvm.Classreg.is_subclass vm.Jvm.Vmstate.reg ~sub:"Duck" ~super:"Speaker")

(* --- Arrays. --- *)

let test_arrays () =
  let cls =
    B.class_ "Arr"
      [
        B.meth ~flags:static "sum" "(I)I"
          [
            (* arr = new int[n]; fill arr[i] = i; sum it *)
            B.Iload 0;
            B.Newarray;
            B.Astore 1;
            B.Const 0;
            B.Istore 2;
            B.Label "fill";
            B.Iload 2;
            B.Iload 0;
            B.If_icmp (I.Ge, "sumstart");
            B.Aload 1;
            B.Iload 2;
            B.Iload 2;
            B.Iastore;
            B.Inc (2, 1);
            B.Goto "fill";
            B.Label "sumstart";
            B.Const 0;
            B.Istore 3;
            B.Const 0;
            B.Istore 2;
            B.Label "sum";
            B.Iload 2;
            B.Aload 1;
            B.Arraylength;
            B.If_icmp (I.Ge, "done");
            B.Iload 3;
            B.Aload 1;
            B.Iload 2;
            B.Iaload;
            B.Add;
            B.Istore 3;
            B.Inc (2, 1);
            B.Goto "sum";
            B.Label "done";
            B.Iload 3;
            B.Ireturn;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  match call_static vm "Arr" "sum" "(I)I" [ V.Int 10l ] with
  | Some (V.Int 45l) -> ()
  | Some v -> fail ("got " ^ V.to_string v)
  | None -> fail "no result"

let expect_throw vm cls name desc args exn_cls =
  match Jvm.Interp.invoke vm ~cls ~name ~desc args with
  | _ -> fail ("expected " ^ exn_cls)
  | exception Jvm.Vmstate.Throw v ->
    check Alcotest.string "exception class" exn_cls (V.class_of v)

let test_array_bounds () =
  let cls =
    B.class_ "Oob"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Const 3; B.Newarray; B.Const 5; B.Iaload; B.Ireturn ];
        B.meth ~flags:static "neg" "()V"
          [ B.Const (-1); B.Newarray; B.Pop; B.Return ];
      ]
  in
  let vm = vm_with [ cls ] in
  expect_throw vm "Oob" "f" "()I" [] "java/lang/ArrayIndexOutOfBoundsException";
  expect_throw vm "Oob" "neg" "()V" [] "java/lang/NegativeArraySizeException"

(* --- Exceptions. --- *)

let test_throw_catch () =
  let cls =
    B.class_ "TC"
      [
        B.meth ~flags:static "main" "()V"
          ~handlers:[ ("try", "end", "catch", Some "java/lang/Exception") ]
          [
            B.Label "try";
            B.New "java/lang/Exception";
            B.Dup;
            B.Push_str "boom";
            B.Invokespecial
              ("java/lang/Exception", "<init>", "(Ljava/lang/String;)V");
            B.Athrow;
            B.Label "end";
            B.Return;
            B.Label "catch";
            B.Invokevirtual
              ("java/lang/Throwable", "getMessage", "()Ljava/lang/String;");
            B.Astore 0;
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Aload 0;
            B.Invokevirtual
              ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.Return;
          ];
      ]
  in
  run_main_expect_output [ cls ] "TC" "boom\n"

let test_catch_subtype_only () =
  (* Handler for ArithmeticException must not catch NPE. *)
  let cls =
    B.class_ "Sel"
      [
        B.meth ~flags:static "f" "()V"
          ~handlers:
            [ ("try", "end", "catch", Some "java/lang/ArithmeticException") ]
          [
            B.Label "try";
            B.Null;
            B.Getfield ("Counter", "n", "I");
            B.Pop;
            B.Label "end";
            B.Return;
            B.Label "catch";
            B.Pop;
            B.Return;
          ];
      ]
  in
  let vm = vm_with [ cls; counter_cls ] in
  expect_throw vm "Sel" "f" "()V" [] "java/lang/NullPointerException"

let test_exception_unwinds_frames () =
  let classes =
    [
      B.class_ "Deep"
        [
          B.meth ~flags:static "inner" "()V"
            [ B.Const 1; B.Const 0; B.Div; B.Pop; B.Return ];
          B.meth ~flags:static "middle" "()V"
            [ B.Invokestatic ("Deep", "inner", "()V"); B.Return ];
          B.meth ~flags:static "outer" "()I"
            ~handlers:[ ("try", "end", "catch", None) ]
            [
              B.Label "try";
              B.Invokestatic ("Deep", "middle", "()V");
              B.Label "end";
              B.Const 0;
              B.Ireturn;
              B.Label "catch";
              B.Pop;
              B.Const 99;
              B.Ireturn;
            ];
        ];
    ]
  in
  let vm = vm_with classes in
  match call_static vm "Deep" "outer" "()I" [] with
  | Some (V.Int 99l) -> ()
  | _ -> fail "handler in outer frame did not catch"

let test_div_by_zero_uncaught () =
  let cls =
    B.class_ "Dz"
      [ B.meth ~flags:static "f" "()I" [ B.Const 1; B.Const 0; B.Div; B.Ireturn ] ]
  in
  let vm = vm_with [ cls ] in
  expect_throw vm "Dz" "f" "()I" [] "java/lang/ArithmeticException"

let test_checkcast_instanceof () =
  let vm = vm_with animal_classes in
  let mk cls =
    let o = Jvm.Heap.alloc_obj vm.Jvm.Vmstate.heap ~cls ~field_descs:[] in
    V.Obj o
  in
  let reg = vm.Jvm.Vmstate.reg in
  check Alcotest.bool "Dog <= Animal" true
    (Jvm.Classreg.is_subclass reg ~sub:"Dog" ~super:"Animal");
  check Alcotest.bool "Dog <= Object" true
    (Jvm.Classreg.is_subclass reg ~sub:"Dog" ~super:"java/lang/Object");
  check Alcotest.bool "Animal not <= Dog" false
    (Jvm.Classreg.is_subclass reg ~sub:"Animal" ~super:"Dog");
  check Alcotest.bool "Cat not <= Dog" false
    (Jvm.Classreg.is_subclass reg ~sub:"Cat" ~super:"Dog");
  ignore (mk "Dog");
  (* checkcast failure through bytecode *)
  let cls =
    B.class_ "CastFail"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.New "Cat";
            B.Dup;
            B.Invokespecial ("Cat", "<init>", "()V");
            B.Checkcast "Dog";
            B.Pop;
            B.Return;
          ];
      ]
  in
  Jvm.Classreg.register reg cls;
  expect_throw vm "CastFail" "f" "()V" [] "java/lang/ClassCastException"

let test_stack_overflow () =
  let cls =
    B.class_ "Rec"
      [
        B.meth ~flags:static "f" "()V"
          [ B.Invokestatic ("Rec", "f", "()V"); B.Return ];
      ]
  in
  let vm = vm_with [ cls ] in
  expect_throw vm "Rec" "f" "()V" [] "java/lang/StackOverflowError"

(* --- Class loading. --- *)

let test_provider_loading () =
  let lib_cls =
    B.class_ "Lib"
      [ B.meth ~flags:static "answer" "()I" [ B.Const 42; B.Ireturn ] ]
  in
  let bytes = Bytecode.Encode.class_to_bytes lib_cls in
  let requested = ref [] in
  let provider name =
    requested := name :: !requested;
    if name = "Lib" then Some bytes else None
  in
  let vm = Jvm.Bootlib.fresh_vm ~provider () in
  let user =
    B.class_ "User"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Invokestatic ("Lib", "answer", "()I"); B.Ireturn ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg user;
  (match call_static vm "User" "f" "()I" [] with
  | Some (V.Int 42l) -> ()
  | _ -> fail "provider class not used");
  check Alcotest.bool "Lib requested" true (List.mem "Lib" !requested);
  check Alcotest.int "bytes accounted" (String.length bytes)
    vm.Jvm.Vmstate.reg.Jvm.Classreg.bytes_fetched

let test_missing_class () =
  let vm = Jvm.Bootlib.fresh_vm () in
  let user =
    B.class_ "User2"
      [
        B.meth ~flags:static "f" "()V"
          [ B.Invokestatic ("Nowhere", "g", "()V"); B.Return ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg user;
  expect_throw vm "User2" "f" "()V" [] "java/lang/NoClassDefFoundError"

let test_on_load_hook_rejects () =
  let evil =
    B.class_ "Evil" [ B.meth ~flags:static "f" "()V" [ B.Return ] ]
  in
  let bytes = Bytecode.Encode.class_to_bytes evil in
  let provider name = if name = "Evil" then Some bytes else None in
  let vm = Jvm.Bootlib.fresh_vm ~provider () in
  Jvm.Classreg.set_on_load vm.Jvm.Vmstate.reg (fun cf ->
      raise
        (Jvm.Classreg.Load_rejected
           { cls = cf.CF.name; reason = "rejected by local policy" }));
  let user =
    B.class_ "User3"
      [
        B.meth ~flags:static "f" "()V"
          [ B.Invokestatic ("Evil", "f", "()V"); B.Return ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg user;
  expect_throw vm "User3" "f" "()V" [] "java/lang/VerifyError"

(* --- The interpreter's constant-pool cache. ---

   A cached call site must behave exactly as a fresh resolution: it
   follows lazy loads and class replacement, and a resolution that had
   to ask the provider is redone (with its side effects) every time. *)

let int_result = function
  | Some (V.Int n) -> Int32.to_int n
  | Some v -> fail ("got " ^ V.to_string v)
  | None -> fail "no result"

let maker cls =
  B.meth ~flags:static ("mk" ^ cls) ("()L" ^ cls ^ ";")
    [ B.New cls; B.Dup; B.Invokespecial (cls, "<init>", "()V"); B.Areturn ]

let test_site_follows_lazy_subclass () =
  let sub =
    B.class_ "IcB" ~super:"IcA"
      [ B.default_init "IcA"; B.meth "m" "()I" [ B.Const 2; B.Ireturn ] ]
  in
  let bytes = Bytecode.Encode.class_to_bytes sub in
  let provider name = if name = "IcB" then Some bytes else None in
  let vm = Jvm.Bootlib.fresh_vm ~provider () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg)
    [
      B.class_ "IcA"
        [ B.default_init "java/lang/Object"; B.meth "m" "()I" [ B.Const 1; B.Ireturn ] ];
      B.class_ "IcCall"
        [
          B.meth ~flags:static "call" "(LIcA;)I"
            [ B.Aload 0; B.Invokevirtual ("IcA", "m", "()I"); B.Ireturn ];
          maker "IcA";
          maker "IcB";
        ];
    ];
  let make c =
    match call_static vm "IcCall" ("mk" ^ c) ("()L" ^ c ^ ";") [] with
    | Some v -> v
    | None -> fail "no object"
  in
  let call o = int_result (call_static vm "IcCall" "call" "(LIcA;)I" [ o ]) in
  let a = make "IcA" in
  check Alcotest.int "A" 1 (call a);
  check Alcotest.int "A, cached site" 1 (call a);
  check Alcotest.bool "B not loaded yet" false
    (Jvm.Classreg.is_loaded vm.Jvm.Vmstate.reg "IcB");
  let b = make "IcB" in
  check Alcotest.bool "B loaded lazily" true
    (Jvm.Classreg.is_loaded vm.Jvm.Vmstate.reg "IcB");
  check Alcotest.int "B's override" 2 (call b);
  check Alcotest.int "A again" 1 (call a);
  check Alcotest.int "B again" 2 (call b)

let test_site_follows_replacement () =
  let rep k =
    B.class_ "Rep"
      [
        B.default_init "java/lang/Object";
        B.meth ~flags:static "<clinit>" "()V"
          [
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Push_str (Printf.sprintf "init%d" k);
            B.Invokevirtual ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            B.Return;
          ];
        B.meth ~flags:static "v" "()I" [ B.Const k; B.Ireturn ];
        B.meth "w" "()I" [ B.Const (10 * k); B.Ireturn ];
        B.meth "u" "()I" [ B.Const (100 * k); B.Ireturn ];
      ]
  in
  (* Distinct methods per call kind, so no two sites share a pool entry. *)
  let caller =
    B.class_ "RepCall"
      [
        B.meth ~flags:static "s" "()I" [ B.Invokestatic ("Rep", "v", "()I"); B.Ireturn ];
        B.meth ~flags:static "d" "(LRep;)I"
          [ B.Aload 0; B.Invokevirtual ("Rep", "w", "()I"); B.Ireturn ];
        B.meth ~flags:static "p" "(LRep;)I"
          [ B.Aload 0; B.Invokespecial ("Rep", "u", "()I"); B.Ireturn ];
        maker "Rep";
      ]
  in
  let vm = vm_with [ rep 1; caller ] in
  let o =
    match call_static vm "RepCall" "mkRep" "()LRep;" [] with
    | Some v -> v
    | None -> fail "no object"
  in
  let s () = int_result (call_static vm "RepCall" "s" "()I" []) in
  let d () = int_result (call_static vm "RepCall" "d" "(LRep;)I" [ o ]) in
  let p () = int_result (call_static vm "RepCall" "p" "(LRep;)I" [ o ]) in
  let out () = Jvm.Vmstate.output vm in
  for _ = 1 to 2 do
    check Alcotest.int "static" 1 (s ());
    check Alcotest.int "virtual" 10 (d ());
    check Alcotest.int "special" 100 (p ())
  done;
  check Alcotest.string "initialized once" "init1\n" (out ());
  Jvm.Classreg.register vm.Jvm.Vmstate.reg (rep 2);
  check Alcotest.int "virtual, replaced" 20 (d ());
  check Alcotest.int "special, replaced" 200 (p ());
  check Alcotest.string "not yet initialized" "init1\n" (out ());
  check Alcotest.int "static, replaced" 2 (s ());
  check Alcotest.string "replacement initialized by the cached site"
    "init1\ninit2\n" (out ());
  for _ = 1 to 2 do
    check Alcotest.int "static" 2 (s ());
    check Alcotest.int "virtual" 20 (d ());
    check Alcotest.int "special" 200 (p ())
  done;
  check Alcotest.string "each class initialized once" "init1\ninit2\n" (out ())

let test_site_replays_provider_misses () =
  let asked = ref [] in
  let provider name =
    asked := name :: !asked;
    None
  in
  let vm = Jvm.Bootlib.fresh_vm ~provider () in
  List.iter (Jvm.Classreg.register vm.Jvm.Vmstate.reg)
    [
      B.class_ "Orphan" ~super:"Ghost" [ B.meth ~flags:static "h" "()V" [ B.Return ] ];
      B.class_ "OrphCall"
        [
          B.meth ~flags:static "orphan" "()V"
            [ B.Invokestatic ("Orphan", "g", "()V"); B.Return ];
          B.meth ~flags:static "nowhere" "()V"
            [ B.Invokestatic ("Nowhere", "g", "()V"); B.Return ];
        ];
    ];
  let run name =
    match call_static vm "OrphCall" name "()V" [] with
    | _ -> fail "expected a throw"
    | exception Jvm.Vmstate.Throw e -> (V.class_of e, List.length !asked)
  in
  let ncdfe = "java/lang/NoClassDefFoundError"
  and nsme = "java/lang/NoSuchMethodError" in
  (* The first run fails initializing Orphan's superclass; Orphan stays
     mid-initialization, so later runs fail resolving [g] up a chain
     that still asks the provider for Ghost. *)
  check
    Alcotest.(list (pair string int))
    "orphan" [ (ncdfe, 1); (nsme, 2); (nsme, 3); (nsme, 4) ]
    (List.init 4 (fun _ -> run "orphan"));
  check
    Alcotest.(list (pair string int))
    "nowhere" [ (ncdfe, 5); (ncdfe, 6); (ncdfe, 7) ]
    (List.init 3 (fun _ -> run "nowhere"));
  check Alcotest.bool "only the missing classes were asked for" true
    (List.for_all (fun n -> n = "Ghost" || n = "Nowhere") !asked)

let test_invokestatic_clinit_once () =
  let once =
    B.class_ "Once"
      [
        B.meth ~flags:static "<clinit>" "()V"
          [
            B.Getstatic ("java/lang/System", "out", "Ljava/io/OutputStream;");
            B.Push_str "clinit";
            B.Invokevirtual ("java/io/OutputStream", "println", "(Ljava/lang/String;)V");
            (* a static call back into the class while it initializes *)
            B.Invokestatic ("Once", "f", "()I");
            B.Pop;
            B.Return;
          ];
        B.meth ~flags:static "f" "()I" [ B.Const 5; B.Ireturn ];
      ]
  in
  let caller =
    B.class_ "OnceCall"
      [
        B.meth ~flags:static "run" "()I"
          [
            B.Invokestatic ("Once", "f", "()I");
            B.Invokestatic ("Once", "f", "()I");
            B.Add;
            B.Ireturn;
          ];
      ]
  in
  let vm = vm_with [ once; caller ] in
  for _ = 1 to 3 do
    check Alcotest.int "result" 10 (int_result (call_static vm "OnceCall" "run" "()I" []))
  done;
  check Alcotest.string "<clinit> ran once" "clinit\n" (Jvm.Vmstate.output vm)

(* --- Natives. --- *)

let test_string_natives () =
  let cls =
    B.class_ "Str"
      [
        B.meth ~flags:static "f" "()Ljava/lang/String;"
          [
            B.Push_str "abc";
            B.Push_str "def";
            B.Invokevirtual
              ( "java/lang/String",
                "concat",
                "(Ljava/lang/String;)Ljava/lang/String;" );
            B.Const 1;
            B.Const 5;
            B.Invokevirtual ("java/lang/String", "substring", "(II)Ljava/lang/String;");
            B.Areturn;
          ];
      ]
  in
  let vm = vm_with [ cls ] in
  match call_static vm "Str" "f" "()Ljava/lang/String;" [] with
  | Some (V.Str "bcde") -> ()
  | Some v -> fail ("got " ^ V.to_string v)
  | None -> fail "no result"

let test_properties_and_files () =
  let vm = Jvm.Bootlib.fresh_vm () in
  Hashtbl.replace vm.Jvm.Vmstate.props "user.name" "egs";
  Hashtbl.replace vm.Jvm.Vmstate.files "/etc/passwd" "root:x";
  let cls =
    B.class_ "PF"
      [
        B.meth ~flags:static "prop" "()Ljava/lang/String;"
          [
            B.Push_str "user.name";
            B.Invokestatic
              ( "java/lang/System",
                "getProperty",
                "(Ljava/lang/String;)Ljava/lang/String;" );
            B.Areturn;
          ];
        B.meth ~flags:static "readByte" "()I"
          [
            B.New "java/io/FileInputStream";
            B.Dup;
            B.Push_str "/etc/passwd";
            B.Invokespecial
              ("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V");
            B.Invokevirtual ("java/io/FileInputStream", "read", "()I");
            B.Ireturn;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  (match call_static vm "PF" "prop" "()Ljava/lang/String;" [] with
  | Some (V.Str "egs") -> ()
  | _ -> fail "property");
  match call_static vm "PF" "readByte" "()I" [] with
  | Some (V.Int n) -> check Alcotest.int32 "first byte" (Int32.of_int (Char.code 'r')) n
  | _ -> fail "read"

let test_security_hook_invoked () =
  let vm = Jvm.Bootlib.fresh_vm () in
  let ops = ref [] in
  vm.Jvm.Vmstate.security_hook <- Some (fun op -> ops := op :: !ops);
  Hashtbl.replace vm.Jvm.Vmstate.props "k" "v";
  let cls =
    B.class_ "Sec"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.Push_str "k";
            B.Invokestatic
              ( "java/lang/System",
                "getProperty",
                "(Ljava/lang/String;)Ljava/lang/String;" );
            B.Pop;
            B.Return;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  ignore (call_static vm "Sec" "f" "()V" []);
  check (Alcotest.list Alcotest.string) "hook saw op" [ "property.get" ] !ops

let test_security_hook_denies () =
  let vm = Jvm.Bootlib.fresh_vm () in
  vm.Jvm.Vmstate.security_hook <-
    Some (fun op -> Jvm.Vmstate.throw vm ~cls:Jvm.Vmstate.c_security ~message:op);
  Hashtbl.replace vm.Jvm.Vmstate.files "/secret" "s3cret";
  let cls =
    B.class_ "Sec2"
      [
        B.meth ~flags:static "f" "()V"
          [
            B.New "java/io/FileInputStream";
            B.Dup;
            B.Push_str "/secret";
            B.Invokespecial
              ("java/io/FileInputStream", "<init>", "(Ljava/lang/String;)V");
            B.Pop;
            B.Return;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  expect_throw vm "Sec2" "f" "()V" [] "java/lang/SecurityException"

let test_math_integer_stringbuilder () =
  let vm = Jvm.Bootlib.fresh_vm () in
  let cls =
    B.class_ "Lib"
      [
        B.meth ~flags:static "m" "()I"
          [
            B.Const (-5);
            B.Invokestatic ("java/lang/Math", "abs", "(I)I");
            B.Const 3;
            B.Invokestatic ("java/lang/Math", "max", "(II)I");
            B.Const 2;
            B.Invokestatic ("java/lang/Math", "min", "(II)I");
            B.Ireturn;
          ];
        B.meth ~flags:static "p" "()I"
          [
            B.Push_str " 42 ";
            B.Invokestatic ("java/lang/Integer", "parseInt", "(Ljava/lang/String;)I");
            B.Ireturn;
          ];
        B.meth ~flags:static "bad" "()I"
          [
            B.Push_str "nope";
            B.Invokestatic ("java/lang/Integer", "parseInt", "(Ljava/lang/String;)I");
            B.Ireturn;
          ];
        B.meth ~flags:static "sb" "()Ljava/lang/String;"
          [
            B.New "java/lang/StringBuilder";
            B.Dup;
            B.Invokespecial ("java/lang/StringBuilder", "<init>", "()V");
            B.Push_str "n=";
            B.Invokevirtual
              ( "java/lang/StringBuilder",
                "append",
                "(Ljava/lang/String;)Ljava/lang/StringBuilder;" );
            B.Const 7;
            B.Invokevirtual
              ("java/lang/StringBuilder", "appendInt", "(I)Ljava/lang/StringBuilder;");
            B.Invokevirtual
              ("java/lang/StringBuilder", "toString", "()Ljava/lang/String;");
            B.Areturn;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  (match call_static vm "Lib" "m" "()I" [] with
  | Some (V.Int 2l) -> ()
  | _ -> fail "math chain");
  (match call_static vm "Lib" "p" "()I" [] with
  | Some (V.Int 42l) -> ()
  | _ -> fail "parseInt");
  expect_throw vm "Lib" "bad" "()I" [] "java/lang/NumberFormatException";
  match call_static vm "Lib" "sb" "()Ljava/lang/String;" [] with
  | Some (V.Str "n=7") -> ()
  | Some v -> fail ("stringbuilder: " ^ V.to_string v)
  | None -> fail "stringbuilder: no result"

let test_random_lcg () =
  let vm = Jvm.Bootlib.fresh_vm () in
  let cls =
    B.class_ "R"
      [
        B.meth ~flags:static "f" "(I)I"
          [
            B.New "java/util/Random";
            B.Dup;
            B.Const 12345;
            B.Invokespecial ("java/util/Random", "<init>", "(I)V");
            B.Astore 1;
            B.Aload 1;
            B.Iload 0;
            B.Invokevirtual ("java/util/Random", "next", "(I)I");
            B.Ireturn;
          ];
      ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  for bound = 1 to 20 do
    match call_static vm "R" "f" "(I)I" [ V.Int (Int32.of_int bound) ] with
    | Some (V.Int n) ->
      let n = Int32.to_int n in
      check Alcotest.bool
        (Printf.sprintf "0 <= %d < %d" n bound)
        true
        (n >= 0 && n < bound)
    | _ -> fail "no result"
  done

(* --- Garbage collection. --- *)

let test_gc_reachability () =
  let keeper =
    B.class_ "Keeper"
      ~fields:[ B.field ~flags:static "kept" "Ljava/lang/Object;" ]
      [
        (* allocate two objects; store one in a static, drop the other *)
        B.meth ~flags:static "churn" "()V"
          [
            B.New "java/lang/Object";
            B.Dup;
            B.Invokespecial ("java/lang/Object", "<init>", "()V");
            B.Putstatic ("Keeper", "kept", "Ljava/lang/Object;");
            B.New "java/lang/Object";
            B.Dup;
            B.Invokespecial ("java/lang/Object", "<init>", "()V");
            B.Pop;
            B.Return;
          ];
      ]
  in
  let vm = vm_with [ keeper ] in
  ignore (call_static vm "Keeper" "churn" "()V" []);
  let before = vm.Jvm.Vmstate.heap.Jvm.Heap.objects_allocated in
  check Alcotest.bool "allocated at least 2" true (before >= 2);
  let st = Jvm.Gc.collect vm in
  (* one object survives through the static root, one-plus dies
     (System.out's stream object also survives) *)
  check Alcotest.bool "collected the dropped object" true
    (st.Jvm.Gc.collected_objects >= 1);
  check Alcotest.bool "kept the rooted object" true (st.Jvm.Gc.live_objects >= 2);
  check Alcotest.bool "bytes reclaimed" true (st.Jvm.Gc.collected_bytes > 0);
  (* a second collection finds nothing new *)
  let st2 = Jvm.Gc.collect vm in
  check Alcotest.int "idempotent" 0 st2.Jvm.Gc.collected_objects

let test_gc_traces_through_structures () =
  let vm = vm_with [] in
  let heap = vm.Jvm.Vmstate.heap in
  (* chain: extra root -> ref array -> object -> field -> int array *)
  let iarr = Jvm.Heap.alloc_int_array heap 8 in
  let o =
    Jvm.Heap.alloc_obj heap ~cls:"java/lang/Object"
      ~field_descs:[ ("payload", "[I") ]
  in
  Hashtbl.replace o.V.fields "payload" (V.Arr_int iarr);
  let rarr = Jvm.Heap.alloc_ref_array heap ~elem:"java/lang/Object" 4 in
  rarr.V.refs.(2) <- V.Obj o;
  let garbage = Jvm.Heap.alloc_obj heap ~cls:"java/lang/Object" ~field_descs:[] in
  ignore garbage;
  let st = Jvm.Gc.collect ~extra_roots:[ V.Arr_ref rarr ] vm in
  (* rarr + o + iarr survive; garbage dies *)
  check Alcotest.bool "live arrays >= 2" true (st.Jvm.Gc.live_arrays >= 2);
  check Alcotest.bool "live objects >= 1" true (st.Jvm.Gc.live_objects >= 1);
  check Alcotest.bool "garbage collected" true (st.Jvm.Gc.collected_objects >= 1);
  (* cycles do not trap the tracer *)
  let a = Jvm.Heap.alloc_obj heap ~cls:"java/lang/Object" ~field_descs:[ ("n", "Ljava/lang/Object;") ] in
  let b = Jvm.Heap.alloc_obj heap ~cls:"java/lang/Object" ~field_descs:[ ("n", "Ljava/lang/Object;") ] in
  Hashtbl.replace a.V.fields "n" (V.Obj b);
  Hashtbl.replace b.V.fields "n" (V.Obj a);
  let st = Jvm.Gc.collect ~extra_roots:[ V.Obj a ] vm in
  check Alcotest.bool "cycle survives when rooted" true (st.Jvm.Gc.live_objects >= 2);
  let st = Jvm.Gc.collect vm in
  check Alcotest.bool "cycle dies when unrooted" true
    (st.Jvm.Gc.collected_objects >= 2)

let test_gc_after_workload () =
  (* The database kernel allocates an Account per call; after the run
     none are rooted, so the collector reclaims them all. *)
  let app = Workloads.Apps.build_small Workloads.Apps.instantdb in
  let vm = vm_with app.Workloads.Appgen.classes in
  (match Jvm.Interp.run_main vm app.Workloads.Appgen.entry with
  | Ok () -> ()
  | Error e -> fail (Jvm.Interp.describe_throwable e));
  let allocated = vm.Jvm.Vmstate.heap.Jvm.Heap.objects_allocated in
  check Alcotest.bool "workload allocated objects" true (allocated > 100);
  let st = Jvm.Gc.collect vm in
  check Alcotest.bool "most of the heap was garbage" true
    (st.Jvm.Gc.collected_objects > allocated / 2)

(* --- Faults on unverifiable code. --- *)

let expect_fault vm cls name desc args msg =
  match Jvm.Interp.invoke vm ~cls ~name ~desc args with
  | _ -> fail "expected Runtime_fault"
  | exception Jvm.Vmstate.Runtime_fault m -> check Alcotest.string "fault" msg m

let test_fault_type_confusion () =
  let cls =
    B.class_ "Bad1"
      [
        B.meth ~flags:static "f" "()I"
          [ B.Push_str "not an int"; B.Const 1; B.Add; B.Ireturn ];
      ]
  in
  let vm = vm_with [ cls ] in
  expect_fault vm "Bad1" "f" "()I" [] "expected int, got \"not an int\""

let test_fault_stack_underflow () =
  let cls =
    B.class_ "Bad2" [ B.meth ~flags:static "f" "()I" [ B.Add; B.Ireturn ] ]
  in
  let vm = vm_with [ cls ] in
  expect_fault vm "Bad2" "f" "()I" [] "operand stack underflow"

(* A class whose one static method [f] runs [instrs] as given, with no
   builder estimates: the shape of code the verifier would reject. *)
let raw_class name ?(max_stack = 4) ?(max_locals = 2) desc instrs =
  {
    (B.class_ name []) with
    CF.methods =
      [
        {
          CF.m_name = "f";
          m_desc = desc;
          m_flags = static;
          m_code = Some { CF.max_stack; max_locals; instrs; handlers = [] };
        };
      ];
  }

let test_fault_falls_off_end () =
  let cls = raw_class "Bad3" ~max_stack:1 ~max_locals:1 "()V" [| I.Nop |] in
  let vm = vm_with [ cls ] in
  expect_fault vm "Bad3" "f" "()V" [] "pc 1 outside method Bad3.f"

(* Exact Runtime_fault text for every slot-kind confusion, on the
   stack and in locals, and for stack and local bounds. *)
let test_fault_messages () =
  let cases =
    [
      (* int expected on the stack *)
      ("(Ljava/lang/String;)I", [ V.Str "s" ], 4, 2,
        [| I.Aload 0; I.Iconst 1l; I.Iadd; I.Ireturn |],
        "expected int, got \"s\"");
      ("()I", [], 4, 2, [| I.Jsr 1; I.Iconst 1l; I.Iadd; I.Ireturn |],
        "expected int, got retaddr@1");
      ("()V", [], 4, 2, [| I.Aconst_null; I.Istore 0; I.Return |],
        "expected int, got null");
      (* reference expected on the stack *)
      ("()Ljava/lang/Object;", [], 4, 2, [| I.Iconst 5l; I.Areturn |],
        "expected reference, got 5");
      ("()Ljava/lang/Object;", [], 4, 2, [| I.Jsr 1; I.Areturn |],
        "expected reference, got retaddr@1");
      ("()V", [], 4, 2, [| I.Iconst 3l; I.Astore 0; I.Return |],
        "expected reference, got 3");
      (* the same confusions in locals *)
      ("(Ljava/lang/String;)I", [ V.Str "s" ], 4, 2,
        [| I.Iload 0; I.Ireturn |], "expected int, got \"s\"");
      ("()I", [], 4, 2, [| I.Jsr 1; I.Astore 0; I.Iload 0; I.Ireturn |],
        "expected int, got retaddr@1");
      ("()V", [], 4, 1, [| I.Iinc (0, 1); I.Return |],
        "expected int, got null");
      ("(I)Ljava/lang/Object;", [ V.Int 5l ], 4, 2,
        [| I.Aload 0; I.Areturn |], "expected reference, got 5");
      ("(I)V", [ V.Int 7l ], 4, 2, [| I.Ret 0 |],
        "expected return address, got 7");
      ("(Ljava/lang/String;)V", [ V.Str "s" ], 4, 2, [| I.Ret 0 |],
        "expected return address, got \"s\"");
      (* stack bounds: capacity is max_stack + 1 *)
      ("()V", [], 4, 2, [| I.Pop; I.Return |], "operand stack underflow");
      ("()V", [], 4, 2, [| I.Iconst 1l; I.Swap; I.Return |],
        "operand stack underflow");
      ("()V", [], 1, 2, [| I.Iconst 1l; I.Iconst 2l; I.Iconst 3l; I.Return |],
        "operand stack overflow");
      ("()V", [], 0, 2, [| I.Iconst 1l; I.Dup; I.Return |],
        "operand stack overflow");
      ("()V", [], 1, 2,
        [| I.Iconst 1l; I.Iconst 2l; I.Dup_x1; I.Return |],
        "operand stack overflow");
      (* local bounds *)
      ("()I", [], 4, 1, [| I.Iload 3; I.Ireturn |], "local index 3 out of range");
      ("()I", [], 4, 1, [| I.Iload (-1); I.Ireturn |],
        "local index -1 out of range");
      ("()V", [], 4, 1, [| I.Iconst 1l; I.Istore 1; I.Return |],
        "local index 1 out of range");
      ("()V", [], 4, 1, [| I.Aconst_null; I.Astore 2; I.Return |],
        "local index 2 out of range");
      ("()V", [], 4, 1, [| I.Iinc (1, 1); I.Return |],
        "local index 1 out of range");
      ("()V", [], 4, 1, [| I.Ret 4 |], "local index 4 out of range");
    ]
  in
  List.iteri
    (fun i (desc, args, max_stack, max_locals, instrs, msg) ->
      let name = Printf.sprintf "Fault%d" i in
      let vm = vm_with [ raw_class name ~max_stack ~max_locals desc instrs ] in
      expect_fault vm name "f" desc args msg)
    cases

let test_budget () =
  let vm = Jvm.Bootlib.fresh_vm ~budget:1000L () in
  let cls =
    B.class_ "Spin"
      [ B.meth ~flags:static "f" "()V" [ B.Label "l"; B.Goto "l" ] ]
  in
  Jvm.Classreg.register vm.Jvm.Vmstate.reg cls;
  (match call_static vm "Spin" "f" "()V" [] with
  | _ -> fail "expected budget exhaustion"
  | exception Jvm.Vmstate.Budget_exhausted -> ());
  check Alcotest.int "fires on the first instruction past the budget" 1001
    vm.Jvm.Vmstate.instr_count;
  (* A budget of exactly the instructions a call executes suffices; one
     less stops it on its last instruction. *)
  let gcd budget =
    let vm = Jvm.Bootlib.fresh_vm ?budget () in
    Jvm.Classreg.register vm.Jvm.Vmstate.reg gcd_cls;
    let r =
      match call_static vm "Gcd" "gcd" "(II)I" [ V.Int 252l; V.Int 105l ] with
      | Some (V.Int n) -> Some n
      | _ -> fail "no result"
      | exception Jvm.Vmstate.Budget_exhausted -> None
    in
    (r, vm.Jvm.Vmstate.instr_count)
  in
  let r, used = gcd None in
  check Alcotest.(option int32) "unbounded" (Some 21l) r;
  check Alcotest.int "instructions executed" 31 used;
  let r, n = gcd (Some (Int64.of_int used)) in
  check Alcotest.(option int32) "exact budget" (Some 21l) r;
  check Alcotest.int "exact budget count" used n;
  let r, n = gcd (Some (Int64.of_int (used - 1))) in
  check Alcotest.(option int32) "budget one short" None r;
  check Alcotest.int "stops when the count first exceeds" used n

let test_instr_count_accumulates () =
  let vm = vm_with [ gcd_cls ] in
  let before = vm.Jvm.Vmstate.instr_count in
  ignore (call_static vm "Gcd" "gcd" "(II)I" [ V.Int 252l; V.Int 105l ]);
  check Alcotest.bool "instructions counted" true
    (vm.Jvm.Vmstate.instr_count > before)

let () =
  Alcotest.run "jvm"
    [
      ( "basics",
        [
          Alcotest.test_case "hello world" `Quick test_hello;
          Alcotest.test_case "gcd loop" `Quick test_gcd;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic_ops;
          Alcotest.test_case "int32 wraparound" `Quick test_int32_wraparound;
          Alcotest.test_case "int32 extremes" `Quick test_int32_extremes;
          QCheck_alcotest.to_alcotest prop_int32_ops;
          Alcotest.test_case "tableswitch" `Quick test_tableswitch;
          Alcotest.test_case "jsr/ret" `Quick test_jsr_ret;
        ] );
      ( "objects",
        [
          Alcotest.test_case "virtual dispatch" `Quick test_virtual_dispatch;
          Alcotest.test_case "instance fields" `Quick test_instance_fields;
          Alcotest.test_case "clinit once" `Quick test_clinit_runs_once;
          Alcotest.test_case "inherited fields" `Quick
            test_inherited_fields_visible;
          Alcotest.test_case "checkcast/instanceof" `Quick
            test_checkcast_instanceof;
          Alcotest.test_case "interface dispatch" `Quick
            test_interface_dispatch;
        ] );
      ( "arrays",
        [
          Alcotest.test_case "alloc/fill/sum" `Quick test_arrays;
          Alcotest.test_case "bounds" `Quick test_array_bounds;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "throw/catch" `Quick test_throw_catch;
          Alcotest.test_case "catch subtype only" `Quick
            test_catch_subtype_only;
          Alcotest.test_case "unwinds frames" `Quick
            test_exception_unwinds_frames;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_uncaught;
          Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
        ] );
      ( "loading",
        [
          Alcotest.test_case "provider" `Quick test_provider_loading;
          Alcotest.test_case "missing class" `Quick test_missing_class;
          Alcotest.test_case "on_load rejects" `Quick test_on_load_hook_rejects;
        ] );
      ( "cp cache",
        [
          Alcotest.test_case "virtual site follows lazy subclass" `Quick
            test_site_follows_lazy_subclass;
          Alcotest.test_case "sites follow class replacement" `Quick
            test_site_follows_replacement;
          Alcotest.test_case "provider misses replay" `Quick
            test_site_replays_provider_misses;
          Alcotest.test_case "invokestatic runs clinit once" `Quick
            test_invokestatic_clinit_once;
        ] );
      ( "natives",
        [
          Alcotest.test_case "string ops" `Quick test_string_natives;
          Alcotest.test_case "properties and files" `Quick
            test_properties_and_files;
          Alcotest.test_case "security hook invoked" `Quick
            test_security_hook_invoked;
          Alcotest.test_case "security hook denies" `Quick
            test_security_hook_denies;
          Alcotest.test_case "random lcg" `Quick test_random_lcg;
          Alcotest.test_case "math/integer/stringbuilder" `Quick
            test_math_integer_stringbuilder;
        ] );
      ( "gc",
        [
          Alcotest.test_case "reachability" `Quick test_gc_reachability;
          Alcotest.test_case "traces structures and cycles" `Quick
            test_gc_traces_through_structures;
          Alcotest.test_case "reclaims workload garbage" `Quick
            test_gc_after_workload;
        ] );
      ( "faults",
        [
          Alcotest.test_case "type confusion" `Quick test_fault_type_confusion;
          Alcotest.test_case "stack underflow" `Quick
            test_fault_stack_underflow;
          Alcotest.test_case "falls off end" `Quick test_fault_falls_off_end;
          Alcotest.test_case "fault messages" `Quick test_fault_messages;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "instruction counting" `Quick
            test_instr_count_accumulates;
        ] );
    ]
