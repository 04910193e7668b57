(* The bytecode interpreter.

   Deliberately trusting: operand and local slots are checked at use
   with Runtime_fault, which is exactly the class of crash the verifier
   exists to rule out. Runs of verified code never fault; runs of
   unverified code may. Exception objects unwind via Vmstate.Throw and
   are dispatched against the exception tables of enclosing frames. *)

module I = Bytecode.Instr
module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module D = Bytecode.Descriptor

let max_call_depth = 2048

(* --- Typed frames. ---

   One frame per call holds the locals, then the operand stack, in three
   parallel arrays: [ints] carries int payloads (sign-extended to 32
   bits) and return addresses, [refs] carries references, and [tags]
   says which of the two a slot holds. An int push is a plain store, so
   the straight-line int path neither allocates nor goes through the
   write barrier. Ints are boxed back into [Value.t] only where they
   leave the frame: calls, returns, fields, statics and arrays. A
   [refs] entry may hold a stale reference under an int tag; the tag
   decides. *)

type frame = {
  ints : int array;
  refs : Value.t array;
  tags : Bytes.t;
  nlocals : int; (* slots [0, nlocals) are locals, the stack follows *)
  limit : int; (* one past the last stack slot *)
  mutable sp : int; (* next free stack slot *)
}

let t_int = '\000'
let t_ref = '\001'
let t_ret = '\002'

(* Wrap to 32 bits, as Int32 arithmetic does. *)
let[@inline] sext32 n = (n lsl 31) asr 31

(* The slot as a [Value.t]; boxes ints, so fault paths only. *)
let slot_value fr i =
  let c = Bytes.unsafe_get fr.tags i in
  if c = t_int then Value.Int (Int32.of_int (Array.unsafe_get fr.ints i))
  else if c = t_ret then Value.Retaddr (Array.unsafe_get fr.ints i)
  else Array.unsafe_get fr.refs i

(* --- Slot accessors: the unsafe edges verification protects. --- *)

let expected what fr i =
  Vmstate.fault "expected %s, got %s" what (Value.to_string (slot_value fr i))

let[@inline] check_tag fr i tag what =
  if Bytes.unsafe_get fr.tags i <> tag then expected what fr i

let as_reference v =
  if Value.is_reference v then v
  else Vmstate.fault "expected reference, got %s" (Value.to_string v)

let[@inline] check_local fr n =
  if n < 0 || n >= fr.nlocals then
    Vmstate.fault "local index %d out of range" n

let[@inline] push_slot fr =
  let sp = fr.sp in
  if sp >= fr.limit then Vmstate.fault "operand stack overflow";
  fr.sp <- sp + 1;
  sp

let[@inline] push_int fr n =
  let sp = push_slot fr in
  Array.unsafe_set fr.ints sp n;
  Bytes.unsafe_set fr.tags sp t_int

let push_retaddr fr pc =
  let sp = push_slot fr in
  Array.unsafe_set fr.ints sp pc;
  Bytes.unsafe_set fr.tags sp t_ret

let push_ref fr v =
  let sp = push_slot fr in
  Array.unsafe_set fr.refs sp v;
  Bytes.unsafe_set fr.tags sp t_ref

let push_value fr = function
  | Value.Int n -> push_int fr (Int32.to_int n)
  | Value.Retaddr pc -> push_retaddr fr pc
  | v -> push_ref fr v

let push_result fr = function Some v -> push_value fr v | None -> ()

(* Pop, returning the index of the slot that was on top. *)
let[@inline] pop_slot fr =
  let sp = fr.sp - 1 in
  if sp < fr.nlocals then Vmstate.fault "operand stack underflow";
  fr.sp <- sp;
  sp

let[@inline] pop_int fr =
  let i = pop_slot fr in
  check_tag fr i t_int "int";
  Array.unsafe_get fr.ints i

let pop_ref fr =
  let i = pop_slot fr in
  check_tag fr i t_ref "reference";
  Array.unsafe_get fr.refs i

let pop_value fr = slot_value fr (pop_slot fr)

(* Pop [n] call arguments, last argument on top of stack. *)
let rec pop_args fr acc n =
  if n = 0 then acc else pop_args fr (pop_value fr :: acc) (n - 1)

let copy_slot fr src dst =
  let c = Bytes.unsafe_get fr.tags src in
  Bytes.unsafe_set fr.tags dst c;
  if c = t_ref then Array.unsafe_set fr.refs dst (Array.unsafe_get fr.refs src)
  else Array.unsafe_set fr.ints dst (Array.unsafe_get fr.ints src)

let swap_slots fr i j =
  let c = Bytes.unsafe_get fr.tags i in
  let n = Array.unsafe_get fr.ints i in
  let r = Array.unsafe_get fr.refs i in
  copy_slot fr j i;
  Bytes.unsafe_set fr.tags j c;
  Array.unsafe_set fr.ints j n;
  Array.unsafe_set fr.refs j r

let rec set_args fr i = function
  | [] -> ()
  | a :: rest ->
    (match a with
    | Value.Int n ->
      fr.ints.(i) <- Int32.to_int n;
      Bytes.set fr.tags i t_int
    | Value.Retaddr pc ->
      fr.ints.(i) <- pc;
      Bytes.set fr.tags i t_ret
    | v -> fr.refs.(i) <- v);
    set_args fr (i + 1) rest

let new_frame (code : CF.code) args =
  let nargs = List.length args in
  let nlocals = max code.CF.max_locals nargs in
  (* a negative max_stack fails as the old separate stack array did *)
  if code.CF.max_stack + 1 < 0 then invalid_arg "Array.make";
  let limit = nlocals + code.CF.max_stack + 1 in
  let fr =
    {
      ints = Array.make limit 0;
      refs = Array.make limit Value.Null;
      tags = Bytes.make limit t_ref;
      nlocals;
      limit;
      sp = nlocals;
    }
  in
  set_args fr 0 args;
  fr

(* --- Constant-pool access. --- *)

let fieldref pool idx =
  try CP.get_fieldref pool idx
  with CP.Invalid_index _ | CP.Wrong_kind _ ->
    Vmstate.fault "bad fieldref index %d" idx

let class_at pool idx =
  try CP.get_class_name pool idx
  with CP.Invalid_index _ | CP.Wrong_kind _ ->
    Vmstate.fault "bad class index %d" idx

(* The cached site of the method ref at pool index [idx], parsed on
   first use. *)
let method_site (l : Classreg.loaded) idx =
  let sites = l.Classreg.sites in
  match
    if idx >= 0 && idx < Array.length sites then Array.unsafe_get sites idx
    else None
  with
  | Some s -> s
  | None ->
    let mr =
      try CP.get_methodref l.Classreg.cf.CF.pool idx
      with CP.Invalid_index _ | CP.Wrong_kind _ ->
        Vmstate.fault "bad methodref index %d" idx
    in
    let s = Classreg.new_site mr in
    sites.(idx) <- Some s;
    s

let site_nargs (s : Classreg.site) =
  if s.Classreg.nargs < 0 then
    s.Classreg.nargs <-
      List.length (D.method_sig_of_string s.Classreg.mref.CP.ref_desc).D.params;
  s.Classreg.nargs

let non_null vm = function
  | Value.Null -> Vmstate.throw vm ~cls:Vmstate.c_npe ~message:""
  | v -> v

let no_such_method vm cls (mr : CP.member_ref) =
  Vmstate.throw vm ~cls:"java/lang/NoSuchMethodError"
    ~message:(Printf.sprintf "%s.%s:%s" cls mr.CP.ref_name mr.CP.ref_desc)

let[@inline] icmp c (a : int) b =
  match c with
  | I.Eq -> a = b
  | I.Ne -> a <> b
  | I.Lt -> a < b
  | I.Ge -> a >= b
  | I.Gt -> a > b
  | I.Le -> a <= b

(* --- Class initialization. --- *)

let rec ensure_initialized vm name =
  let l =
    try Classreg.lookup vm.Vmstate.reg name with
    | Classreg.Class_not_found c ->
      Vmstate.throw vm ~cls:Vmstate.c_ncdfe ~message:c
    | Classreg.Load_rejected { cls; reason } ->
      Vmstate.throw vm ~cls:Vmstate.c_verify
        ~message:(Printf.sprintf "%s: %s" cls reason)
  in
  match l.Classreg.init_state with
  | Classreg.Initialized | Classreg.Initializing -> ()
  | Classreg.Not_initialized ->
    l.Classreg.init_state <- Classreg.Initializing;
    (match l.Classreg.cf.CF.super with
    | None -> ()
    | Some s -> ensure_initialized vm s);
    (match CF.find_method l.Classreg.cf "<clinit>" "()V" with
    | None -> ()
    | Some m -> ignore (invoke_resolved vm l m []));
    l.Classreg.init_state <- Classreg.Initialized

(* --- Method invocation. --- *)

and invoke vm ~cls ~name ~desc args =
  match Classreg.resolve_method vm.Vmstate.reg cls name desc with
  | None ->
    Vmstate.throw vm ~cls:"java/lang/NoSuchMethodError"
      ~message:(Printf.sprintf "%s.%s:%s" cls name desc)
  | Some (l, m) -> invoke_resolved vm l m args

(* Invoke through a site's cached resolution from [cls], resolving and
   filling it on a miss. *)
and invoke_site vm (s : Classreg.site) cls args =
  let reg = vm.Vmstate.reg in
  match s.Classreg.target with
  | Some (l, m) when s.Classreg.gen = reg.Classreg.generation ->
    invoke_resolved vm l m args
  | _ -> (
    let mr = s.Classreg.mref in
    match
      Classreg.resolve_method_memo reg cls mr.CP.ref_name mr.CP.ref_desc
    with
    | None, _ -> no_such_method vm cls mr
    | (Some (l, m) as r), memo ->
      if memo then begin
        Classreg.sync reg s;
        s.Classreg.target <- r
      end;
      invoke_resolved vm l m args)

(* Dynamic dispatch starts at the receiver's class; falls back to the
   static class for strings/arrays resolved through their surrogate
   classes. The site caches one receiver class. *)
and invoke_virtual vm (s : Classreg.site) recv args =
  let reg = vm.Vmstate.reg in
  let dyn = Value.class_of recv in
  match s.Classreg.recv_target with
  | Some (l, m)
    when s.Classreg.gen = reg.Classreg.generation
         && (s.Classreg.recv_cls == dyn || String.equal s.Classreg.recv_cls dyn)
    ->
    invoke_resolved vm l m (recv :: args)
  | _ -> (
    let mr = s.Classreg.mref in
    let start =
      if Classreg.is_loaded reg dyn then dyn else mr.CP.ref_class
    in
    match
      Classreg.resolve_method_memo reg start mr.CP.ref_name mr.CP.ref_desc
    with
    | None, _ -> no_such_method vm start mr
    | (Some (l, m) as r), memo ->
      if memo then begin
        Classreg.sync reg s;
        s.Classreg.recv_cls <- dyn;
        s.Classreg.recv_target <- r
      end;
      invoke_resolved vm l m (recv :: args))

and invoke_resolved vm l (m : CF.meth) args =
  vm.Vmstate.invocations <- vm.Vmstate.invocations + 1;
  vm.Vmstate.call_depth <- vm.Vmstate.call_depth + 1;
  if vm.Vmstate.call_depth > vm.Vmstate.max_call_depth then
    vm.Vmstate.max_call_depth <- vm.Vmstate.call_depth;
  (* Manual unwind instead of [Fun.protect]: this runs once per method
     invocation, and the depth decrement cannot itself raise. *)
  match enter vm l m args with
  | v ->
    vm.Vmstate.call_depth <- vm.Vmstate.call_depth - 1;
    v
  | exception e ->
    vm.Vmstate.call_depth <- vm.Vmstate.call_depth - 1;
    raise e

and enter vm l (m : CF.meth) args =
  let cls = l.Classreg.cf.CF.name in
  if vm.Vmstate.call_depth > max_call_depth then
    Vmstate.throw vm ~cls:Vmstate.c_stack_overflow
      ~message:(cls ^ "." ^ m.CF.m_name);
  match m.CF.m_code with
  | Some code -> exec vm l m code (new_frame code args) 0
  | None -> (
    match Vmstate.find_native vm ~cls ~name:m.CF.m_name ~desc:m.CF.m_desc with
    | Some impl -> impl vm args
    | None ->
      Vmstate.fault "no native implementation for %s.%s:%s" cls m.CF.m_name
        m.CF.m_desc)

and statics_of vm cls_name field =
  match Classreg.resolve_field vm.Vmstate.reg cls_name field with
  | Some (dl, f) when CF.has_flag f.CF.f_flags CF.Static ->
    ensure_initialized vm dl.Classreg.cf.CF.name;
    dl.Classreg.statics
  | Some _ | None ->
    Vmstate.throw vm ~cls:"java/lang/NoSuchFieldError"
      ~message:(cls_name ^ "." ^ field)

(* Run [code] in frame [fr] from [pc0]. The exception handler wraps the
   whole loop rather than each instruction, so the straight-line path
   allocates nothing for control flow. On a [Throw], [pc] still names
   the faulting instruction (it only advances after a complete
   dispatch), and a matching handler re-enters by tail call. *)
and exec vm l (m : CF.meth) (code : CF.code) fr pc0 =
  let pool = l.Classreg.cf.CF.pool in
  let instrs = code.CF.instrs in
  let ncode = Array.length instrs in
  let pc = ref pc0 in
  let result = ref None in
  let running = ref true in
  match
    while !running do
      let cur = !pc in
      if cur < 0 || cur >= ncode then
        Vmstate.fault "pc %d outside method %s.%s" cur l.Classreg.cf.CF.name
          m.CF.m_name;
      vm.Vmstate.instr_count <- vm.Vmstate.instr_count + 1;
      if vm.Vmstate.instr_count > vm.Vmstate.budget then
        raise Vmstate.Budget_exhausted;
      pc :=
        match Array.unsafe_get instrs cur with
        | I.Nop -> cur + 1
        | I.Iconst n ->
          push_int fr (Int32.to_int n);
          cur + 1
        | I.Ldc_str idx ->
          (match CP.get_string pool idx with
          | s -> push_ref fr (Value.Str s)
          | exception (CP.Invalid_index _ | CP.Wrong_kind _) ->
            Vmstate.fault "bad string index %d" idx);
          cur + 1
        | I.Aconst_null ->
          push_ref fr Value.Null;
          cur + 1
        | I.Iload n ->
          check_local fr n;
          check_tag fr n t_int "int";
          push_int fr (Array.unsafe_get fr.ints n);
          cur + 1
        | I.Istore n ->
          let v = pop_int fr in
          check_local fr n;
          Array.unsafe_set fr.ints n v;
          Bytes.unsafe_set fr.tags n t_int;
          cur + 1
        | I.Aload n ->
          check_local fr n;
          check_tag fr n t_ref "reference";
          push_ref fr (Array.unsafe_get fr.refs n);
          cur + 1
        | I.Astore n ->
          (* astore also accepts return addresses (jsr/ret idiom) *)
          let i = pop_slot fr in
          if Bytes.unsafe_get fr.tags i = t_int then expected "reference" fr i;
          check_local fr n;
          copy_slot fr i n;
          cur + 1
        | I.Iinc (n, d) ->
          check_local fr n;
          check_tag fr n t_int "int";
          Array.unsafe_set fr.ints n (sext32 (Array.unsafe_get fr.ints n + d));
          cur + 1
        | I.Iadd ->
          let b = pop_int fr in
          let a = pop_int fr in
          push_int fr (sext32 (a + b));
          cur + 1
        | I.Isub ->
          let b = pop_int fr in
          let a = pop_int fr in
          push_int fr (sext32 (a - b));
          cur + 1
        | I.Imul ->
          let b = pop_int fr in
          let a = pop_int fr in
          push_int fr (sext32 (a * b));
          cur + 1
        | I.Idiv ->
          let b = pop_int fr in
          let a = pop_int fr in
          if b = 0 then
            Vmstate.throw vm ~cls:Vmstate.c_arith ~message:"/ by zero";
          push_int fr (sext32 (a / b));
          cur + 1
        | I.Irem ->
          let b = pop_int fr in
          let a = pop_int fr in
          if b = 0 then
            Vmstate.throw vm ~cls:Vmstate.c_arith ~message:"% by zero";
          push_int fr (a mod b);
          cur + 1
        | I.Ineg ->
          push_int fr (sext32 (- pop_int fr));
          cur + 1
        | I.Ishl ->
          let b = pop_int fr in
          let a = pop_int fr in
          push_int fr (sext32 (a lsl (b land 31)));
          cur + 1
        | I.Ishr ->
          let b = pop_int fr in
          let a = pop_int fr in
          push_int fr (a asr (b land 31));
          cur + 1
        | I.Iand ->
          let b = pop_int fr in
          let a = pop_int fr in
          push_int fr (a land b);
          cur + 1
        | I.Ior ->
          let b = pop_int fr in
          let a = pop_int fr in
          push_int fr (a lor b);
          cur + 1
        | I.Ixor ->
          let b = pop_int fr in
          let a = pop_int fr in
          push_int fr (a lxor b);
          cur + 1
        | I.Dup ->
          let i = pop_slot fr in
          fr.sp <- i + 1;
          let top = push_slot fr in
          copy_slot fr i top;
          cur + 1
        | I.Dup_x1 ->
          (* ..., b, a -> ..., a, b, a *)
          let ia = pop_slot fr in
          let ib = pop_slot fr in
          let top = ia + 1 in
          if top >= fr.limit then Vmstate.fault "operand stack overflow";
          fr.sp <- top + 1;
          copy_slot fr ia top;
          copy_slot fr ib ia;
          copy_slot fr top ib;
          cur + 1
        | I.Pop ->
          ignore (pop_slot fr);
          cur + 1
        | I.Swap ->
          let ia = pop_slot fr in
          let ib = pop_slot fr in
          fr.sp <- ia + 1;
          swap_slots fr ia ib;
          cur + 1
        | I.Goto t -> t
        | I.If_icmp (c, t) ->
          let b = pop_int fr in
          let a = pop_int fr in
          if icmp c a b then t else cur + 1
        | I.If_z (c, t) ->
          let a = pop_int fr in
          if icmp c a 0 then t else cur + 1
        | I.If_acmp (want_eq, t) ->
          let b = pop_value fr in
          let a = pop_value fr in
          if Value.ref_equal a b = want_eq then t else cur + 1
        | I.If_null (want_null, t) ->
          let i = pop_slot fr in
          let is_null =
            Bytes.unsafe_get fr.tags i = t_ref
            && (match Array.unsafe_get fr.refs i with
               | Value.Null -> true
               | _ -> false)
          in
          if is_null = want_null then t else cur + 1
        | I.Jsr t ->
          push_retaddr fr (cur + 1);
          t
        | I.Ret n ->
          check_local fr n;
          check_tag fr n t_ret "return address";
          Array.unsafe_get fr.ints n
        | I.Tableswitch { low; targets; default } ->
          let k = sext32 (pop_int fr - Int32.to_int low) in
          if k >= 0 && k < Array.length targets then targets.(k) else default
        | I.Ireturn ->
          result := Some (Value.Int (Int32.of_int (pop_int fr)));
          running := false;
          cur
        | I.Areturn ->
          result := Some (pop_ref fr);
          running := false;
          cur
        | I.Return ->
          result := None;
          running := false;
          cur
        | I.Getstatic idx ->
          let f = fieldref pool idx in
          let statics = statics_of vm f.CP.ref_class f.CP.ref_name in
          (match Hashtbl.find_opt statics f.CP.ref_name with
          | Some v -> push_value fr v
          | None -> Vmstate.fault "uninitialized static %s" f.CP.ref_name);
          cur + 1
        | I.Putstatic idx ->
          let f = fieldref pool idx in
          let statics = statics_of vm f.CP.ref_class f.CP.ref_name in
          Hashtbl.replace statics f.CP.ref_name (pop_value fr);
          cur + 1
        | I.Getfield idx ->
          let f = fieldref pool idx in
          (match non_null vm (pop_value fr) with
          | Value.Obj o -> (
            match Hashtbl.find_opt o.Value.fields f.CP.ref_name with
            | Some v -> push_value fr v
            | None ->
              Vmstate.throw vm ~cls:"java/lang/NoSuchFieldError"
                ~message:(f.CP.ref_class ^ "." ^ f.CP.ref_name))
          | v -> Vmstate.fault "getfield on %s" (Value.to_string v));
          cur + 1
        | I.Putfield idx ->
          let f = fieldref pool idx in
          let v = pop_value fr in
          (match non_null vm (pop_value fr) with
          | Value.Obj o -> Hashtbl.replace o.Value.fields f.CP.ref_name v
          | recv -> Vmstate.fault "putfield on %s" (Value.to_string recv));
          cur + 1
        | I.Invokevirtual idx | I.Invokeinterface idx ->
          let s = method_site l idx in
          let args = pop_args fr [] (site_nargs s) in
          let recv = non_null vm (pop_value fr) in
          push_result fr (invoke_virtual vm s recv args);
          cur + 1
        | I.Invokestatic idx ->
          let s = method_site l idx in
          let reg = vm.Vmstate.reg in
          let cls = s.Classreg.mref.CP.ref_class in
          (match s.Classreg.init_cls with
          | Some c
            when s.Classreg.gen = reg.Classreg.generation
                 && c.Classreg.init_state <> Classreg.Not_initialized ->
            ()
          | _ ->
            ensure_initialized vm cls;
            Classreg.sync reg s;
            s.Classreg.init_cls <- Classreg.find_loaded reg cls);
          let args = pop_args fr [] (site_nargs s) in
          push_result fr (invoke_site vm s cls args);
          cur + 1
        | I.Invokespecial idx ->
          (* Non-virtual: constructors, private and super calls resolve
             against the named class. *)
          let s = method_site l idx in
          let args = pop_args fr [] (site_nargs s) in
          let recv = non_null vm (pop_value fr) in
          push_result fr
            (invoke_site vm s s.Classreg.mref.CP.ref_class (recv :: args));
          cur + 1
        | I.New idx ->
          let cname = class_at pool idx in
          ensure_initialized vm cname;
          let field_descs = Classreg.all_instance_fields vm.Vmstate.reg cname in
          push_ref fr
            (Value.Obj (Heap.alloc_obj vm.Vmstate.heap ~cls:cname ~field_descs));
          cur + 1
        | I.Newarray ->
          let len = pop_int fr in
          if len < 0 then
            Vmstate.throw vm ~cls:Vmstate.c_nase ~message:(string_of_int len);
          push_ref fr (Value.Arr_int (Heap.alloc_int_array vm.Vmstate.heap len));
          cur + 1
        | I.Anewarray idx ->
          let elem = class_at pool idx in
          let len = pop_int fr in
          if len < 0 then
            Vmstate.throw vm ~cls:Vmstate.c_nase ~message:(string_of_int len);
          push_ref fr
            (Value.Arr_ref (Heap.alloc_ref_array vm.Vmstate.heap ~elem len));
          cur + 1
        | I.Arraylength ->
          (match non_null vm (pop_value fr) with
          | Value.Arr_int a -> push_int fr (Array.length a.Value.ints)
          | Value.Arr_ref a -> push_int fr (Array.length a.Value.refs)
          | v -> Vmstate.fault "arraylength on %s" (Value.to_string v));
          cur + 1
        | I.Iaload ->
          let i = pop_int fr in
          (match non_null vm (pop_value fr) with
          | Value.Arr_int a ->
            if i < 0 || i >= Array.length a.Value.ints then
              Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
            else push_int fr (Int32.to_int a.Value.ints.(i))
          | v -> Vmstate.fault "iaload on %s" (Value.to_string v));
          cur + 1
        | I.Iastore ->
          let v = pop_int fr in
          let i = pop_int fr in
          (match non_null vm (pop_value fr) with
          | Value.Arr_int a ->
            if i < 0 || i >= Array.length a.Value.ints then
              Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
            else a.Value.ints.(i) <- Int32.of_int v
          | arr -> Vmstate.fault "iastore on %s" (Value.to_string arr));
          cur + 1
        | I.Aaload ->
          let i = pop_int fr in
          (match non_null vm (pop_value fr) with
          | Value.Arr_ref a ->
            if i < 0 || i >= Array.length a.Value.refs then
              Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
            else push_value fr a.Value.refs.(i)
          | v -> Vmstate.fault "aaload on %s" (Value.to_string v));
          cur + 1
        | I.Aastore ->
          let v = pop_value fr in
          let i = pop_int fr in
          (match non_null vm (pop_value fr) with
          | Value.Arr_ref a ->
            if i < 0 || i >= Array.length a.Value.refs then
              Vmstate.throw vm ~cls:Vmstate.c_aioobe ~message:(string_of_int i)
            else a.Value.refs.(i) <- as_reference v
          | arr -> Vmstate.fault "aastore on %s" (Value.to_string arr));
          cur + 1
        | I.Athrow -> (
          match non_null vm (pop_value fr) with
          | Value.Obj _ as v -> raise (Vmstate.Throw v)
          | v -> Vmstate.fault "athrow of %s" (Value.to_string v))
        | I.Checkcast idx ->
          let target = class_at pool idx in
          (match pop_value fr with
          | Value.Null -> push_ref fr Value.Null
          | v ->
            if
              Classreg.is_subclass vm.Vmstate.reg ~sub:(Value.class_of v)
                ~super:target
            then push_value fr v
            else
              Vmstate.throw vm ~cls:Vmstate.c_cce
                ~message:(Value.class_of v ^ " -> " ^ target));
          cur + 1
        | I.Instanceof idx ->
          let target = class_at pool idx in
          (match pop_value fr with
          | Value.Null -> push_int fr 0
          | v ->
            let yes =
              Classreg.is_subclass vm.Vmstate.reg ~sub:(Value.class_of v)
                ~super:target
            in
            push_int fr (if yes then 1 else 0));
          cur + 1
        | I.Monitorenter | I.Monitorexit ->
          ignore (non_null vm (pop_value fr));
          cur + 1
    done
  with
  | () -> !result
  | exception Vmstate.Throw exn -> (
    (* Dispatch against this frame's exception table; first match
       wins, otherwise unwind to the caller. *)
    let cur = !pc in
    let cls_of_exn = Value.class_of exn in
    let handler =
      List.find_opt
        (fun h ->
          cur >= h.CF.h_start && cur < h.CF.h_end
          &&
          match h.CF.h_catch with
          | None -> true
          | Some c ->
            Classreg.is_subclass vm.Vmstate.reg ~sub:cls_of_exn ~super:c)
        code.CF.handlers
    in
    match handler with
    | Some h ->
      fr.sp <- fr.nlocals;
      push_ref fr exn;
      exec vm l m code fr h.CF.h_target
    | None -> raise (Vmstate.Throw exn))

(* --- Entry points. --- *)

let run_main vm cls_name =
  match
    ensure_initialized vm cls_name;
    invoke vm ~cls:cls_name ~name:"main" ~desc:"()V" []
  with
  | _ -> Ok ()
  | exception Vmstate.Throw v -> Error v

let describe_throwable v =
  match v with
  | Value.Obj o ->
    let msg =
      match Hashtbl.find_opt o.Value.fields "message" with
      | Some (Value.Str s) -> s
      | Some _ | None -> ""
    in
    Printf.sprintf "%s: %s" o.Value.cls msg
  | v -> Value.to_string v
