(* Verification phases 1 and 2.

   Phase 1 checks that the class file is internally consistent:
   constant-pool entries have the right shapes, descriptors parse,
   members are not duplicated, access flags make sense.

   Phase 2 checks instruction integrity per method: branch targets and
   local indices in range, constant-pool operands of the right kind,
   execution cannot fall off the end of the code, exception tables
   well-formed, declared stack/locals bounds sane. *)

module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module I = Bytecode.Instr
module D = Bytecode.Descriptor

let max_code_length = 65535
let max_locals_limit = 65535
let max_stack_limit = 65535

type 'a collector = { mutable errors : Verror.t list; mutable checks : int }

let err c ?meth ?idx ~cls fmt =
  Format.kasprintf
    (fun msg -> c.errors <- Verror.make ?meth ?idx ~cls msg :: c.errors)
    fmt

let checked c = c.checks <- c.checks + 1

(* --- Phase 1: class-file consistency. --- *)

let check_pool c ~cls (pool : CP.t) =
  let n = CP.size pool in
  let utf8_ok i = i > 0 && i < n && (match pool.(i) with CP.Utf8 _ -> true | _ -> false) in
  let class_ok i =
    i > 0 && i < n && (match pool.(i) with CP.Class u -> utf8_ok u | _ -> false)
  in
  let nat_ok i ~want_method =
    i > 0 && i < n
    &&
    match pool.(i) with
    | CP.Name_and_type (nm, dsc) ->
      utf8_ok nm && utf8_ok dsc
      &&
      let d = CP.get_utf8 pool dsc in
      if want_method then D.valid_method_descriptor d
      else D.valid_field_descriptor d
    | _ -> false
  in
  for i = 1 to n - 1 do
    checked c;
    match pool.(i) with
    | CP.Utf8 _ | CP.Int_const _ -> ()
    | CP.Class u -> if not (utf8_ok u) then err c ~cls "pool %d: Class -> bad Utf8 %d" i u
    | CP.Str u -> if not (utf8_ok u) then err c ~cls "pool %d: Str -> bad Utf8 %d" i u
    | CP.Fieldref (cl, nt) ->
      if not (class_ok cl) then err c ~cls "pool %d: Fieldref -> bad Class %d" i cl;
      if not (nat_ok nt ~want_method:false) then
        err c ~cls "pool %d: Fieldref -> bad NameAndType %d" i nt
    | CP.Methodref (cl, nt) ->
      if not (class_ok cl) then err c ~cls "pool %d: Methodref -> bad Class %d" i cl;
      if not (nat_ok nt ~want_method:true) then
        err c ~cls "pool %d: Methodref -> bad NameAndType %d" i nt
    | CP.Name_and_type (nm, dsc) ->
      if not (utf8_ok nm && utf8_ok dsc) then
        err c ~cls "pool %d: NameAndType -> bad Utf8" i
  done

let check_members c (cf : CF.t) =
  let cls = cf.CF.name in
  let seen_fields = Hashtbl.create 16 in
  List.iter
    (fun f ->
      checked c;
      if not (D.valid_field_descriptor f.CF.f_desc) then
        err c ~cls "field %s: bad descriptor %S" f.CF.f_name f.CF.f_desc;
      if Hashtbl.mem seen_fields f.CF.f_name then
        err c ~cls "duplicate field %s" f.CF.f_name;
      Hashtbl.replace seen_fields f.CF.f_name ())
    cf.CF.fields;
  let seen_meths = Hashtbl.create 16 in
  List.iter
    (fun m ->
      checked c;
      let key = m.CF.m_name ^ m.CF.m_desc in
      if not (D.valid_method_descriptor m.CF.m_desc) then
        err c ~cls "method %s: bad descriptor %S" m.CF.m_name m.CF.m_desc;
      if Hashtbl.mem seen_meths key then err c ~cls "duplicate method %s" key;
      Hashtbl.replace seen_meths key ();
      let abstract = CF.has_flag m.CF.m_flags CF.Abstract in
      let native = CF.has_flag m.CF.m_flags CF.Native in
      (match m.CF.m_code with
      | None ->
        if not (abstract || native) then
          err c ~cls "method %s has no code and is neither abstract nor native"
            key
      | Some _ ->
        if abstract || native then
          err c ~cls "abstract/native method %s has code" key);
      if abstract && CF.has_flag m.CF.m_flags CF.Final then
        err c ~cls "method %s is abstract and final" key;
      if
        String.equal m.CF.m_name "<init>"
        && CF.has_flag m.CF.m_flags CF.Static
      then err c ~cls "constructor %s is static" key)
    cf.CF.methods;
  checked c;
  if String.equal cf.CF.name "" then err c ~cls "empty class name";
  if CF.has_flag cf.CF.c_flags CF.Abstract && CF.has_flag cf.CF.c_flags CF.Final
  then err c ~cls "class is abstract and final";
  match cf.CF.super with
  | None ->
    if not (String.equal cf.CF.name CF.java_lang_object) then
      err c ~cls "missing superclass"
  | Some s -> if String.equal s "" then err c ~cls "empty superclass name"

(* --- Phase 2: instruction integrity. --- *)

let check_code c ~cls ~meth (pool : CP.t) (code : CF.code) =
  let n = Array.length code.CF.instrs in
  let e fmt = err c ~cls ~meth fmt in
  let e_at idx fmt = err c ~cls ~meth ~idx fmt in
  checked c;
  if n = 0 then e "empty code";
  if n > max_code_length then e "code too long (%d)" n;
  if code.CF.max_locals < 0 || code.CF.max_locals > max_locals_limit then
    e "bad max_locals %d" code.CF.max_locals;
  if code.CF.max_stack < 0 || code.CF.max_stack > max_stack_limit then
    e "bad max_stack %d" code.CF.max_stack;
  let target_ok t = t >= 0 && t < n in
  let pool_fieldref idx =
    match CP.get_fieldref pool idx with
    | _ -> true
    | exception (CP.Invalid_index _ | CP.Wrong_kind _) -> false
  in
  let pool_methodref idx =
    match CP.get_methodref pool idx with
    | _ -> true
    | exception (CP.Invalid_index _ | CP.Wrong_kind _) -> false
  in
  let pool_class idx =
    match CP.get_class_name pool idx with
    | _ -> true
    | exception (CP.Invalid_index _ | CP.Wrong_kind _) -> false
  in
  let pool_string idx =
    match CP.get_string pool idx with
    | _ -> true
    | exception (CP.Invalid_index _ | CP.Wrong_kind _) -> false
  in
  let local_ok l = l >= 0 && l < code.CF.max_locals in
  Array.iteri
    (fun idx insn ->
      checked c;
      (* Most instructions have no targets; the closure is built only
         for those that do. *)
      (match I.targets insn with
      | [] -> ()
      | targets ->
        List.iter
          (fun t ->
            if not (target_ok t) then e_at idx "branch target %d out of range" t)
          targets);
      (match insn with
      | I.Iload l | I.Istore l | I.Aload l | I.Astore l | I.Iinc (l, _)
      | I.Ret l ->
        if not (local_ok l) then e_at idx "local %d out of range" l
      | I.Ldc_str k -> if not (pool_string k) then e_at idx "bad string index %d" k
      | I.Getstatic k | I.Putstatic k | I.Getfield k | I.Putfield k ->
        if not (pool_fieldref k) then e_at idx "bad fieldref index %d" k
      | I.Invokevirtual k | I.Invokestatic k | I.Invokespecial k
      | I.Invokeinterface k ->
        if not (pool_methodref k) then e_at idx "bad methodref index %d" k
      | I.New k | I.Anewarray k | I.Checkcast k | I.Instanceof k ->
        if not (pool_class k) then e_at idx "bad class index %d" k
      | I.Nop | I.Iconst _ | I.Aconst_null | I.Iadd | I.Isub | I.Imul | I.Idiv
      | I.Irem | I.Ineg | I.Ishl | I.Ishr | I.Iand | I.Ior | I.Ixor | I.Dup
      | I.Dup_x1 | I.Pop | I.Swap | I.Goto _ | I.If_icmp _ | I.If_z _
      | I.If_acmp _ | I.If_null _ | I.Jsr _ | I.Tableswitch _ | I.Ireturn
      | I.Areturn | I.Return | I.Newarray | I.Arraylength | I.Iaload
      | I.Iastore | I.Aaload | I.Aastore | I.Athrow | I.Monitorenter
      | I.Monitorexit ->
        ());
      (* Execution must not fall off the end. *)
      if idx = n - 1 && not (I.is_terminator insn) then
        e_at idx "execution falls off the end of the code")
    code.CF.instrs;
  List.iter
    (fun h ->
      checked c;
      if not (h.CF.h_start >= 0 && h.CF.h_start < h.CF.h_end && h.CF.h_end <= n)
      then e "bad handler range [%d, %d)" h.CF.h_start h.CF.h_end;
      if not (target_ok h.CF.h_target) then
        e "handler target %d out of range" h.CF.h_target;
      match h.CF.h_catch with
      | Some "" -> e "empty catch type"
      | Some _ | None -> ())
    code.CF.handlers

let run (cf : CF.t) =
  let c = { errors = []; checks = 0 } in
  let cls = cf.CF.name in
  check_pool c ~cls cf.CF.pool;
  check_members c cf;
  List.iter
    (fun m ->
      match m.CF.m_code with
      | None -> ()
      | Some code ->
        let meth = m.CF.m_name ^ m.CF.m_desc in
        (* Parameters must fit in the declared locals. *)
        (match D.method_sig_of_string m.CF.m_desc with
        | sg ->
          let needed =
            D.param_slots sg + if CF.has_flag m.CF.m_flags CF.Static then 0 else 1
          in
          checked c;
          if code.CF.max_locals < needed then
            err c ~cls ~meth "max_locals %d < parameter slots %d"
              code.CF.max_locals needed
        | exception D.Bad_descriptor _ -> () (* already reported *));
        check_code c ~cls ~meth cf.CF.pool code)
    cf.CF.methods;
  (List.rev c.errors, c.checks)
