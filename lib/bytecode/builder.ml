(* Symbolic assembler: the convenient front end for constructing
   classes. Instructions reference labels by name and members by
   (class, name, descriptor) triples; [assemble] resolves labels to
   instruction indices and interns member references into the constant
   pool. Labels occupy no code slot. *)

type instr =
  | Label of string
  | Const of int
  | Push_str of string
  | Null
  | Iload of int
  | Istore of int
  | Aload of int
  | Astore of int
  | Inc of int * int
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Neg
  | Shl
  | Shr
  | And
  | Or
  | Xor
  | Dup
  | Dup_x1
  | Pop
  | Swap
  | Goto of string
  | If_icmp of Instr.icmp * string
  | If_z of Instr.icmp * string
  | If_acmp of bool * string
  | If_null of bool * string
  | Jsr of string
  | Ret of int
  | Switch of int * string list * string (* low, targets, default *)
  | Ireturn
  | Areturn
  | Return
  | Getstatic of string * string * string
  | Putstatic of string * string * string
  | Getfield of string * string * string
  | Putfield of string * string * string
  | Invokevirtual of string * string * string
  | Invokestatic of string * string * string
  | Invokespecial of string * string * string
  | Invokeinterface of string * string * string
  | New of string
  | Newarray
  | Anewarray of string
  | Arraylength
  | Iaload
  | Iastore
  | Aaload
  | Aastore
  | Athrow
  | Checkcast of string
  | Instanceof of string
  | Monitorenter
  | Monitorexit

exception Unbound_label of string
exception Duplicate_label of string

let is_label = function Label _ -> true | _ -> false

(* Map label name -> instruction index of the next real instruction. *)
let label_table instrs =
  let tbl = Hashtbl.create 16 in
  let idx = ref 0 in
  List.iter
    (fun i ->
      match i with
      | Label l ->
        if Hashtbl.mem tbl l then raise (Duplicate_label l);
        Hashtbl.add tbl l !idx
      | _ -> incr idx)
    instrs;
  tbl

let resolve tbl l =
  match Hashtbl.find_opt tbl l with
  | Some i -> i
  | None -> raise (Unbound_label l)

let assemble pool instrs : Instr.t array =
  let tbl = label_table instrs in
  let r l = resolve tbl l in
  let lower = function
    | Label _ -> assert false
    | Const n -> Instr.Iconst (Int32.of_int n)
    | Push_str s -> Instr.Ldc_str (Cp.Builder.string pool s)
    | Null -> Instr.Aconst_null
    | Iload n -> Instr.Iload n
    | Istore n -> Instr.Istore n
    | Aload n -> Instr.Aload n
    | Astore n -> Instr.Astore n
    | Inc (n, d) -> Instr.Iinc (n, d)
    | Add -> Instr.Iadd
    | Sub -> Instr.Isub
    | Mul -> Instr.Imul
    | Div -> Instr.Idiv
    | Rem -> Instr.Irem
    | Neg -> Instr.Ineg
    | Shl -> Instr.Ishl
    | Shr -> Instr.Ishr
    | And -> Instr.Iand
    | Or -> Instr.Ior
    | Xor -> Instr.Ixor
    | Dup -> Instr.Dup
    | Dup_x1 -> Instr.Dup_x1
    | Pop -> Instr.Pop
    | Swap -> Instr.Swap
    | Goto l -> Instr.Goto (r l)
    | If_icmp (c, l) -> Instr.If_icmp (c, r l)
    | If_z (c, l) -> Instr.If_z (c, r l)
    | If_acmp (eq, l) -> Instr.If_acmp (eq, r l)
    | If_null (isnull, l) -> Instr.If_null (isnull, r l)
    | Jsr l -> Instr.Jsr (r l)
    | Ret n -> Instr.Ret n
    | Switch (low, ts, d) ->
      Instr.Tableswitch
        {
          low = Int32.of_int low;
          targets = Array.of_list (List.map r ts);
          default = r d;
        }
    | Ireturn -> Instr.Ireturn
    | Areturn -> Instr.Areturn
    | Return -> Instr.Return
    | Getstatic (c, n, d) ->
      Instr.Getstatic (Cp.Builder.fieldref pool ~cls:c ~name:n ~desc:d)
    | Putstatic (c, n, d) ->
      Instr.Putstatic (Cp.Builder.fieldref pool ~cls:c ~name:n ~desc:d)
    | Getfield (c, n, d) ->
      Instr.Getfield (Cp.Builder.fieldref pool ~cls:c ~name:n ~desc:d)
    | Putfield (c, n, d) ->
      Instr.Putfield (Cp.Builder.fieldref pool ~cls:c ~name:n ~desc:d)
    | Invokevirtual (c, n, d) ->
      Instr.Invokevirtual (Cp.Builder.methodref pool ~cls:c ~name:n ~desc:d)
    | Invokestatic (c, n, d) ->
      Instr.Invokestatic (Cp.Builder.methodref pool ~cls:c ~name:n ~desc:d)
    | Invokespecial (c, n, d) ->
      Instr.Invokespecial (Cp.Builder.methodref pool ~cls:c ~name:n ~desc:d)
    | Invokeinterface (c, n, d) ->
      Instr.Invokeinterface (Cp.Builder.methodref pool ~cls:c ~name:n ~desc:d)
    | New c -> Instr.New (Cp.Builder.class_ pool c)
    | Newarray -> Instr.Newarray
    | Anewarray c -> Instr.Anewarray (Cp.Builder.class_ pool c)
    | Arraylength -> Instr.Arraylength
    | Iaload -> Instr.Iaload
    | Iastore -> Instr.Iastore
    | Aaload -> Instr.Aaload
    | Aastore -> Instr.Aastore
    | Athrow -> Instr.Athrow
    | Checkcast c -> Instr.Checkcast (Cp.Builder.class_ pool c)
    | Instanceof c -> Instr.Instanceof (Cp.Builder.class_ pool c)
    | Monitorenter -> Instr.Monitorenter
    | Monitorexit -> Instr.Monitorexit
  in
  instrs
  |> List.filter (fun i -> not (is_label i))
  |> List.map lower
  |> Array.of_list

(* Net stack effect of the arguments and result of the method at pool
   index [idx] (the receiver is the caller's). *)
let call_delta pool idx =
  let mref = Cp.get_methodref pool idx in
  let sg = Descriptor.method_sig_of_string mref.Cp.ref_desc in
  (match sg.Descriptor.ret with None -> 0 | Some _ -> 1)
  - List.length sg.Descriptor.params

(* [calls] memoizes [call_delta] per pool index for one walk ([min_int]
   = not yet computed): a method calls few distinct methods, many
   times. *)
let invoke_delta pool calls idx ~receiver =
  let d =
    if idx > 0 && idx < Array.length calls && calls.(idx) <> min_int then
      calls.(idx)
    else begin
      let d = call_delta pool idx in
      if idx > 0 && idx < Array.length calls then calls.(idx) <- d;
      d
    end
  in
  if receiver then d - 1 else d

(* Validates the operand as a field reference (every field is one slot
   wide). *)
let field_width pool idx =
  ignore (Cp.get_fieldref pool idx);
  1

let stack_delta pool calls (i : Instr.t) =
  match i with
  | Instr.Nop -> 0
  | Instr.Iconst _ | Instr.Ldc_str _ | Instr.Aconst_null -> 1
  | Instr.Iload _ | Instr.Aload _ -> 1
  | Instr.Istore _ | Instr.Astore _ -> -1
  | Instr.Iinc _ -> 0
  | Instr.Iadd | Instr.Isub | Instr.Imul | Instr.Idiv | Instr.Irem
  | Instr.Ishl | Instr.Ishr | Instr.Iand | Instr.Ior | Instr.Ixor ->
    -1
  | Instr.Ineg -> 0
  | Instr.Dup -> 1
  | Instr.Dup_x1 -> 1
  | Instr.Pop -> -1
  | Instr.Swap -> 0
  | Instr.Goto _ -> 0
  | Instr.If_icmp _ | Instr.If_acmp _ -> -2
  | Instr.If_z _ | Instr.If_null _ -> -1
  | Instr.Jsr _ -> 1
  | Instr.Ret _ -> 0
  | Instr.Tableswitch _ -> -1
  | Instr.Ireturn | Instr.Areturn -> -1
  | Instr.Return -> 0
  | Instr.Getstatic _ -> 1
  | Instr.Putstatic i -> -field_width pool i
  | Instr.Getfield _ -> 0
  | Instr.Putfield i -> -1 - field_width pool i
  | Instr.Invokevirtual i | Instr.Invokespecial i | Instr.Invokeinterface i ->
    invoke_delta pool calls i ~receiver:true
  | Instr.Invokestatic i -> invoke_delta pool calls i ~receiver:false
  | Instr.New _ -> 1
  | Instr.Newarray | Instr.Anewarray _ -> 0
  | Instr.Arraylength -> 0
  | Instr.Iaload | Instr.Aaload -> -1
  | Instr.Iastore | Instr.Aastore -> -3
  | Instr.Athrow -> -1
  | Instr.Checkcast _ -> 0
  | Instr.Instanceof _ -> 0
  | Instr.Monitorenter | Instr.Monitorexit -> -1

(* Conservative upper bound on operand-stack height: accumulate the
   per-instruction stack deltas along the instruction list, taking the
   running maximum, and never letting the running height drop below
   zero across merge points. This over-approximates but is always safe
   for code whose true max is what the verifier later computes. *)

let estimate_max_stack ?(handler_targets = []) pool (code : Instr.t array) =
  (* Depth-first over the CFG, tracking entry heights per instruction;
     handlers start with height 1 (the thrown exception). *)
  let n = Array.length code in
  if n = 0 then 0
  else begin
    let entry = Array.make n (-1) in
    let calls = Array.make (Array.length pool) min_int in
    let maxh = ref 0 in
    (* Ill-formed code whose stack grows around a loop would make this
       walk diverge; cap the height (the verifier rejects such code
       later on the height mismatch). *)
    let cap = (4 * n) + 64 in
    (* Branch targets first, then the fall-through successor. *)
    let rec walk idx h =
      if idx >= 0 && idx < n && entry.(idx) < h && h <= cap then begin
        entry.(idx) <- h;
        let i = code.(idx) in
        let d = stack_delta pool calls i in
        let h' = Int.max 0 (h + d) in
        maxh := Int.max !maxh (Int.max h (h + Int.max 0 d));
        (match i with
        | Instr.Goto t
        | Instr.If_icmp (_, t)
        | Instr.If_z (_, t)
        | Instr.If_acmp (_, t)
        | Instr.If_null (_, t)
        | Instr.Jsr t ->
          walk t h'
        | Instr.Tableswitch { targets; default; _ } ->
          walk default h';
          Array.iter (fun t -> walk t h') targets
        | _ -> ());
        if not (Instr.is_terminator i) then walk (idx + 1) h'
      end
    in
    walk 0 0;
    List.iter (fun t -> walk t 1) handler_targets;
    Int.max 1 !maxh
  end

let estimate_max_locals ~params ~is_static (code : Instr.t array) =
  let base = params + if is_static then 0 else 1 in
  Array.fold_left
    (fun acc i ->
      match i with
      | Instr.Iload n | Instr.Istore n | Instr.Aload n | Instr.Astore n
      | Instr.Iinc (n, _) | Instr.Ret n ->
        Int.max acc (n + 1)
      | _ -> acc)
    (Int.max 1 base) code

type mdef = {
  md_name : string;
  md_desc : string;
  md_flags : Classfile.access list;
  md_body : instr list option;
  md_handlers : (string * string * string * string option) list;
      (* start label, end label, handler label, catch type *)
}

let meth ?(flags = [ Classfile.Public ]) ?(handlers = []) name desc body =
  {
    md_name = name;
    md_desc = desc;
    md_flags = flags;
    md_body = Some body;
    md_handlers = handlers;
  }

let native_meth ?(flags = [ Classfile.Public; Classfile.Native ]) name desc =
  let flags =
    if List.mem Classfile.Native flags then flags else Classfile.Native :: flags
  in
  { md_name = name; md_desc = desc; md_flags = flags; md_body = None;
    md_handlers = [] }

let abstract_meth ?(flags = [ Classfile.Public; Classfile.Abstract ]) name desc
    =
  { md_name = name; md_desc = desc; md_flags = flags; md_body = None;
    md_handlers = [] }

let field ?(flags = [ Classfile.Public ]) name desc =
  { Classfile.f_name = name; f_desc = desc; f_flags = flags }

(* A default no-argument constructor that just calls super's. *)
let default_init super =
  meth "<init>" "()V"
    [ Aload 0; Invokespecial (super, "<init>", "()V"); Return ]

let build_method pool md =
  match md.md_body with
  | None ->
    {
      Classfile.m_name = md.md_name;
      m_desc = md.md_desc;
      m_flags = md.md_flags;
      m_code = None;
    }
  | Some body ->
    let tbl = label_table body in
    let instrs = assemble pool body in
    let sg = Descriptor.method_sig_of_string md.md_desc in
    let handlers =
      List.map
        (fun (s, e, h, catch) ->
          {
            Classfile.h_start = resolve tbl s;
            h_end = resolve tbl e;
            h_target = resolve tbl h;
            h_catch = catch;
          })
        md.md_handlers
    in
    let cur_pool = Cp.Builder.to_pool pool in
    let handler_targets =
      List.map (fun h -> h.Classfile.h_target) handlers
    in
    {
      Classfile.m_name = md.md_name;
      m_desc = md.md_desc;
      m_flags = md.md_flags;
      m_code =
        Some
          {
            Classfile.max_stack =
              estimate_max_stack ~handler_targets cur_pool instrs;
            max_locals =
              estimate_max_locals
                ~params:(Descriptor.param_slots sg)
                ~is_static:(List.mem Classfile.Static md.md_flags)
                instrs;
            instrs;
            handlers;
          };
    }

let class_ ?(super = Classfile.java_lang_object) ?(interfaces = [])
    ?(flags = [ Classfile.Public ]) ?(fields = []) ?(attributes = []) name
    mdefs =
  let pool = Cp.Builder.create () in
  (* Intern this class and its super so every class file names itself,
     mirroring the real format. *)
  let _ = Cp.Builder.class_ pool name in
  let _ = Cp.Builder.class_ pool super in
  let methods = List.map (build_method pool) mdefs in
  {
    Classfile.name;
    super = (if String.equal name Classfile.java_lang_object then None
             else Some super);
    interfaces;
    c_flags = flags;
    fields;
    methods;
    pool = Cp.Builder.to_pool pool;
    attributes;
  }
