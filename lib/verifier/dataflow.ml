(* Verification phase 3: dataflow type inference over each method body.

   A worklist abstract interpretation computes, for every instruction,
   the verification types of locals and operand stack on entry. Checks
   that cannot be decided against the oracle's knowledge of the
   environment are recorded as assumptions (deferred to the client)
   rather than errors — the static/dynamic partitioning of §3.1.

   Subroutines (jsr/ret) use the classic merged-frame approximation: a
   return address carries its subroutine entry, and ret flows to the
   instruction after every jsr targeting that entry. *)

module CF = Bytecode.Classfile
module CP = Bytecode.Cp
module I = Bytecode.Instr
module D = Bytecode.Descriptor
module V = Vtype

type result = {
  r_errors : Verror.t list;
  r_checks : int; (* static checks performed *)
}

exception Fail of string

let failv fmt = Format.kasprintf (fun s -> raise (Fail s)) fmt

let throwable = "java/lang/Throwable"

(* Per-index tables (stored frames by instruction, operand memos by pool
   index) live in chunks of 256 slots, the largest block the minor heap
   allocates. A flat array for a long method or a big pool would go
   straight to the major heap, and every young value stored into it
   would be remembered and promoted at the next minor collection, even
   once verification is over; in chunks, the entries die young with the
   class. *)
module Chunked = struct
  let size = 256

  let make n x =
    Array.init ((n + size - 1) / size) (fun k ->
        Array.make (Int.min size (n - (k * size))) x)

  let get t i = t.(i / size).(i mod size)
  let set t i x = t.(i / size).(i mod size) <- x
end

(* Constant-pool operands, memoized per pool index for the whole class:
   every method of a class shares its pool, and the worklist steps the
   same invoke or field access many times. Only successful lookups are
   stored, and each part (member reference, then descriptor) is filled
   at exactly the point the uncached code computed it, so a malformed
   entry raises the same error at the same step. *)
type field_slot = {
  fr : CP.member_ref;
  mutable f_ty : (D.ty * V.t) option; (* parsed descriptor, its vtype *)
}

type meth_slot = {
  mr : CP.member_ref;
  mutable m_sig : (D.method_sig * V.t option) option;
      (* parsed descriptor, the vtype it pushes *)
}

type slot = Empty | Field of field_slot | Meth of meth_slot

(* A stored entry frame; [f_depth] is the stack's length. Locals arrays
   are shared, never written once stored: a step reads its entry
   frame's array and copies it only when it really changes a slot, so
   straight-line code (most steps touch no local, or store the type a
   slot already holds) stores one array for a whole run of
   instructions. A merge that widens a slot replaces the frame. *)
type frame = { f_locals : V.t array; f_stack : V.t list; f_depth : int }

(* Everything one method's verification reads and writes. [step] and
   its helpers are top-level functions over this record, so simulating
   an instruction allocates no closures. The work frame is [locals]
   (the entry frame's array until [owned], a private copy after),
   [stack] and [depth]. *)
type st = {
  oracle : Oracle.t;
  asms : Assumptions.t;
  scope : Assumptions.scope;
  this_class : string;
  super_class : string option;
  pool : CP.t;
  slots : slot array array; (* [Chunked], by pool index *)
  mutable checks : int;
  mutable method_sig : D.method_sig;
  max_stack : int;
  instrs : I.t array;
  handlers : CF.handler array;
  handler_stacks : V.t list array; (* [[Ref catch]] per handler *)
  jsr_sites : (int, int list) Hashtbl.t;
  n : int; (* instruction count *)
  frames : frame option array array; (* [Chunked], by instruction *)
  mutable queue : int array; (* FIFO worklist: [q_head, q_tail) *)
  mutable q_head : int;
  mutable q_tail : int;
  mutable locals : V.t array;
  mutable owned : bool;
  mutable stack : V.t list;
  mutable depth : int;
}

let tick st = st.checks <- st.checks + 1

let assignable_desc st v ty =
  tick st;
  V.assignable_to_desc st.oracle st.asms ~scope:st.scope v ty

let assignable_class st v ~target =
  tick st;
  V.assignable_to_class st.oracle st.asms ~scope:st.scope v ~target

(* Member resolution against the oracle, turning `Unknown into an
   assumption and `Absent into a hard error. *)
let resolve_field st ~cls ~name ~desc ~want_static =
  tick st;
  match Oracle.lookup_field st.oracle cls name with
  | `Found (declaring, d, s, private_) ->
    if not (String.equal d desc) then
      failv "field %s.%s has type %s, expected %s" cls name d desc;
    if s <> want_static then failv "field %s.%s static mismatch" cls name;
    if private_ && not (String.equal declaring st.this_class) then
      failv "access to private field %s.%s from %s" declaring name
        st.this_class
  | `Absent -> failv "no field %s in class %s" name cls
  | `Unknown ->
    Assumptions.add st.asms ~scope:st.scope
      (Assumptions.Field_exists { cls; name; desc; static = want_static })

let resolve_method_ref st ~cls ~name ~desc ~want_static =
  tick st;
  match Oracle.lookup_method st.oracle cls name desc with
  | `Found (declaring, s, private_) ->
    if s <> want_static then failv "method %s.%s static mismatch" cls name;
    if
      private_
      && not (String.equal declaring st.this_class)
      && not (String.equal name "<init>")
    then
      failv "call to private method %s.%s from %s" declaring name
        st.this_class
  | `Absent -> failv "no method %s:%s in class %s" name desc cls
  | `Unknown ->
    Assumptions.add st.asms ~scope:st.scope
      (Assumptions.Method_exists { cls; name; desc; static = want_static })

let is_array_name n = String.length n > 0 && n.[0] = '['

let entry_locals ~this_class (m : CF.meth) (code : CF.code) =
  let sg = D.method_sig_of_string m.CF.m_desc in
  let locals = Array.make code.CF.max_locals V.Top in
  let is_static = CF.has_flag m.CF.m_flags CF.Static in
  let base =
    if is_static then 0
    else begin
      locals.(0) <-
        (if
           String.equal m.CF.m_name "<init>"
           && not (String.equal this_class CF.java_lang_object)
         then V.Uninit_this this_class
         else V.Ref this_class);
      1
    end
  in
  List.iteri (fun i ty -> locals.(base + i) <- V.of_desc_ty ty) sg.D.params;
  locals

(* --- Constant-pool operands. --- *)

let slot st k =
  if k > 0 && k < CP.size st.pool then Chunked.get st.slots k else Empty

let fieldref st k =
  match slot st k with
  | Field f -> f
  | Empty | Meth _ ->
    let f = { fr = CP.get_fieldref st.pool k; f_ty = None } in
    Chunked.set st.slots k (Field f);
    f

let methodref st k =
  match slot st k with
  | Meth m -> m
  | Empty | Field _ ->
    let m = { mr = CP.get_methodref st.pool k; m_sig = None } in
    Chunked.set st.slots k (Meth m);
    m

let field_ty f =
  match f.f_ty with
  | Some p -> p
  | None ->
    let ty = D.ty_of_string f.fr.CP.ref_desc in
    let p = (ty, V.of_desc_ty ty) in
    f.f_ty <- Some p;
    p

let method_sig m =
  match m.m_sig with
  | Some p -> p
  | None ->
    let sg = D.method_sig_of_string m.mr.CP.ref_desc in
    let p = (sg, Option.map V.of_desc_ty sg.D.ret) in
    m.m_sig <- Some p;
    p

let class_at st k = CP.get_class_name st.pool k

(* --- The work frame. --- *)

let push st v =
  if st.depth >= st.max_stack then failv "operand stack overflow";
  st.depth <- st.depth + 1;
  st.stack <- v :: st.stack

let pop st =
  match st.stack with
  | [] -> failv "operand stack underflow"
  | v :: rest ->
    st.depth <- st.depth - 1;
    st.stack <- rest;
    v

let pop_int st =
  match pop st with
  | V.VInt -> ()
  | v -> failv "expected int on stack, found %s" (V.to_string v)

let pop_ref st =
  let v = pop st in
  if V.is_reference v then v
  else failv "expected reference on stack, found %s" (V.to_string v)

let local st n =
  if n < 0 || n >= Array.length st.locals then failv "local %d out of range" n
  else st.locals.(n)

let own_locals st =
  if not st.owned then begin
    st.locals <- Array.copy st.locals;
    st.owned <- true
  end

let set_local st n v =
  if n < 0 || n >= Array.length st.locals then failv "local %d out of range" n
  else if st.locals.(n) != v then begin
    own_locals st;
    st.locals.(n) <- v
  end

(* Last parameter is on top: check in reverse. *)
let rec pop_args st = function
  | [] -> ()
  | ty :: rest ->
    pop_args st rest;
    let v = pop st in
    if not (assignable_desc st v ty) then
      failv "argument of type %s where %s expected" (V.to_string v)
        (D.ty_to_string ty)

let push_ret st = function None -> () | Some v -> push st v

(* Initialization substitutes the freshly initialized type for every
   alias of the uninitialized value. *)
let rec subst_stack recv init_to = function
  | [] -> []
  | v :: rest ->
    (if V.equal v recv then init_to else v) :: subst_stack recv init_to rest

let subst_frame st recv init_to =
  for i = 0 to Array.length st.locals - 1 do
    if V.equal st.locals.(i) recv then begin
      own_locals st;
      st.locals.(i) <- init_to
    end
  done;
  st.stack <- subst_stack recv init_to st.stack

(* Kill stale aliases of a previous allocation at this pc. *)
let is_stale idx = function V.Uninit { pc; _ } -> pc = idx | _ -> false

let rec kill_stack idx = function
  | [] -> []
  | v :: rest -> (if is_stale idx v then V.Top else v) :: kill_stack idx rest

let kill_frame st idx =
  for i = 0 to Array.length st.locals - 1 do
    if is_stale idx st.locals.(i) then begin
      own_locals st;
      st.locals.(i) <- V.Top
    end
  done;
  st.stack <- kill_stack idx st.stack

(* --- The worklist: a FIFO of instruction indices in an int array, so
   queueing allocates nothing per step. --- *)

let enqueue st idx =
  if st.q_tail = Array.length st.queue then begin
    let live = st.q_tail - st.q_head in
    let q =
      if 2 * live <= Array.length st.queue then st.queue
      else Array.make (2 * Array.length st.queue) 0
    in
    Array.blit st.queue st.q_head q 0 live;
    st.queue <- q;
    st.q_head <- 0;
    st.q_tail <- live
  end;
  st.queue.(st.q_tail) <- idx;
  st.q_tail <- st.q_tail + 1

(* --- Merging into stored frames. --- *)

let frame_at st idx = Chunked.get st.frames idx
let set_frame st idx fr = Chunked.set st.frames idx (Some fr)

(* The pointwise join of two equal-length stacks, sharing the old list
   (or its longest unchanged suffix) where no slot widens. *)
let rec merge_stack oracle olds news =
  match (olds, news) with
  | o :: orest, n :: nrest ->
    let m = V.merge oracle o n in
    let mrest = merge_stack oracle orest nrest in
    if mrest == orest && V.equal m o then olds else m :: mrest
  | _ -> olds

(* A first visit stores [locals] itself: the caller never writes it
   again (a step's flows are its last act, and the next step starts
   from a stored frame). *)
let merge_into st target locals stack depth =
  if target < 0 || target >= st.n then
    failv "flow to out-of-range index %d" target;
  match frame_at st target with
  | None ->
    set_frame st target { f_locals = locals; f_stack = stack; f_depth = depth };
    enqueue st target
  | Some old ->
    if old.f_depth <> depth then
      failv "stack height mismatch at merge (%d vs %d)" old.f_depth depth;
    let ol = old.f_locals in
    let nl = ref ol in
    for i = 0 to Array.length ol - 1 do
      let ov = ol.(i) in
      let m = V.merge st.oracle ov locals.(i) in
      if not (V.equal m ov) then begin
        if !nl == ol then nl := Array.copy ol;
        !nl.(i) <- m
      end
    done;
    let ms = merge_stack st.oracle old.f_stack stack in
    if !nl != ol || ms != old.f_stack then begin
      set_frame st target { f_locals = !nl; f_stack = ms; f_depth = depth };
      enqueue st target
    end

let flow st target = merge_into st target st.locals st.stack st.depth

(* Exception edges use the state on entry: the handler sees locals as
   they were when the covered instruction began. *)
let handler_edges st idx entry_locals =
  for k = 0 to Array.length st.handlers - 1 do
    let h = st.handlers.(k) in
    if idx >= h.CF.h_start && idx < h.CF.h_end then begin
      let catch = Option.value ~default:throwable h.CF.h_catch in
      (if st.oracle catch = None then
         Assumptions.add st.asms ~scope:st.scope
           (Assumptions.Class_exists catch));
      tick st;
      merge_into st h.CF.h_target entry_locals st.handler_stacks.(k) 1
    end
  done

let rec flow_ret_sites st = function
  | [] -> ()
  | s :: rest ->
    flow st (s + 1);
    flow_ret_sites st rest

(* Simulate the instruction at [idx] on the work frame, then merge the
   result into each successor (exception edges are the caller's). *)
let step st idx =
  tick st;
  match st.instrs.(idx) with
  | I.Nop -> flow st (idx + 1)
  | I.Iconst _ ->
    push st V.VInt;
    flow st (idx + 1)
  | I.Ldc_str _ ->
    push st (V.Ref "java/lang/String");
    flow st (idx + 1)
  | I.Aconst_null ->
    push st V.Null;
    flow st (idx + 1)
  | I.Iload n ->
    (match local st n with
    | V.VInt -> push st V.VInt
    | v -> failv "iload of %s" (V.to_string v));
    flow st (idx + 1)
  | I.Istore n ->
    pop_int st;
    set_local st n V.VInt;
    flow st (idx + 1)
  | I.Aload n ->
    (match local st n with
    | (V.Null | V.Ref _ | V.Uninit _ | V.Uninit_this _) as v -> push st v
    | v -> failv "aload of %s" (V.to_string v));
    flow st (idx + 1)
  | I.Astore n ->
    (match pop st with
    | (V.Null | V.Ref _ | V.Uninit _ | V.Uninit_this _ | V.Retaddr _) as v ->
      set_local st n v
    | v -> failv "astore of %s" (V.to_string v));
    flow st (idx + 1)
  | I.Iinc (n, _) ->
    (match local st n with
    | V.VInt -> ()
    | v -> failv "iinc of %s" (V.to_string v));
    flow st (idx + 1)
  | I.Iadd | I.Isub | I.Imul | I.Idiv | I.Irem | I.Ishl | I.Ishr | I.Iand
  | I.Ior | I.Ixor ->
    pop_int st;
    pop_int st;
    push st V.VInt;
    flow st (idx + 1)
  | I.Ineg ->
    pop_int st;
    push st V.VInt;
    flow st (idx + 1)
  | I.Dup ->
    let v = pop st in
    push st v;
    push st v;
    flow st (idx + 1)
  | I.Dup_x1 ->
    let a = pop st in
    let b = pop st in
    push st a;
    push st b;
    push st a;
    flow st (idx + 1)
  | I.Pop ->
    ignore (pop st);
    flow st (idx + 1)
  | I.Swap ->
    let a = pop st in
    let b = pop st in
    push st a;
    push st b;
    flow st (idx + 1)
  | I.Goto t -> flow st t
  | I.If_icmp (_, t) ->
    pop_int st;
    pop_int st;
    flow st t;
    flow st (idx + 1)
  | I.If_z (_, t) ->
    pop_int st;
    flow st t;
    flow st (idx + 1)
  | I.If_acmp (_, t) ->
    ignore (pop_ref st);
    ignore (pop_ref st);
    flow st t;
    flow st (idx + 1)
  | I.If_null (_, t) ->
    ignore (pop_ref st);
    flow st t;
    flow st (idx + 1)
  | I.Jsr t ->
    push st (V.Retaddr t);
    flow st t
  | I.Ret n -> (
    match local st n with
    | V.Retaddr entry -> (
      match Hashtbl.find_opt st.jsr_sites entry with
      | Some sites -> flow_ret_sites st sites
      | None -> failv "ret from subroutine %d with no jsr sites" entry)
    | v -> failv "ret via local holding %s" (V.to_string v))
  | I.Tableswitch { targets; default; _ } ->
    pop_int st;
    flow st default;
    for k = 0 to Array.length targets - 1 do
      flow st targets.(k)
    done
  | I.Ireturn -> (
    (match st.method_sig.D.ret with
    | Some D.Int -> ()
    | Some ty -> failv "ireturn from method returning %s" (D.ty_to_string ty)
    | None -> failv "ireturn from void method");
    pop_int st)
  | I.Areturn -> (
    match st.method_sig.D.ret with
    | Some ((D.Obj _ | D.Arr _) as ty) ->
      let v = pop_ref st in
      if not (assignable_desc st v ty) then
        failv "areturn of %s from method returning %s" (V.to_string v)
          (D.ty_to_string ty)
    | Some D.Int -> failv "areturn from int method"
    | None -> failv "areturn from void method")
  | I.Return -> (
    match st.method_sig.D.ret with
    | None -> ()
    | Some _ -> failv "return from non-void method")
  | I.Getstatic k ->
    let f = fieldref st k in
    let fr = f.fr in
    resolve_field st ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
      ~desc:fr.CP.ref_desc ~want_static:true;
    push st (snd (field_ty f));
    flow st (idx + 1)
  | I.Putstatic k ->
    let f = fieldref st k in
    let fr = f.fr in
    resolve_field st ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
      ~desc:fr.CP.ref_desc ~want_static:true;
    let v = pop st in
    if not (assignable_desc st v (fst (field_ty f))) then
      failv "putstatic of %s into %s" (V.to_string v) fr.CP.ref_desc;
    flow st (idx + 1)
  | I.Getfield k ->
    let f = fieldref st k in
    let fr = f.fr in
    resolve_field st ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
      ~desc:fr.CP.ref_desc ~want_static:false;
    let recv = pop st in
    if not (assignable_class st recv ~target:fr.CP.ref_class) then
      failv "getfield on %s, expected %s" (V.to_string recv) fr.CP.ref_class;
    push st (snd (field_ty f));
    flow st (idx + 1)
  | I.Putfield k ->
    let f = fieldref st k in
    let fr = f.fr in
    resolve_field st ~cls:fr.CP.ref_class ~name:fr.CP.ref_name
      ~desc:fr.CP.ref_desc ~want_static:false;
    let v = pop st in
    if not (assignable_desc st v (fst (field_ty f))) then
      failv "putfield of %s into %s" (V.to_string v) fr.CP.ref_desc;
    let recv = pop st in
    (* An uninitialized this may set fields of its own class (the
       standard constructor-initialization allowance). *)
    (match recv with
    | V.Uninit_this c when String.equal c fr.CP.ref_class -> ()
    | recv ->
      if not (assignable_class st recv ~target:fr.CP.ref_class) then
        failv "putfield on %s, expected %s" (V.to_string recv)
          fr.CP.ref_class);
    flow st (idx + 1)
  | I.Invokevirtual k | I.Invokeinterface k ->
    let m = methodref st k in
    let mr = m.mr in
    if String.equal mr.CP.ref_name "<init>" then
      failv "invokevirtual of constructor";
    resolve_method_ref st ~cls:mr.CP.ref_class ~name:mr.CP.ref_name
      ~desc:mr.CP.ref_desc ~want_static:false;
    let sg, ret = method_sig m in
    pop_args st sg.D.params;
    let recv = pop st in
    if not (assignable_class st recv ~target:mr.CP.ref_class) then
      failv "receiver %s for %s.%s" (V.to_string recv) mr.CP.ref_class
        mr.CP.ref_name;
    push_ret st ret;
    flow st (idx + 1)
  | I.Invokestatic k ->
    let m = methodref st k in
    let mr = m.mr in
    if String.equal mr.CP.ref_name "<init>" then
      failv "invokestatic of constructor";
    resolve_method_ref st ~cls:mr.CP.ref_class ~name:mr.CP.ref_name
      ~desc:mr.CP.ref_desc ~want_static:true;
    let sg, ret = method_sig m in
    pop_args st sg.D.params;
    push_ret st ret;
    flow st (idx + 1)
  | I.Invokespecial k ->
    let m = methodref st k in
    let mr = m.mr in
    let sg, ret = method_sig m in
    if String.equal mr.CP.ref_name "<init>" then begin
      if sg.D.ret <> None then failv "constructor with non-void descriptor";
      resolve_method_ref st ~cls:mr.CP.ref_class ~name:"<init>"
        ~desc:mr.CP.ref_desc ~want_static:false;
      pop_args st sg.D.params;
      let recv = pop st in
      let init_to =
        match recv with
        | V.Uninit { cls; _ } ->
          tick st;
          if not (String.equal cls mr.CP.ref_class) then
            failv "constructor of %s called on uninitialized %s"
              mr.CP.ref_class cls;
          V.Ref cls
        | V.Uninit_this cls ->
          tick st;
          let ok =
            String.equal mr.CP.ref_class cls
            ||
            match st.super_class with
            | Some s -> String.equal mr.CP.ref_class s
            | None -> false
          in
          if not ok then
            failv "uninitialized this of %s initialized via %s" cls
              mr.CP.ref_class;
          V.Ref cls
        | v -> failv "constructor called on %s" (V.to_string v)
      in
      subst_frame st recv init_to
    end
    else begin
      resolve_method_ref st ~cls:mr.CP.ref_class ~name:mr.CP.ref_name
        ~desc:mr.CP.ref_desc ~want_static:false;
      pop_args st sg.D.params;
      let recv = pop st in
      if not (assignable_class st recv ~target:mr.CP.ref_class) then
        failv "receiver %s for special %s.%s" (V.to_string recv)
          mr.CP.ref_class mr.CP.ref_name;
      push_ret st ret
    end;
    flow st (idx + 1)
  | I.New k ->
    let cls = class_at st k in
    tick st;
    if st.oracle cls = None then
      Assumptions.add st.asms ~scope:st.scope (Assumptions.Class_exists cls);
    kill_frame st idx;
    push st (V.Uninit { pc = idx; cls });
    flow st (idx + 1)
  | I.Newarray ->
    pop_int st;
    push st (V.Ref "[I");
    flow st (idx + 1)
  | I.Anewarray k ->
    let elem = class_at st k in
    pop_int st;
    push st (V.Ref ("[L" ^ elem ^ ";"));
    flow st (idx + 1)
  | I.Arraylength ->
    (match pop_ref st with
    | V.Null -> ()
    | V.Ref n when is_array_name n -> ()
    | v -> failv "arraylength of %s" (V.to_string v));
    push st V.VInt;
    flow st (idx + 1)
  | I.Iaload ->
    pop_int st;
    (match pop_ref st with
    | V.Null | V.Ref "[I" -> ()
    | v -> failv "iaload from %s" (V.to_string v));
    push st V.VInt;
    flow st (idx + 1)
  | I.Iastore ->
    pop_int st;
    pop_int st;
    (match pop_ref st with
    | V.Null | V.Ref "[I" -> ()
    | v -> failv "iastore into %s" (V.to_string v));
    flow st (idx + 1)
  | I.Aaload ->
    pop_int st;
    (match pop_ref st with
    | V.Null -> push st V.Null
    | V.Ref n when is_array_name n && not (String.equal n "[I") -> (
      match Oracle.elem_of n with
      | Some e -> push st (V.Ref e)
      | None -> failv "aaload from %s" n)
    | v -> failv "aaload from %s" (V.to_string v));
    flow st (idx + 1)
  | I.Aastore ->
    let v = pop_ref st in
    pop_int st;
    (match pop_ref st with
    | V.Null -> ()
    | V.Ref n when is_array_name n && not (String.equal n "[I") -> (
      match Oracle.elem_of n with
      | Some e ->
        if not (assignable_class st v ~target:e) then
          failv "aastore of %s into %s" (V.to_string v) n
      | None -> failv "aastore into %s" n)
    | arr -> failv "aastore into %s" (V.to_string arr));
    flow st (idx + 1)
  | I.Athrow ->
    let v = pop_ref st in
    if not (assignable_class st v ~target:throwable) then
      failv "athrow of non-throwable %s" (V.to_string v)
  | I.Checkcast k ->
    let target = class_at st k in
    ignore (pop_ref st);
    if st.oracle target = None && not (is_array_name target) then
      Assumptions.add st.asms ~scope:st.scope (Assumptions.Class_exists target);
    push st (V.Ref target);
    flow st (idx + 1)
  | I.Instanceof k ->
    let target = class_at st k in
    ignore (pop_ref st);
    if st.oracle target = None && not (is_array_name target) then
      Assumptions.add st.asms ~scope:st.scope (Assumptions.Class_exists target);
    push st V.VInt;
    flow st (idx + 1)
  | I.Monitorenter | I.Monitorexit ->
    ignore (pop_ref st);
    flow st (idx + 1)

let run st entry =
  merge_into st 0 entry [] 0;
  let rounds = ref 0 in
  while st.q_head < st.q_tail do
    incr rounds;
    if !rounds > 200_000 then failv "verification did not converge";
    let idx = st.queue.(st.q_head) in
    st.q_head <- st.q_head + 1;
    let fr = Option.get (frame_at st idx) in
    handler_edges st idx fr.f_locals;
    st.locals <- fr.f_locals;
    st.owned <- false;
    st.stack <- fr.f_stack;
    st.depth <- fr.f_depth;
    step st idx
  done

let verify_method_in slots oracle asms (cf : CF.t) (m : CF.meth) : result =
  match m.CF.m_code with
  | None -> { r_errors = []; r_checks = 0 }
  | Some code -> (
    let meth_key = m.CF.m_name ^ m.CF.m_desc in
    let n = Array.length code.CF.instrs in
    let jsr_sites = Hashtbl.create 1 in
    Array.iteri
      (fun i insn ->
        match insn with
        | I.Jsr t ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt jsr_sites t) in
          Hashtbl.replace jsr_sites t (i :: cur)
        | _ -> ())
      code.CF.instrs;
    let handlers = Array.of_list code.CF.handlers in
    let st =
      {
        oracle;
        asms;
        scope = Assumptions.In_method meth_key;
        this_class = cf.CF.name;
        super_class = cf.CF.super;
        pool = cf.CF.pool;
        slots;
        checks = 0;
        method_sig = { D.params = []; ret = None };
        max_stack = code.CF.max_stack;
        instrs = code.CF.instrs;
        handlers;
        handler_stacks =
          Array.map
            (fun h -> [ V.Ref (Option.value ~default:throwable h.CF.h_catch) ])
            handlers;
        jsr_sites;
        n;
        frames = Chunked.make n None;
        queue = Array.make 16 0;
        q_head = 0;
        q_tail = 0;
        locals = [||];
        owned = false;
        stack = [];
        depth = 0;
      }
    in
    let fail msg =
      {
        r_errors = [ Verror.make ~cls:cf.CF.name ~meth:meth_key msg ];
        r_checks = st.checks;
      }
    in
    try
      (* Parsed once per method, not once per worklist step; inside the
         try so a bad descriptor still reports as a verification error
         (entry_locals parsed it first anyway). *)
      st.method_sig <- D.method_sig_of_string m.CF.m_desc;
      run st (entry_locals ~this_class:cf.CF.name m code);
      { r_errors = []; r_checks = st.checks }
    with
    | Fail msg -> fail msg
    | CP.Invalid_index i -> fail (Printf.sprintf "invalid constant-pool index %d" i)
    | CP.Wrong_kind { index; expected } ->
      fail (Printf.sprintf "constant-pool entry %d is not a %s" index expected)
    | D.Bad_descriptor d -> fail (Printf.sprintf "bad descriptor: %s" d))

let new_slots (cf : CF.t) = Chunked.make (CP.size cf.CF.pool) Empty

let verify_method oracle asms cf m = verify_method_in (new_slots cf) oracle asms cf m

let verify_class oracle asms (cf : CF.t) =
  let slots = new_slots cf in
  List.fold_left
    (fun (errs, checks) m ->
      let r = verify_method_in slots oracle asms cf m in
      (errs @ r.r_errors, checks + r.r_checks))
    ([], 0) cf.CF.methods
