(* Instruction-stream patching: the core mechanic of every static
   service component. Services insert instruction blocks before
   existing instructions; branch targets, exception tables and stack
   bounds are fixed up so the result is again a well-formed method.

   Inserted blocks may contain internal branches; their targets are
   interpreted *relative to the block* (0 = first inserted
   instruction). Falling off the end of a block continues into the
   instruction the block was inserted before, so straight-line
   instrumentation needs no explicit jump.

   Each insertion chooses how existing branches interact with it:

   - [redirect = true] (the common case): old branch targets pointing
     at the insertion point are redirected to the block, so the
     instrumentation runs no matter how control reaches the guarded
     instruction.
   - [redirect = false]: branches keep pointing at the original
     instruction; the block runs only when control *falls through*
     into the insertion point. This is how a loop-invariant check is
     hoisted to a loop header — the back edge must skip it.

   At a shared insertion point, fall-through-only blocks are laid out
   first, then redirected blocks, then the original instruction, so
   both semantics hold simultaneously. *)

module I = Bytecode.Instr
module CF = Bytecode.Classfile

type insertion = {
  at : int; (* insert before the instruction currently at this index *)
  block : I.t list; (* targets are block-relative *)
  redirect : bool;
}

let before ?(redirect = true) at block = { at; block; redirect }

(* The layout of a patched method: where every original instruction
   landed, where branches into an old index now go, and where each
   inserted block begins. Certificate emission needs exactly this —
   the rewriter's elision facts are computed over the original code
   but certificates must name positions in the rewritten code the
   validator sees. *)
type layout = {
  l_instr : int array;
      (* old instruction index -> its new index (length n+1; slot n is
         the append point) *)
  l_target : int array;
      (* old branch target -> new target (skips fall-through-only
         blocks, runs redirected ones) *)
  l_starts : int array;
      (* per input insertion, in list order: new index of the block's
         first instruction *)
}

(* An insertion in layout order. Sorting by point, fall-through-only
   blocks before redirected ones, each kept in input order, gives the
   order blocks are laid out in; [pos] is the block's input position. *)
type placed = { p_at : int; p_fall : bool; p_pos : int; p_block : I.t list }

let layout_order a b =
  if a.p_at <> b.p_at then Int.compare a.p_at b.p_at
  else Bool.compare b.p_fall a.p_fall

(* Where the patched code puts things, without a per-instruction table:
   insertions are few, so positions come from a binary search over the
   placed blocks and their prefix lengths ([before.(j)] = total length
   of blocks [0, j)). *)
type plan = { n : int; placed : placed array; before : int array }

let plan (code : CF.code) insertions =
  let n = Array.length code.CF.instrs in
  List.iter
    (fun { at; _ } ->
      if at < 0 || at > n then invalid_arg "Patch.apply_insertions: bad index")
    insertions;
  let placed =
    Array.of_list
      (List.mapi
         (fun pos { at; block; redirect } ->
           { p_at = at; p_fall = not redirect; p_pos = pos; p_block = block })
         insertions)
  in
  Array.stable_sort layout_order placed;
  let k = Array.length placed in
  let before = Array.make (k + 1) 0 in
  for j = 0 to k - 1 do
    before.(j + 1) <- before.(j) + List.length placed.(j).p_block
  done;
  { n; placed; before }

(* First placed block at a point >= t. *)
let first_at p t =
  let lo = ref 0 and hi = ref (Array.length p.placed) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.placed.(mid).p_at < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Old index [t] -> new index of the first block inserted at [t] (or of
   the old instruction, when none is). [n] is the append point; anything
   outside [0, n] fails as an out-of-bounds table lookup would. *)
let start p t =
  if t < 0 || t > p.n then invalid_arg "index out of bounds";
  t + p.before.(first_at p t)

(* Old branch target [t] skips the fall-through-only blocks at [t] but
   runs the redirected ones. *)
let retarget p t =
  if t < 0 || t > p.n then invalid_arg "index out of bounds";
  let j = ref (first_at p t) in
  while
    !j < Array.length p.placed
    && p.placed.(!j).p_at = t
    && p.placed.(!j).p_fall
  do
    incr j
  done;
  t + p.before.(!j)

(* Old instruction [i] lands after every block inserted at [i]. *)
let landing p i = i + p.before.(first_at p (i + 1))

let apply p (code : CF.code) =
  let total = p.n + p.before.(Array.length p.placed) in
  let instrs = if total = 0 then [||] else Array.make total I.Nop in
  let starts = Array.make (Array.length p.placed) 0 in
  let next = ref 0 in
  let emit i =
    instrs.(!next) <- i;
    incr next
  in
  let j = ref 0 in
  let emit_blocks_at i =
    while !j < Array.length p.placed && p.placed.(!j).p_at = i do
      let pl = p.placed.(!j) in
      let b = !next in
      starts.(pl.p_pos) <- b;
      let rel t = b + t in
      List.iter (fun ins -> emit (I.map_targets rel ins)) pl.p_block;
      incr j
    done
  in
  let retarget = retarget p in
  for i = 0 to p.n - 1 do
    emit_blocks_at i;
    emit (I.map_targets retarget code.CF.instrs.(i))
  done;
  (* Trailing blocks at index n, if any. *)
  emit_blocks_at p.n;
  let handlers =
    List.map
      (fun h ->
        {
          CF.h_start = start p h.CF.h_start;
          h_end = start p h.CF.h_end;
          h_target = retarget h.CF.h_target;
          h_catch = h.CF.h_catch;
        })
      code.CF.handlers
  in
  ({ code with CF.instrs; handlers }, starts)

(* [n] (the code length) is a valid insertion point meaning "append at
   the very end" — used when instrumenting past the last instruction
   is needed (rare; returns are usually the anchor). *)
let apply_insertions code insertions = fst (apply (plan code insertions) code)

let apply_insertions_layout (code : CF.code) (insertions : insertion list) :
    CF.code * layout =
  let p = plan code insertions in
  let code', starts = apply p code in
  let n = p.n in
  ( code',
    {
      l_instr = Array.init (n + 1) (landing p);
      l_target = Array.init (n + 1) (retarget p);
      l_starts = starts;
    } )

(* Recompute stack/locals bounds after patching. The estimate walks the
   new CFG; we keep at least the original bounds, so instrumentation
   can only widen. *)
let refit_bounds pool ~params ~is_static (code : CF.code) : CF.code =
  let handler_targets = List.map (fun h -> h.CF.h_target) code.CF.handlers in
  let max_stack =
    Int.max code.CF.max_stack
      (Bytecode.Builder.estimate_max_stack ~handler_targets pool code.CF.instrs)
  in
  let max_locals =
    Int.max code.CF.max_locals
      (Bytecode.Builder.estimate_max_locals ~params ~is_static code.CF.instrs)
  in
  { code with CF.max_stack; max_locals }

(* Dataflow-exact bounds over *reachable* code. Unlike [refit_bounds],
   dead instructions — e.g. left stranded after an unconditional
   branch by an eliding pass — contribute nothing, and the original
   bounds are not a floor: a method whose deepest-stack path was
   removed gets smaller bounds back. Falls back to [refit_bounds]
   when the code is outside the CFG builder's model — including
   [Solver.Diverged]: the depth lattice has no widening, so a
   net-stack-increasing loop (unverifiable, but decodable) never
   reaches a fixpoint. *)
let recompute pool ~params ~is_static (code : CF.code) : CF.code =
  match
    let cfg = Analysis.Cfg.of_code code in
    let max_stack = Analysis.Stackeff.max_stack pool cfg in
    let max_locals = Analysis.Stackeff.max_locals ~params ~is_static cfg in
    { code with CF.max_stack; max_locals }
  with
  | code -> code
  | exception
      ( Analysis.Cfg.Malformed _ | Analysis.Solver.Diverged _
      | Bytecode.Cp.Invalid_index _ | Bytecode.Cp.Wrong_kind _
      | Bytecode.Descriptor.Bad_descriptor _ ) ->
    refit_bounds pool ~params ~is_static code

let is_return = function
  | I.Ireturn | I.Areturn | I.Return -> true
  | _ -> false

let return_sites (code : CF.code) =
  let sites = ref [] in
  Array.iteri
    (fun i ins -> if is_return ins then sites := i :: !sites)
    code.CF.instrs;
  List.rev !sites

(* Instrument a method body: [entry] runs before the first instruction,
   [before_return] runs before every return. Both blocks must preserve
   the operand stack. *)
let instrument_method pool (m : CF.meth) ~entry ~before_return : CF.meth =
  match m.CF.m_code with
  | None -> m
  | Some code ->
    let insertions =
      (if entry = [] then [] else [ before 0 entry ])
      @
      if before_return = [] then []
      else List.map (fun at -> before at before_return) (return_sites code)
    in
    if insertions = [] then m
    else
      let code = apply_insertions code insertions in
      let sg = Bytecode.Descriptor.method_sig_of_string m.CF.m_desc in
      let code =
        refit_bounds pool
          ~params:(Bytecode.Descriptor.param_slots sg)
          ~is_static:(CF.has_flag m.CF.m_flags CF.Static)
          code
      in
      { m with CF.m_code = Some code }
