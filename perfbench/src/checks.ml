(* Output checks. A wrong output or a safety violation raises
   [Violation] and the benchmark exits nonzero without a result; a
   liveness failure is reported and counted in [error_rate]. *)

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* apps: the DVM run must print what the Monolithic run printed, which
   passes through no proxy and no rewriting. *)
let app_output ~app ~reference ~output =
  if String.equal output reference then Ok ()
  else
    Error
      (Printf.sprintf "%s: DVM output differs from its Monolithic output" app)

(* A §3.1 replacement class keeps only an initializer that throws; a
   served class must keep every method of the class the origin holds. *)
let keeps_methods ~(origin : Bytecode.Classfile.t) (cf : Bytecode.Classfile.t) =
  List.for_all
    (fun (m : Bytecode.Classfile.meth) ->
      List.exists
        (fun (m' : Bytecode.Classfile.meth) ->
          String.equal m.m_name m'.m_name && String.equal m.m_desc m'.m_desc)
        cf.methods)
    origin.methods

(* proxy_cold: the reply is [Bytes], decodes, is not a replacement
   class, carries a valid signature and equals the layer-by-layer
   decomposition of the same input. *)
let served_class ~key ~(origin : Bytecode.Classfile.t) ~expected
    (reply : Proxy.reply) =
  match reply with
  | Proxy.Not_found | Proxy.Unavailable | Proxy.Overloaded ->
    Error (origin.name ^ ": reply is not Bytes")
  | Proxy.Bytes b -> (
    match Bytecode.Decode.class_of_bytes b with
    | exception Bytecode.Decode.Format_error e ->
      Error (Printf.sprintf "%s: served bytes do not decode: %s" origin.name e)
    | cf ->
      if not (String.equal cf.name origin.name) then
        Error (Printf.sprintf "%s: served class is named %s" origin.name cf.name)
      else if not (keeps_methods ~origin cf) then
        Error (origin.name ^ ": served a replacement class")
      else (
        match Dsig.Sign.verify [ key ] cf with
        | Dsig.Sign.Valid ->
          if String.equal b expected then Ok ()
          else Error (origin.name ^ ": served bytes differ from the decomposition")
        | Dsig.Sign.Unsigned -> Error (origin.name ^ ": served class is unsigned")
        | Dsig.Sign.Bad_signature -> Error (origin.name ^ ": bad signature")
        | Dsig.Sign.Unknown_key k ->
          Error (Printf.sprintf "%s: signed with unknown key %s" origin.name k)))

type verdict = Pass | Liveness of string | Safety of string

(* farm_chaos: digest mismatch and late serves are safety violations;
   a run that does not recover is a liveness failure. *)
let chaos (v : Dvm.Chaos.verdict) =
  let r =
    if not v.v_digests_ok then Safety "digest mismatch"
    else if not v.v_no_late_serves then Safety "late serves"
    else if not v.v_recovered then Liveness "recovered=false"
    else Pass
  in
  assert ((r = Pass) = Dvm.Chaos.ok v);
  r

(* policy_bump: revoked serves, two leased leaders, term regressions,
   digest drift, and snapshot state that differs from a full-log replay
   on a converged farm are safety violations; a farm that does not
   converge (so cannot be replay-checked) is a liveness failure. *)
let control (w : Dvm.Chaos.control_verdict) =
  let both f = f w.w_reference || f w.w_chaotic in
  let r =
    if not w.w_no_revoked_serves then Safety "revoked serves"
    else if both (fun o -> o.Dvm.Chaos.cn_max_leased > 1) then
      Safety "two leased leaders"
    else if both (fun o -> o.Dvm.Chaos.cn_term_regressions > 0) then
      Safety "term regression"
    else if not w.w_digests_ok then Safety "digest mismatch"
    else if
      both (fun o -> o.Dvm.Chaos.cn_converged && not o.Dvm.Chaos.cn_replay_ok)
    then Safety "snapshot state differs from full-log replay"
    else if not (w.w_converged && w.w_replay_ok) then
      Liveness
        (Printf.sprintf "converged=%b replay_ok=%b" w.w_converged w.w_replay_ok)
    else Pass
  in
  assert ((r = Pass) = Dvm.Chaos.control_ok w);
  r
