(* The audit trail (§3.3). Events live on a central administration
   host, off-limits to untrusted applications: a security breach may
   stop the creation of new events but cannot tamper with existing
   ones. We make that property checkable with a hash chain — each event
   seals the digest of its predecessor. *)

type event = {
  ev_seq : int;
  ev_time : int64; (* simulated time or client cost when emitted *)
  ev_session : int;
  ev_kind : string; (* e.g. "app.start", "method.enter", "security.deny" *)
  ev_detail : string;
  ev_chain : string; (* hex MD5 over (prev chain ^ this event) *)
}

type t = {
  mutable events : event list; (* newest first *)
  mutable last_chain : string;
  mutable count : int;
  clock : unit -> int64;
      (* supplies ev_time when the caller does not; inject the simulation
         clock here so audit events and telemetry spans agree on
         timestamps *)
}

let create ?(clock = fun () -> 0L) () =
  { events = []; last_chain = "genesis"; count = 0; clock }

(* One seal per audited method entry/exit makes this the hottest
   string-building site in the monitor. The
   "prev|seq|time|session|kind|detail" image is assembled in a reused
   buffer, with decimals written in place, and hashed straight from
   the buffer: no printf, no number-to-string temporaries and no copy
   of the image. *)
let seal_img = ref (Bytes.create 256)

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_sep b pos =
  Bytes.set b pos '|';
  pos + 1

(* [n] in decimal, as [string_of_int] writes it. Digits come from the
   non-positive [-|n|], which also covers [min_int]. *)
let put_int b pos n =
  let m = if n < 0 then n else -n in
  let rec ndigits m k = if m > -10 then k else ndigits (m / 10) (k + 1) in
  let len = ndigits m 1 + if n < 0 then 1 else 0 in
  if n < 0 then Bytes.set b pos '-';
  let rec fill m i =
    Bytes.set b i (Char.chr (48 - (m mod 10)));
    if m <= -10 then fill (m / 10) (i - 1)
  in
  fill m (pos + len - 1);
  pos + len

let put_int64 b pos n =
  if
    Int64.compare n (Int64.of_int min_int) >= 0
    && Int64.compare n (Int64.of_int max_int) <= 0
  then put_int b pos (Int64.to_int n)
  else put_string b pos (Int64.to_string n)

let seal ~prev ~seq ~time ~session ~kind ~detail =
  (* three decimals of at most 20 characters each, five separators *)
  let need =
    String.length prev + String.length kind + String.length detail + 65
  in
  if Bytes.length !seal_img < need then
    seal_img := Bytes.create (max need (2 * Bytes.length !seal_img));
  let b = !seal_img in
  let pos = put_sep b (put_string b 0 prev) in
  let pos = put_sep b (put_int b pos seq) in
  let pos = put_sep b (put_int64 b pos time) in
  let pos = put_sep b (put_int b pos session) in
  let pos = put_sep b (put_string b pos kind) in
  let pos = put_string b pos detail in
  Dsig.Md5.to_hex (Dsig.Md5.digest_subbytes b 0 pos)

let append ?time t ~session ~kind ~detail =
  let time = match time with Some t -> t | None -> t.clock () in
  let ev =
    {
      ev_seq = t.count;
      ev_time = time;
      ev_session = session;
      ev_kind = kind;
      ev_detail = detail;
      ev_chain =
        seal ~prev:t.last_chain ~seq:t.count ~time ~session ~kind ~detail;
    }
  in
  t.events <- ev :: t.events;
  t.last_chain <- ev.ev_chain;
  t.count <- t.count + 1

let events t = List.rev t.events

(* Recompute the chain from the beginning; any in-place tampering
   breaks every subsequent seal. *)
let verify_chain t =
  let rec go prev = function
    | [] -> true
    | ev :: rest ->
      String.equal ev.ev_chain
        (seal ~prev ~seq:ev.ev_seq ~time:ev.ev_time ~session:ev.ev_session
           ~kind:ev.ev_kind ~detail:ev.ev_detail)
      && go ev.ev_chain rest
  in
  go "genesis" (events t)

let count t = t.count

let filter_kind t kind =
  List.filter (fun ev -> String.equal ev.ev_kind kind) (events t)

let pp_event ppf ev =
  Format.fprintf ppf "#%d t=%Ldus s=%d %s %s" ev.ev_seq ev.ev_time
    ev.ev_session ev.ev_kind ev.ev_detail

(* Serialize the log for shipment to (or archival at) the console
   host; import re-verifies every seal, so a log tampered with in
   transit is refused. *)
exception Corrupt_log of string

let to_bytes t =
  let w = Bytecode.Io.Writer.create () in
  Bytecode.Io.Writer.u4 w t.count;
  List.iter
    (fun ev ->
      Bytecode.Io.Writer.u4 w ev.ev_seq;
      Bytecode.Io.Writer.u4 w (Int64.to_int ev.ev_time);
      Bytecode.Io.Writer.u4 w ev.ev_session;
      Bytecode.Io.Writer.str w ev.ev_kind;
      Bytecode.Io.Writer.str w ev.ev_detail;
      Bytecode.Io.Writer.str w ev.ev_chain)
    (events t);
  Bytecode.Io.Writer.contents w

let of_bytes data =
  let r = Bytecode.Io.Reader.of_string data in
  try
    let n = Bytecode.Io.Reader.u4 r in
    let t = create () in
    for _ = 1 to n do
      let seq = Bytecode.Io.Reader.u4 r in
      let time = Int64.of_int (Bytecode.Io.Reader.u4 r) in
      let session = Bytecode.Io.Reader.u4 r in
      let kind = Bytecode.Io.Reader.str r in
      let detail = Bytecode.Io.Reader.str r in
      let chain = Bytecode.Io.Reader.str r in
      append t ~time ~session ~kind ~detail;
      (* the recomputed seal must equal the transported one *)
      match t.events with
      | ev :: _ ->
        if ev.ev_seq <> seq || not (String.equal ev.ev_chain chain) then
          raise (Corrupt_log (Printf.sprintf "seal mismatch at event %d" seq))
      | [] -> assert false
    done;
    if not (Bytecode.Io.Reader.at_end r) then
      raise (Corrupt_log "trailing bytes");
    t
  with Bytecode.Io.Truncated m -> raise (Corrupt_log m)
