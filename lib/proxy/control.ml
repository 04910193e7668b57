(* The farm's control plane: a replicated log with term-numbered
   leader election, leadership + serving leases, and snapshot
   compaction, propagating security-policy versions and rewrite-cache
   invalidations to every shard over simnet links.

   Every shard is a full replica. Members exchange messages over a
   hub: a message from [src] to [dst] crosses [src]'s uplink
   ([m_from]) and then [dst]'s downlink ([m_to]), so partitioning one
   member's pair isolates it from every peer while the others keep
   talking — the same cut the chaos schedules have always made.

   Election. A follower that has not heard a leader for its election
   timeout becomes a candidate: it bumps its term, votes for itself
   and solicits votes. A voter grants at most one vote per term and
   only to a candidate whose log is at least as complete as its own
   (last term, then last index) — so a majority winner provably holds
   every committed entry. Timeouts are staggered by member id (one
   heartbeat interval apart), which keeps elections deterministic and
   collision-free under the discrete clock.

   Leases. Two kinds, both [lease_us] long:

   - The *leadership* lease: a leader holds it while a majority of
     members (itself included) acked a heartbeat it sent within the
     last [lease_us]. A vote grant carries the voter's *promise
     horizon* — the time until which its past acks may still be
     extending an old leader's lease — and a new leader's lease is
     not valid before the maximum promise its electing majority
     reported. Any two majorities intersect, so two leaders can never
     both hold valid leases: the election-safety invariant.

   - The *serving* lease per member: renewed only by heartbeats from
     a leader that believes its leadership lease is live, and only
     once the member has applied everything that leader holds. A
     member may serve clients only on a live serving lease
     ([member_ok]); a partitioned or restarted member fences itself.

   Commit. An entry proposed at [p] by a leased leader commits at

     max( majority of members acked it,
          min( all members acked it,
               p + lease_us + commit_margin_us ) )

   The majority arm makes the entry durable across leader changes
   (the election restriction hands it to every future leader); the
   second arm is the fence bound: by [p + lease + margin] every
   member has either applied the entry or lost the serving lease —
   provided the proposing leader still holds its leadership lease at
   the deadline, which is exactly what rules out a rival leader
   having renewed somebody meanwhile. [commit_margin_us] covers
   renewals already in flight at the proposal.

   Hand-off. A new leader re-drives the uncommitted suffix of its log
   under its own term — re-stamped, re-timed, fresh fence backstops —
   and followers adopt the new stamps in place (same content) or,
   when a dead leader left them a divergent suffix, truncate from the
   first conflicting index up, keeping the agreed prefix (committed
   entries included, as Raft does).

   Compaction. Once the committed, locally-applied prefix grows past
   [snapshot_threshold] live entries, a replica folds it into a
   snapshot — the highest committed version plus the deduplicated
   pending-invalidation set — and truncates the log. A heartbeat to a
   member whose ack position lies under the leader's fold ships the
   snapshot and the live suffix instead of replaying history.

   Restart. The durable stub a real deployment would fsync — current
   term, vote, promise horizon, snapshot, log — survives
   [mark_restarted]; everything serving-related (version, caches,
   leases) is volatile and re-derived by replaying the stub into the
   fresh node. The member stays fenced until a leader confirms it is
   not missing a suffix. *)

type entry = Set_version of int | Invalidate of string

let entry_to_string = function
  | Set_version v -> Printf.sprintf "set-version %d" v
  | Invalidate key -> Printf.sprintf "invalidate %s" key

type role = Follower | Candidate | Leader

type logrec = {
  l_index : int; (* 1-based, contiguous above the snapshot *)
  l_id : int; (* mint id: unique per proposal, kept across re-drives *)
  mutable l_term : int;
  l_entry : entry;
  mutable l_proposed_at : int64;
  mutable l_fence_ok : bool; (* fence backstop passed under the proposer *)
}

type snapshot = {
  s_index : int; (* last entry folded in *)
  s_term : int; (* its term *)
  s_version : int; (* highest folded Set_version *)
  s_pending : string list; (* folded invalidation keys, oldest first *)
}

type member = {
  m_id : int;
  m_name : string;
  m_host : Simnet.Host.t;
  m_to : Simnet.Link.t; (* fabric -> member (downlink) *)
  m_from : Simnet.Link.t; (* member -> fabric (uplink) *)
  m_apply : entry -> unit;
  (* durable stub: survives mark_restarted *)
  mutable m_term : int;
  mutable m_voted_for : int option;
  mutable m_log : logrec list; (* newest first; indices > m_snap.s_index *)
  mutable m_snap : snapshot;
  mutable m_promise_until : int64; (* horizon of leases my acks back *)
  (* volatile replica state *)
  mutable m_role : role;
  mutable m_applied : int;
  mutable m_commit_index : int;
  mutable m_version : int; (* highest Set_version applied *)
  m_invals : (string, unit) Hashtbl.t; (* applied invalidations *)
  mutable m_lease_until : int64; (* serving lease *)
  mutable m_serving : bool; (* edge detector for grant/expire events *)
  mutable m_needs_resync : bool; (* restarted; fenced until confirmed *)
  mutable m_resyncs : int;
  mutable m_snapshot_installs : int;
  mutable m_compactions : int;
  mutable m_heard_at : int64; (* last valid leader/vote contact *)
  (* candidate state *)
  mutable m_votes_got : int list;
  mutable m_lease_floor : int64; (* max promise reported by my voters *)
  (* leader state *)
  mutable m_last_hb_sent : int64;
  mutable m_ldr_lease_until : int64;
  mutable m_match : int array; (* per-peer applied position, from acks *)
  mutable m_acked_send : int64 array; (* per-peer newest echoed send time *)
}

type append = {
  a_term : int;
  a_leader : int;
  a_sent : int64;
  a_leased : bool; (* sender believes its leadership lease is live *)
  a_commit : int;
  a_last : int; (* leader's last log index *)
  a_prev_index : int; (* entry just below the shipped batch *)
  a_prev_term : int;
  a_snap : snapshot option;
  a_entries : logrec list; (* oldest first *)
}

type msg =
  | Request_vote of {
      v_term : int;
      v_cand : int;
      v_last_index : int;
      v_last_term : int;
    }
  | Vote_reply of {
      r_term : int;
      r_from : int;
      r_granted : bool;
      r_promise : int64;
    }
  | Append of append
  | Append_reply of {
      p_term : int;
      p_from : int;
      p_applied : int;
      p_echo : int64; (* send time of the heartbeat this acks *)
    }

type t = {
  engine : Simnet.Engine.t;
  lease_us : int64;
  hb_interval_us : int64;
  commit_margin_us : int64;
  election_timeout_us : int64;
  stagger_us : int64;
  snapshot_threshold : int;
  hb_bytes : int; (* wire size of an empty heartbeat / ack / vote *)
  entry_bytes : int; (* wire size per carried log entry *)
  base_version : int;
  mutable members : member array;
  mutable next_index : int; (* highest log index ever minted *)
  mutable next_id : int; (* last proposal id minted; never reused *)
  mutable version : int; (* latest *proposed* version *)
  mutable committed_version : int; (* highest committed Set_version *)
  (* Keyed by proposal id, NOT log index: a dead leader's uncommitted
     indices can be reused under a later term, and an index-keyed
     table would let a caller's stale handle flip committed for a
     different entry that later lands at the same index. *)
  commits_at : (int, int64) Hashtbl.t; (* proposal id -> commit time *)
  mutable running : bool;
  mutable until : int64;
  mutable trace_ctx : Telemetry.Trace.ctx;
  mutable trace_span : Telemetry.Trace.span option;
  mutable heartbeats : int;
  mutable acks : int;
  mutable proposals : int;
  mutable commits : int;
  mutable elections : int; (* elections won *)
  mutable stepdowns : int;
  mutable redrives : int;
  mutable compactions : int;
  mutable snapshot_installs : int;
  mutable leader_changes : int;
  mutable last_leader : int option;
}

let create engine ?(lease_us = 1_000_000L) ?(hb_interval_us = 250_000L)
    ?(commit_margin_us = 100_000L) ?(election_timeout_us = 600_000L)
    ?stagger_us ?(snapshot_threshold = 8) ?(hb_bytes = 64)
    ?(entry_bytes = 96) ?(initial_version = 1) () =
  {
    engine;
    lease_us;
    hb_interval_us;
    commit_margin_us;
    election_timeout_us;
    stagger_us = Option.value ~default:hb_interval_us stagger_us;
    snapshot_threshold;
    hb_bytes;
    entry_bytes;
    base_version = initial_version;
    members = [||];
    next_index = 0;
    next_id = 0;
    version = initial_version;
    committed_version = initial_version;
    commits_at = Hashtbl.create 64;
    running = false;
    until = 0L;
    trace_ctx = Telemetry.Trace.none;
    trace_span = None;
    heartbeats = 0;
    acks = 0;
    proposals = 0;
    commits = 0;
    elections = 0;
    stepdowns = 0;
    redrives = 0;
    compactions = 0;
    snapshot_installs = 0;
    leader_changes = 0;
    last_leader = None;
  }

let member t id =
  if id < 0 || id >= Array.length t.members then
    invalid_arg "Control.member: unknown id";
  t.members.(id)

let empty_snapshot version = { s_index = 0; s_term = 0; s_version = version; s_pending = [] }

let add_member t ~name ~host ~link_to ~link_from ~apply =
  let id = Array.length t.members in
  let m =
    {
      m_id = id;
      m_name = name;
      m_host = host;
      m_to = link_to;
      m_from = link_from;
      m_apply = apply;
      m_term = 0;
      m_voted_for = None;
      m_log = [];
      m_snap = empty_snapshot t.base_version;
      m_promise_until = 0L;
      m_role = Follower;
      m_applied = 0;
      m_commit_index = 0;
      m_version = t.base_version;
      m_invals = Hashtbl.create 16;
      (* A fresh member starts with a live lease: the log is empty, so
         there is nothing it could be missing. *)
      m_lease_until = Int64.add (Simnet.Engine.now t.engine) t.lease_us;
      m_serving = true;
      m_needs_resync = false;
      m_resyncs = 0;
      m_snapshot_installs = 0;
      m_compactions = 0;
      m_heard_at = Simnet.Engine.now t.engine;
      m_votes_got = [];
      m_lease_floor = 0L;
      m_last_hb_sent = 0L;
      m_ldr_lease_until = 0L;
      m_match = [||];
      m_acked_send = [||];
    }
  in
  t.members <- Array.append t.members [| m |];
  id

(* --- small helpers --- *)

let majority t = (Array.length t.members / 2) + 1

let last_index m =
  match m.m_log with r :: _ -> r.l_index | [] -> m.m_snap.s_index

let last_term m =
  match m.m_log with r :: _ -> r.l_term | [] -> m.m_snap.s_term

let timeout_of t m =
  Int64.add t.election_timeout_us (Int64.mul (Int64.of_int m.m_id) t.stagger_us)

let leased _t m ~now =
  m.m_role = Leader
  && Simnet.Host.is_up m.m_host
  && Int64.compare now m.m_lease_floor >= 0
  && Int64.compare now m.m_ldr_lease_until < 0

let leased_leader t =
  let now = Simnet.Engine.now t.engine in
  Array.fold_left
    (fun acc m -> if leased t m ~now then Some m else acc)
    None t.members

(* Reason events: each kind is mirrored 1:1 by a same-named telemetry
   counter; the line lands on the trace (and through it the flight
   recorder) when the control root span is live, directly on the
   flight recorder otherwise. *)
let note t m kind fmt =
  Telemetry.decision
    ~at:(Simnet.Engine.now t.engine)
    t.trace_ctx ~node:m.m_name kind fmt

let set_term t m term =
  if term > m.m_term then begin
    m.m_term <- term;
    m.m_voted_for <- None;
    note t m "control.term_bump" "term %d" term
  end

(* Role-only demotion (the term, if newer, is adopted separately). *)
let demote t m =
  if m.m_role <> Follower then begin
    m.m_role <- Follower;
    t.stepdowns <- t.stepdowns + 1;
    note t m "control.stepdown"
      "deposed at term %d" m.m_term
  end

let step_down t m ~now ~term =
  set_term t m term;
  if m.m_role <> Follower then begin
    demote t m;
    (* give the new regime one timeout before campaigning again *)
    m.m_heard_at <- now
  end

let renew_serving t m ~now =
  m.m_lease_until <- Int64.add now t.lease_us;
  if not m.m_serving then begin
    m.m_serving <- true;
    note t m "control.lease_grant"
      "serving lease until %Ld" m.m_lease_until
  end

let apply_entry t m e =
  m.m_apply e;
  (match e with
  | Set_version v -> if v > m.m_version then m.m_version <- v
  | Invalidate k -> Hashtbl.replace m.m_invals k ());
  ignore t;
  Telemetry.Global.incr "control.applies"

(* Replay a snapshot's folded effects into the member's serving
   state: the version bound, then every pending invalidation. All
   effects are idempotent joins, so replaying over live state is
   harmless. *)
let replay_fold t m (s : snapshot) =
  if s.s_index > 0 then begin
    apply_entry t m (Set_version s.s_version);
    List.iter (fun k -> apply_entry t m (Invalidate k)) s.s_pending
  end

let dedup_keep_first keys =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun k ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.replace seen k ();
        true
      end)
    keys

(* Fold the committed, locally-applied prefix into the snapshot once
   it holds [snapshot_threshold] live entries. Both leaders and
   followers compact; the fold only ever covers committed entries, so
   two folds of the same prefix are identical on every replica. *)
let maybe_compact t m =
  let bound = min m.m_commit_index m.m_applied in
  if bound > m.m_snap.s_index then begin
    let folded =
      List.rev (List.filter (fun r -> r.l_index <= bound) m.m_log)
    in
    if List.length folded >= t.snapshot_threshold then begin
      let s_term =
        List.fold_left (fun _ r -> r.l_term) m.m_snap.s_term folded
      in
      let s_version =
        List.fold_left
          (fun v r ->
            match r.l_entry with Set_version x -> max v x | _ -> v)
          m.m_snap.s_version folded
      in
      let keys =
        List.filter_map
          (fun r ->
            match r.l_entry with Invalidate k -> Some k | _ -> None)
          folded
      in
      let folded_n = List.length folded in
      m.m_snap <-
        {
          s_index = bound;
          s_term;
          s_version;
          s_pending = dedup_keep_first (m.m_snap.s_pending @ keys);
        };
      m.m_log <- List.filter (fun r -> r.l_index > bound) m.m_log;
      m.m_compactions <- m.m_compactions + 1;
      t.compactions <- t.compactions + 1;
      note t m "control.snapshot_compact"
        "folded %d entries through %d at v%d" folded_n
           bound m.m_snap.s_version
    end
  end

(* Rebuild the member's digest bookkeeping (version bound +
   invalidation set) from its snapshot fold and retained log. The
   external effects delivered through [apply] are conservative joins
   and are never undone — but the *digest* must be strictly
   log-derived, or effects applied for a dead leader's lost entries
   would make snapshot catch-up observably diverge from full-log
   replay. *)
let refresh_state p =
  p.m_version <- p.m_snap.s_version;
  Hashtbl.reset p.m_invals;
  List.iter (fun k -> Hashtbl.replace p.m_invals k ()) p.m_snap.s_pending;
  List.iter
    (fun r ->
      match r.l_entry with
      | Set_version v -> if v > p.m_version then p.m_version <- v
      | Invalidate k -> Hashtbl.replace p.m_invals k ())
    p.m_log

let install_snapshot t p (s : snapshot) =
  replay_fold t p s;
  p.m_snap <- s;
  (* Anything above the fold gets re-shipped in the same heartbeat;
     dropping the suffix wholesale sidesteps stale-conflict cases. *)
  p.m_log <- [];
  p.m_applied <- s.s_index;
  p.m_commit_index <- max p.m_commit_index s.s_index;
  refresh_state p;
  p.m_snapshot_installs <- p.m_snapshot_installs + 1;
  t.snapshot_installs <- t.snapshot_installs + 1;
  note t p "control.snapshot_install"
    "through %d at v%d (%d pending)" s.s_index s.s_version
       (List.length s.s_pending)

let term_at m idx =
  if idx <= 0 then 0
  else if idx = m.m_snap.s_index then m.m_snap.s_term
  else
    match List.find_opt (fun r -> r.l_index = idx) m.m_log with
    | Some r -> r.l_term
    | None -> 0

(* Does the member's log agree with the leader's at the batch anchor?
   Anchors inside the committed fold are trusted — folds only cover
   committed entries, and those agree everywhere. *)
let prev_ok p ~prev_index ~prev_term =
  if prev_index < p.m_snap.s_index then true
  else if prev_index = p.m_snap.s_index then prev_term = p.m_snap.s_term
  else
    match List.find_opt (fun x -> x.l_index = prev_index) p.m_log with
    | Some x -> x.l_term = prev_term
    | None -> false

(* Drop the divergent suffix a dead leader left behind: only the
   entries from the first conflicting index up. The agreed prefix —
   committed-but-not-yet-folded entries the member already acked
   included — is kept; wiping it back to the snapshot would open a
   window in which too few members hold a committed entry for the
   election restriction to guarantee the next leader has it. Applied
   effects stay (they are idempotent joins) and the next heartbeat
   re-ships the authoritative suffix. *)
let truncate_from p idx =
  p.m_log <- List.filter (fun x -> x.l_index < idx) p.m_log;
  p.m_applied <- min p.m_applied (last_index p);
  p.m_commit_index <- min p.m_commit_index p.m_applied;
  refresh_state p

(* Accept one shipped entry; false aborts the rest of the batch (the
   ack then walks the leader's view of our position back). *)
let accept_entry t p r =
  if r.l_index <= p.m_snap.s_index then true
  else
    match List.find_opt (fun x -> x.l_index = r.l_index) p.m_log with
    | Some x ->
      if x.l_entry = r.l_entry then begin
        (* a re-driven entry: same content, new term — adopt in place *)
        x.l_term <- r.l_term;
        true
      end
      else begin
        (* conflict: truncate from here up (the prefix below agrees)
           and take the leader's record in its place *)
        truncate_from p r.l_index;
        p.m_log <- r :: p.m_log;
        apply_entry t p r.l_entry;
        p.m_applied <- r.l_index;
        true
      end
    | None ->
      if r.l_index = last_index p + 1 then begin
        p.m_log <- r :: p.m_log;
        apply_entry t p r.l_entry;
        p.m_applied <- r.l_index;
        true
      end
      else false

(* Walk the contiguous committed prefix of [m]'s log: an index counts
   as committed iff the record holding it committed (by id — a reused
   index under a later term is a different record). A leader calls
   this both when a fresh entry commits and on taking office: its log
   can hold entries an earlier leader already committed, and walking
   the prefix at election time lets its fold catch up — and spares
   those entries a pointless re-drive — without waiting for new
   traffic. *)
let advance_commit_prefix t m =
  let committed_at idx =
    idx <= m.m_snap.s_index
    || (match List.find_opt (fun x -> x.l_index = idx) m.m_log with
       | Some x -> Hashtbl.mem t.commits_at x.l_id
       | None -> false)
  in
  while committed_at (m.m_commit_index + 1) do
    m.m_commit_index <- m.m_commit_index + 1
  done

let commit_rec t m r ~now =
  if not (Hashtbl.mem t.commits_at r.l_id) then begin
    Hashtbl.replace t.commits_at r.l_id now;
    t.commits <- t.commits + 1;
    (match r.l_entry with
    | Set_version v -> if v > t.committed_version then t.committed_version <- v
    | Invalidate _ -> ());
    advance_commit_prefix t m;
    Telemetry.Global.incr "control.commits";
    maybe_compact t m
  end

(* Leader-side commit rule: majority acked (durability across leader
   changes) AND (all acked, or the fence backstop passed while this
   leader's lease was live). *)
let advance_commits t m ~now =
  let maj = majority t in
  List.iter
    (fun r ->
      if not (Hashtbl.mem t.commits_at r.l_id) then begin
        let acked = ref 1 and all = ref true in
        Array.iter
          (fun p ->
            if p.m_id <> m.m_id then
              if m.m_match.(p.m_id) >= r.l_index then incr acked
              else all := false)
          t.members;
        if !acked >= maj && (!all || r.l_fence_ok) then commit_rec t m r ~now
      end)
    m.m_log

(* Sentinel in [m_acked_send] for a peer that has not acked this
   leadership at all. It must be distinguishable from a real ack (the
   clock starts at 0): a zero-initialized slot would let a fresh
   leader derive a "valid" lease from zero acks whenever now <
   lease_us, and with a nondefault election timeout shorter than the
   lease that fabricated lease could overlap a rival's. *)
let never_acked = -1L

let recompute_lease t m =
  let n = Array.length t.members in
  if Array.length m.m_acked_send = n then begin
    let vals =
      Array.init n (fun q ->
          if q = m.m_id then m.m_last_hb_sent else m.m_acked_send.(q))
    in
    Array.sort (fun a b -> Int64.compare b a) vals;
    let kth = vals.(majority t - 1) in
    (* the lease only ever derives from a real majority of acks *)
    if Int64.compare kth never_acked > 0 then begin
      let cand = Int64.add kth t.lease_us in
      if Int64.compare cand m.m_ldr_lease_until > 0 then
        m.m_ldr_lease_until <- cand
    end
  end

(* --- the message loop --- *)

let rec send t ~src ~dst ~bytes msg =
  if Simnet.Host.is_up src.m_host then
    Simnet.Link.transfer src.m_from ~bytes (fun () ->
        Simnet.Link.transfer dst.m_to ~bytes (fun () ->
            if Simnet.Host.is_up dst.m_host then handle t dst msg))

and handle t p msg =
  let now = Simnet.Engine.now t.engine in
  match msg with
  | Request_vote { v_term; v_cand; v_last_index; v_last_term } ->
    if v_term > p.m_term then step_down t p ~now ~term:v_term;
    let up_to_date =
      v_last_term > last_term p
      || (v_last_term = last_term p && v_last_index >= last_index p)
    in
    let grant =
      v_term = p.m_term
      && (match p.m_voted_for with None -> true | Some c -> c = v_cand)
      && up_to_date
    in
    if grant then begin
      p.m_voted_for <- Some v_cand;
      p.m_heard_at <- now;
      note t p "control.vote"
        "granted m%d at term %d" v_cand p.m_term
    end;
    send t ~src:p ~dst:(member t v_cand) ~bytes:t.hb_bytes
      (Vote_reply
         {
           r_term = p.m_term;
           r_from = p.m_id;
           r_granted = grant;
           r_promise = p.m_promise_until;
         })
  | Vote_reply { r_term; r_from; r_granted; r_promise } ->
    if r_term > p.m_term then step_down t p ~now ~term:r_term
    else if
      p.m_role = Candidate && r_granted && r_term = p.m_term
      && not (List.mem r_from p.m_votes_got)
    then begin
      p.m_votes_got <- r_from :: p.m_votes_got;
      if Int64.compare r_promise p.m_lease_floor > 0 then
        p.m_lease_floor <- r_promise;
      maybe_win t p ~now
    end
  | Append a -> on_append t p a ~now
  | Append_reply { p_term; p_from; p_applied; p_echo } ->
    if p_term > p.m_term then step_down t p ~now ~term:p_term
    else if p.m_role = Leader && p_term = p.m_term then begin
      t.acks <- t.acks + 1;
      Telemetry.Global.incr "control.acks";
      if Int64.compare p_echo p.m_acked_send.(p_from) >= 0 then begin
        let was = leased t p ~now in
        p.m_acked_send.(p_from) <- p_echo;
        p.m_match.(p_from) <- p_applied;
        recompute_lease t p;
        (* lease just activated: re-broadcast so serving leases resume
           without waiting out a heartbeat interval *)
        if (not was) && leased t p ~now then broadcast t p ~now;
        advance_commits t p ~now
      end
    end

and on_append t p
    ({
       a_term;
       a_leader;
       a_sent;
       a_leased;
       a_commit;
       a_last;
       a_prev_index;
       a_prev_term;
       a_snap;
       a_entries;
     } :
      append) ~now =
  let leader_m = member t a_leader in
  if a_term < p.m_term then
    (* stale leader woke up: the ack's term makes it step down *)
    reply_append t p leader_m ~echo:a_sent
  else begin
    set_term t p a_term;
    demote t p;
    p.m_role <- Follower;
    p.m_heard_at <- now;
    (* my acks may extend this leader's lease until now + lease_us:
       the promise a future vote of mine must report *)
    p.m_promise_until <- Int64.add now t.lease_us;
    (match a_snap with
    | Some s when s.s_index > p.m_applied -> install_snapshot t p s
    | _ -> ());
    if prev_ok p ~prev_index:a_prev_index ~prev_term:a_prev_term then begin
      let ok = ref true in
      List.iter (fun r -> if !ok then ok := accept_entry t p r) a_entries
    end
    else
      (* the anchor disagrees: drop the suffix from the anchor up; the
         ack reports the clamped position and the leader re-ships from
         the agreed prefix *)
      truncate_from p a_prev_index;
    (* A suffix above the leader's last entry, stamped by an older
       term, came from a dead leader and is lost — this leader never
       had it. Drop it or it haunts the state digest forever. *)
    let live, junk =
      List.partition
        (fun r -> r.l_index <= a_last || r.l_term >= a_term)
        p.m_log
    in
    if junk <> [] then begin
      p.m_log <- live;
      p.m_applied <- min p.m_applied (last_index p);
      refresh_state p
    end;
    p.m_commit_index <- max p.m_commit_index (min a_commit p.m_applied);
    maybe_compact t p;
    if p.m_needs_resync && p.m_applied >= a_last then begin
      p.m_needs_resync <- false;
      p.m_resyncs <- p.m_resyncs + 1;
      Telemetry.Global.incr "control.resyncs";
      note t p "control.resync"
        "caught up through %d" p.m_applied
    end;
    (* The serving lease renews only under a live leadership lease,
       and only once this member holds everything the leader does —
       the ordering the commit fence relies on. *)
    if a_leased && (not p.m_needs_resync) && p.m_applied >= a_last then
      renew_serving t p ~now;
    reply_append t p leader_m ~echo:a_sent
  end

and reply_append t p leader_m ~echo =
  send t ~src:p ~dst:leader_m ~bytes:t.hb_bytes
    (Append_reply
       {
         p_term = p.m_term;
         p_from = p.m_id;
         p_applied = p.m_applied;
         p_echo = echo;
       })

and broadcast t m ~now =
  m.m_last_hb_sent <- now;
  recompute_lease t m;
  let is_leased = leased t m ~now in
  let last = last_index m in
  Array.iter
    (fun p ->
      if p.m_id <> m.m_id then begin
        let base = min m.m_match.(p.m_id) last in
        let snap, base =
          if base < m.m_snap.s_index then (Some m.m_snap, m.m_snap.s_index)
          else (None, base)
        in
        let entries =
          List.rev_map
            (fun r -> { r with l_index = r.l_index })
            (List.filter (fun r -> r.l_index > base) m.m_log)
        in
        let bytes =
          t.hb_bytes
          + (t.entry_bytes * List.length entries)
          + (match snap with
            | None -> 0
            | Some s -> t.entry_bytes * (1 + List.length s.s_pending))
        in
        t.heartbeats <- t.heartbeats + 1;
        Telemetry.Global.incr "control.heartbeats";
        send t ~src:m ~dst:p ~bytes
          (Append
             {
               a_term = m.m_term;
               a_leader = m.m_id;
               a_sent = now;
               a_leased = is_leased;
               a_commit = m.m_commit_index;
               a_last = last;
               a_prev_index = base;
               a_prev_term = term_at m base;
               a_snap = snap;
               a_entries = entries;
             })
      end)
    t.members

and maybe_win t m ~now =
  if m.m_role = Candidate && List.length m.m_votes_got >= majority t then
    become_leader t m ~now

and become_leader t m ~now =
  m.m_role <- Leader;
  let n = Array.length t.members in
  m.m_match <- Array.make n 0;
  m.m_acked_send <- Array.make n never_acked;
  m.m_ldr_lease_until <- 0L;
  t.elections <- t.elections + 1;
  if t.last_leader <> Some m.m_id then begin
    t.leader_changes <- t.leader_changes + 1;
    t.last_leader <- Some m.m_id
  end;
  note t m "control.election_win"
    "term %d with %d votes" m.m_term
       (List.length m.m_votes_got);
  (* Entries a fallen leader already committed need no re-drive; walk
     the committed prefix first so the fold can catch up and only the
     genuinely uncommitted suffix is re-stamped. *)
  advance_commit_prefix t m;
  maybe_compact t m;
  (* Re-drive the uncommitted suffix under the new term: fresh stamp,
     fresh propose time, fresh fence backstop. *)
  List.iter
    (fun r ->
      if r.l_index > m.m_commit_index && r.l_term <> m.m_term then begin
        r.l_term <- m.m_term;
        r.l_proposed_at <- now;
        r.l_fence_ok <- false;
        t.redrives <- t.redrives + 1;
        note t m "control.redrive"
          "entry %d under term %d" r.l_index m.m_term;
        arm_backstop t m r
      end)
    m.m_log;
  broadcast t m ~now

and start_election t m ~now =
  set_term t m (m.m_term + 1);
  m.m_voted_for <- Some m.m_id;
  m.m_role <- Candidate;
  m.m_votes_got <- [ m.m_id ];
  m.m_lease_floor <- m.m_promise_until;
  m.m_heard_at <- now;
  note t m "control.vote"
    "granted m%d at term %d (self)" m.m_id m.m_term;
  Array.iter
    (fun p ->
      if p.m_id <> m.m_id then
        send t ~src:m ~dst:p ~bytes:t.hb_bytes
          (Request_vote
             {
               v_term = m.m_term;
               v_cand = m.m_id;
               v_last_index = last_index m;
               v_last_term = last_term m;
             }))
    t.members;
  maybe_win t m ~now

(* The fence backstop: at propose + lease + margin, every member has
   either applied the entry or lost its serving lease — sound only
   while the proposing leader still holds the leadership lease (a
   rival leased leader would imply this one's lease had lapsed
   first). A transiently unleased leader re-arms and retries. *)
and arm_backstop t m r =
  let fire_at =
    Int64.add r.l_proposed_at (Int64.add t.lease_us t.commit_margin_us)
  in
  let term = r.l_term in
  Simnet.Engine.schedule_at t.engine fire_at (fun () ->
      backstop_check t m r ~term)

and backstop_check t m r ~term =
  let now = Simnet.Engine.now t.engine in
  if
    t.running && m.m_role = Leader && m.m_term = term && r.l_term = term
    && not (Hashtbl.mem t.commits_at r.l_id)
  then
    if leased t m ~now then begin
      r.l_fence_ok <- true;
      advance_commits t m ~now
    end
    else
      Simnet.Engine.schedule t.engine ~delay:t.hb_interval_us (fun () ->
          backstop_check t m r ~term)

and tick t () =
  if t.running then begin
    let now = Simnet.Engine.now t.engine in
    if Int64.compare now t.until <= 0 then begin
      Array.iter (fun m -> step t m ~now) t.members;
      Simnet.Engine.schedule t.engine ~delay:t.hb_interval_us (fun () ->
          tick t ())
    end
  end

and step t m ~now =
  if Simnet.Host.is_up m.m_host then begin
    if m.m_serving && Int64.compare now m.m_lease_until >= 0 then begin
      m.m_serving <- false;
      note t m "control.lease_expire"
        "serving lease lapsed at term %d" m.m_term
    end;
    match m.m_role with
    | Leader ->
      broadcast t m ~now;
      if leased t m ~now && not m.m_needs_resync then renew_serving t m ~now
    | Follower | Candidate ->
      if Int64.compare (Int64.sub now m.m_heard_at) (timeout_of t m) >= 0
      then start_election t m ~now
  end

(* --- public surface --- *)

let start t ~until =
  if not t.running then begin
    t.running <- true;
    t.until <- until;
    if Telemetry.Trace.enabled () then begin
      let sp = Telemetry.Trace.root ~node:"control" "control.plane" in
      t.trace_span <- Some sp;
      t.trace_ctx <- Telemetry.Trace.ctx_of sp
    end;
    tick t ()
  end

let stop t =
  t.running <- false;
  (match t.trace_span with
  | Some sp -> Telemetry.Trace.finish sp
  | None -> ());
  t.trace_span <- None;
  t.trace_ctx <- Telemetry.Trace.none

let propose t e =
  let now = Simnet.Engine.now t.engine in
  match leased_leader t with
  | None -> None
  | Some m ->
    let idx = last_index m + 1 in
    t.next_id <- t.next_id + 1;
    let r =
      {
        l_index = idx;
        l_id = t.next_id;
        l_term = m.m_term;
        l_entry = e;
        l_proposed_at = now;
        l_fence_ok = false;
      }
    in
    m.m_log <- r :: m.m_log;
    (* the leader applies its own entries immediately — it renews its
       serving lease only while leased, preserving apply-before-renew *)
    apply_entry t m e;
    m.m_applied <- idx;
    t.proposals <- t.proposals + 1;
    (match e with
    | Set_version v -> if v > t.version then t.version <- v
    | Invalidate _ -> ());
    if idx > t.next_index then t.next_index <- idx;
    Telemetry.Global.incr "control.proposals";
    arm_backstop t m r;
    advance_commits t m ~now;
    Some r.l_id

let member_ok t id =
  let m = member t id in
  Int64.compare (Simnet.Engine.now t.engine) m.m_lease_until < 0

let mark_restarted t id =
  let m = member t id in
  let now = Simnet.Engine.now t.engine in
  m.m_role <- Follower;
  m.m_lease_until <- 0L;
  m.m_serving <- false;
  m.m_ldr_lease_until <- 0L;
  m.m_votes_got <- [];
  m.m_heard_at <- now;
  (* Serving state is volatile: re-derive it by replaying the durable
     stub — snapshot fold, then the retained suffix — into the fresh
     node. Term, vote and promise survive as-is (the stub a real
     deployment fsyncs), so a member can never vote twice in a term
     across a reboot. *)
  m.m_version <- t.base_version;
  Hashtbl.reset m.m_invals;
  m.m_applied <- 0;
  replay_fold t m m.m_snap;
  m.m_applied <- m.m_snap.s_index;
  List.iter
    (fun r ->
      apply_entry t m r.l_entry;
      m.m_applied <- r.l_index)
    (List.rev m.m_log);
  m.m_commit_index <- min m.m_commit_index m.m_applied;
  m.m_needs_resync <- t.next_index > 0;
  Telemetry.Global.incr "control.restarts"

let committed t ~id = Hashtbl.mem t.commits_at id
let commit_us t ~id = Hashtbl.find_opt t.commits_at id
let committed_version t = t.committed_version
let current_version t = t.version
let log_length t = t.next_index
let member_count t = Array.length t.members
let member_name t id = (member t id).m_name
let member_version t id = (member t id).m_version
let member_applied t id = (member t id).m_applied
let member_resyncs t id = (member t id).m_resyncs
let member_term t id = (member t id).m_term

let member_role t id =
  match (member t id).m_role with
  | Follower -> "follower"
  | Candidate -> "candidate"
  | Leader -> "leader"

let member_snapshot_index t id = (member t id).m_snap.s_index
let member_snapshot_installs t id = (member t id).m_snapshot_installs
let member_log_live t id = List.length (member t id).m_log

let member_state_digest t id =
  let m = member t id in
  let keys =
    List.sort String.compare
      (Hashtbl.fold (fun k () acc -> k :: acc) m.m_invals [])
  in
  Printf.sprintf "v%d|%s" m.m_version (String.concat "," keys)

let leader t = Option.map (fun m -> m.m_id) (leased_leader t)

let leased_leaders t =
  let now = Simnet.Engine.now t.engine in
  Array.fold_left
    (fun acc m -> if leased t m ~now then m.m_id :: acc else acc)
    [] t.members
  |> List.rev

let term t = Array.fold_left (fun acc m -> max acc m.m_term) 0 t.members

(* The authoritative log: the leased leader's if there is one, else
   the most election-worthy member's — the log any next leader must
   contain. *)
let authoritative t =
  match leased_leader t with
  | Some m -> Some m
  | None ->
    Array.fold_left
      (fun best m ->
        match best with
        | None -> Some m
        | Some b ->
          if
            last_term m > last_term b
            || (last_term m = last_term b && last_index m > last_index b)
          then Some m
          else best)
      None t.members

let replay_digest t =
  match authoritative t with
  | None -> Printf.sprintf "v%d|" t.base_version
  | Some m ->
    let oldest = List.rev m.m_log in
    let v =
      List.fold_left
        (fun v r -> match r.l_entry with Set_version x -> max v x | _ -> v)
        m.m_snap.s_version oldest
    in
    let keys =
      m.m_snap.s_pending
      @ List.filter_map
          (fun r ->
            match r.l_entry with Invalidate k -> Some k | _ -> None)
          oldest
    in
    let keys = List.sort_uniq String.compare keys in
    Printf.sprintf "v%d|%s" v (String.concat "," keys)

let converged t =
  let now = Simnet.Engine.now t.engine in
  match leased_leader t with
  | None -> false
  | Some l ->
    let last = last_index l in
    Array.for_all
      (fun m ->
        m.m_applied >= last
        && (not m.m_needs_resync)
        && Int64.compare now m.m_lease_until < 0)
      t.members

let heartbeats t = t.heartbeats
let acks t = t.acks
let proposals t = t.proposals
let commits t = t.commits
let elections t = t.elections
let stepdowns t = t.stepdowns
let redrives t = t.redrives
let compactions t = t.compactions
let snapshot_installs t = t.snapshot_installs
let leader_changes t = t.leader_changes

let resyncs t =
  Array.fold_left (fun acc m -> acc + m.m_resyncs) 0 t.members
