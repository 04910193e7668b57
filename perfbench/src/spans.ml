(* Benchmark-side spans. The benchmark wraps its own calls into each
   layer's public functions; nothing inside the program is traced.
   Spans stay in memory until [write] dumps them at the end of a run. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  req : string;  (** request id shared by the spans of one operation *)
  start_s : float;
  stop_s : float;
}

let now = Unix.gettimeofday

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** ids of the open spans, innermost first *)
}

let create () = { spans = []; next_id = 0; stack = [] }

let with_span t ?(req = "") name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_s = now () in
  let finish () =
    let stop_s = now () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; req; start_s; stop_s } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans

let duration s = s.stop_s -. s.start_s

(* Self time: a span's duration minus the part its direct children
   cover. Children never overlap (one thread), so their durations add. *)
let self_times (spans : span list) : (span * float) list =
  let child_total = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev =
          Option.value ~default:0.0 (Hashtbl.find_opt child_total s.parent)
        in
        Hashtbl.replace child_total s.parent (prev +. duration s))
    spans;
  List.map
    (fun s ->
      let covered =
        Option.value ~default:0.0 (Hashtbl.find_opt child_total s.id)
      in
      (s, duration s -. covered))
    spans

let self_by_name spans name =
  List.filter_map
    (fun (s, self) -> if String.equal s.name name then Some self else None)
    (self_times spans)

let durations_by_name spans name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (duration s) else None)
    spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line, so a large trace streams through line
   tools; times are microseconds since the first span started. *)
let write t path =
  let all = spans t in
  let t0 = match all with s :: _ -> s.start_s | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%s,\"req\":%s,\"start_us\":%.1f,\"end_us\":%.1f}\n"
            s.id s.parent (json_string s.name) (json_string s.req)
            ((s.start_s -. t0) *. 1e6)
            ((s.stop_s -. t0) *. 1e6))
        all)
