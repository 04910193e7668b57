(* Big-endian byte-level readers and writers used by the class-file
   encoder/decoder and by services that attach binary attributes. *)

exception Truncated of string
exception Overflow of string

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u1 b v = Buffer.add_char b (Char.chr (v land 0xff))

  (* Counts, indices and offsets are u2 on the wire: a value that does
     not fit is a structural error in the class being emitted, and
     silently masking it would produce a syntactically valid but
     corrupt class file. Raise instead. *)
  let overflow what v =
    raise (Overflow (Printf.sprintf "%s: value %d exceeds 16 bits" what v))

  let u2 b v =
    if v < 0 || v > 0xffff then overflow "u2" v;
    u1 b (v lsr 8);
    u1 b (v land 0xff)

  let u4 b v =
    u1 b ((v lsr 24) land 0xff);
    u1 b ((v lsr 16) land 0xff);
    u1 b ((v lsr 8) land 0xff);
    u1 b (v land 0xff)

  let i4 b (v : int32) = u4 b (Int32.to_int v land 0xffffffff)

  let i2 b v =
    (* two's-complement 16-bit *)
    if v < -0x8000 || v > 0x7fff then overflow "i2" v;
    u2 b (v land 0xffff)

  let str b s =
    if String.length s > 0xffff then
      raise
        (Overflow
           (Printf.sprintf "str: string length %d exceeds 65535"
              (String.length s)));
    u2 b (String.length s);
    Buffer.add_string b s

  let raw b s = Buffer.add_string b s
  let contents = Buffer.contents
  let reset = Buffer.clear
end

module Reader = struct
  (* A reader is a slice view [off, limit) of an underlying string;
     [sub] carves nested slices without copying the bytes. [pos] is an
     absolute index into [data], but every reported position (and
     [pos]/[remaining]) is relative to the slice, so errors read the
     same whether the bytes came from a whole string or a view. *)
  type t = { data : string; off : int; limit : int; mutable pos : int }

  let of_string data = { data; off = 0; limit = String.length data; pos = 0 }
  let pos r = r.pos - r.off
  let remaining r = r.limit - r.pos
  let at_end r = remaining r = 0

  let truncated r n what =
    raise
      (Truncated
         (Printf.sprintf "%s: need %d bytes at %d" what n (r.pos - r.off)))
  [@@inline never]

  (* The readers check the slice bound once and then read the bytes
     directly: [limit] never exceeds the string's length. *)
  let need r n what = if r.limit - r.pos < n then truncated r n what

  let u1 r =
    if r.limit - r.pos < 1 then truncated r 1 "u1";
    let v = Char.code (String.unsafe_get r.data r.pos) in
    r.pos <- r.pos + 1;
    v

  let u2 r =
    if r.limit - r.pos < 2 then truncated r 2 "u2";
    let v = String.get_uint16_be r.data r.pos in
    r.pos <- r.pos + 2;
    v

  let u4 r =
    if r.limit - r.pos < 4 then truncated r 4 "u4";
    let a = String.get_uint16_be r.data r.pos in
    let b = String.get_uint16_be r.data (r.pos + 2) in
    r.pos <- r.pos + 4;
    (a lsl 16) lor b

  let i4 r = Int32.of_int (u4 r)

  let i2 r =
    let v = u2 r in
    if v land 0x8000 <> 0 then v - 0x10000 else v

  let str r =
    let n = u2 r in
    need r n "str";
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let raw r n =
    need r n "raw";
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let sub r n =
    need r n "sub";
    let s = { data = r.data; off = r.pos; limit = r.pos + n; pos = r.pos } in
    r.pos <- r.pos + n;
    s

  let skip r n =
    need r n "skip";
    r.pos <- r.pos + n
end
