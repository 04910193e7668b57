(* MD5 (RFC 1321), implemented from the specification. Used by the
   signing service; the paper cites Rivest's MD5 as the digest for
   making injected checks inseparable from application code. *)

let s =
  [|
    7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
    5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20; 5; 9; 14; 20;
    4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
    6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21;
  |]

(* k.(i) = floor(abs(sin(i+1)) * 2^32); computed through Int64 because
   the values exceed Int32.max_int. *)
let k =
  Array.init 64 (fun i ->
      Int64.to_int32
        (Int64.of_float
           (4294967296.0 *. Float.abs (sin (Float.of_int (i + 1))))))

let rotl32 x n =
  Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

let padded (msg : string) =
  let len = String.length msg in
  let bitlen = Int64.of_int (len * 8) in
  let padlen =
    let r = (len + 1) mod 64 in
    if r <= 56 then 56 - r + 1 else 64 - r + 56 + 1
  in
  let b = Buffer.create (len + padlen + 8) in
  Buffer.add_string b msg;
  Buffer.add_char b '\x80';
  for _ = 2 to padlen do
    Buffer.add_char b '\x00'
  done;
  (* little-endian 64-bit bit length *)
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical bitlen (8 * i)) 0xffL)))
  done;
  Buffer.contents b

let word_le data off =
  let byte i = Int32.of_int (Char.code data.[off + i]) in
  Int32.logor (byte 0)
    (Int32.logor
       (Int32.shift_left (byte 1) 8)
       (Int32.logor (Int32.shift_left (byte 2) 16) (Int32.shift_left (byte 3) 24)))

let digest_spec (msg : string) : string =
  let data = padded msg in
  let a0 = ref 0x67452301l
  and b0 = ref 0xefcdab89l
  and c0 = ref 0x98badcfel
  and d0 = ref 0x10325476l in
  let nblocks = String.length data / 64 in
  for blk = 0 to nblocks - 1 do
    let m = Array.init 16 (fun j -> word_le data ((blk * 64) + (j * 4))) in
    let a = ref !a0 and b = ref !b0 and c = ref !c0 and d = ref !d0 in
    for i = 0 to 63 do
      let f, g =
        if i < 16 then
          (Int32.logor (Int32.logand !b !c) (Int32.logand (Int32.lognot !b) !d), i)
        else if i < 32 then
          ( Int32.logor (Int32.logand !d !b) (Int32.logand (Int32.lognot !d) !c),
            ((5 * i) + 1) mod 16 )
        else if i < 48 then (Int32.logxor !b (Int32.logxor !c !d), ((3 * i) + 5) mod 16)
        else
          ( Int32.logxor !c (Int32.logor !b (Int32.lognot !d)),
            (7 * i) mod 16 )
      in
      let f' = Int32.add (Int32.add (Int32.add f !a) k.(i)) m.(g) in
      a := !d;
      d := !c;
      c := !b;
      b := Int32.add !b (rotl32 f' s.(i))
    done;
    a0 := Int32.add !a0 !a;
    b0 := Int32.add !b0 !b;
    c0 := Int32.add !c0 !c;
    d0 := Int32.add !d0 !d
  done;
  let out = Buffer.create 16 in
  List.iter
    (fun w ->
      for i = 0 to 3 do
        Buffer.add_char out
          (Char.chr
             (Int32.to_int (Int32.logand (Int32.shift_right_logical w (8 * i)) 0xffl)))
      done)
    [ !a0; !b0; !c0; !d0 ];
  Buffer.contents out

(* The digest sits on two hot paths — every served class is signed and
   fingerprinted, and every audit event seals the hash chain — so
   production calls go through the runtime's C MD5 ([Digest.string] is
   RFC 1321 MD5, so its output is byte-identical to the reference
   implementation above, which tests cross-check against it). *)
let digest (msg : string) : string = Digest.string msg
let digest_subbytes b off len = Digest.subbytes b off len

let hex_chars = "0123456789abcdef"

let to_hex (d : string) =
  let b = Bytes.create (2 * String.length d) in
  for i = 0 to String.length d - 1 do
    let x = Char.code d.[i] in
    Bytes.set b (2 * i) hex_chars.[x lsr 4];
    Bytes.set b ((2 * i) + 1) hex_chars.[x land 15]
  done;
  Bytes.unsafe_to_string b

let hex_digest msg = to_hex (digest msg)
