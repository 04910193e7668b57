(** MD5 (RFC 1321), implemented from the specification. *)

val digest : string -> string
(** 16-byte raw digest. *)

val digest_spec : string -> string
(** The from-the-specification implementation; same output as
    {!digest}, kept as the readable reference and cross-checked against
    it in the test suite. *)

val digest_subbytes : bytes -> int -> int -> string
(** [digest_subbytes b off len] is [digest] of that slice of [b],
    without copying it out. *)

val to_hex : string -> string
val hex_digest : string -> string
