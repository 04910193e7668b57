(** Digests of the bodies an experiment serves, per applet key.

    A seeded experiment serves a few distinct bodies tens of thousands
    of times. Per key this keeps the last body digested and its MD5; a
    body byte-equal to it ([String.equal], at least as strict as digest
    equality) reuses the digest, any other body is digested. Results
    are exactly {!Dsig.Md5.digest} of the body. *)

type t

val create : unit -> t

val digest : t -> key:string -> string -> string
(** [digest t ~key body] is [Dsig.Md5.digest body]; it becomes the
    key's last digest. *)

val pin : t -> who:string -> key:string -> string -> unit
(** Require every body served under [key] to have one digest: the
    first body pins it, a later body whose digest differs raises
    [Failure (who ^ ": divergent bytes for " ^ key)]. Divergence inside
    one run is a single-flight or cache corruption bug. *)

val pinned : t -> (string * string) list
(** (key, last digest) for every key, sorted by key. *)
