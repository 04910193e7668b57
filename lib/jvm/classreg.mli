(** Class registry: loaded classes, lazy loading through a provider
    (the client's window onto the network), hierarchy queries and
    member resolution. *)

type init_state = Not_initialized | Initializing | Initialized

type loaded = {
  cf : Bytecode.Classfile.t;
  statics : (string, Value.t) Hashtbl.t;
  mutable init_state : init_state;
  wire_bytes : int;  (** encoded size when fetched; 0 for boot classes *)
  sites : site option array;
      (** constant-pool cache: one slot per pool entry, filled by the
          interpreter on the first execution of a method ref *)
}

(** A resolved method ref. [mref] and [nargs] never go stale; the
    mutable resolution fields below [gen] hold only while [gen] equals
    the registry's [generation] (see {!sync}), and are filled only
    from memoized resolutions (see {!resolve_method_memo}). *)
and site = {
  mref : Bytecode.Cp.member_ref;
  mutable nargs : int;  (** parameter count; -1 until parsed *)
  mutable gen : int;
  mutable target : (loaded * Bytecode.Classfile.meth) option;
      (** resolution from the ref class (invokestatic/invokespecial) *)
  mutable recv_cls : string;
  mutable recv_target : (loaded * Bytecode.Classfile.meth) option;
      (** inline cache for receivers of class [recv_cls] *)
  mutable init_cls : loaded option;
      (** invokestatic: the ref class, once its initialization began *)
}

type provider = string -> string option
(** Maps a class name to its encoded bytes, or [None] if unknown. *)

exception Class_not_found of string
exception Load_rejected of { cls : string; reason : string }

type t = {
  classes : (string, loaded) Hashtbl.t;
  mutable provider : provider;
  mutable on_load : Bytecode.Classfile.t -> unit;
  mutable classes_fetched : int;
  mutable bytes_fetched : int;
  mutable load_order : string list;  (** most recently loaded first *)
  mutable generation : int;
      (** bumped whenever [classes] changes; guards every {!site} *)
  method_cache :
    (string * string * string, (loaded * Bytecode.Classfile.meth) option) Hashtbl.t;
      (** memoized [resolve_method]; flushed whenever [classes] changes *)
  field_cache : (string * string, (loaded * Bytecode.Classfile.field) option) Hashtbl.t;
  subtype_cache : (string * string, bool) Hashtbl.t;
  fields_cache : (string, (string * string) list) Hashtbl.t;
}

val create : ?provider:provider -> unit -> t
val set_provider : t -> provider -> unit

val set_on_load : t -> (Bytecode.Classfile.t -> unit) -> unit
(** Hook run on every provider-loaded class before registration — this
    is where a monolithic client plugs in local verification. The hook
    rejects a class by raising. *)

val register : t -> Bytecode.Classfile.t -> unit
(** Register a boot class directly, bypassing provider and hook. *)

val new_site : Bytecode.Cp.member_ref -> site
(** An unresolved site for a parsed method ref. *)

val sync : t -> site -> unit
(** Drop a site's resolutions if the registry changed since they were
    stored, and tie the site to the current generation. Call it right
    before storing a resolution made in the current generation. *)

val find_loaded : t -> string -> loaded option

val lookup : t -> string -> loaded
(** Find a class, fetching through the provider if necessary.
    @raise Class_not_found when the provider has no such class.
    @raise Load_rejected when the bytes are malformed, misnamed, or the
    [on_load] hook rejects them. *)

val is_loaded : t -> string -> bool

val is_subclass : t -> sub:string -> super:string -> bool
(** Reflexive subtype test over class names, covering arrays and
    (transitive) interfaces. *)

val array_elem : string -> string option

val resolve_method :
  t -> string -> string -> string -> (loaded * Bytecode.Classfile.meth) option
(** [resolve_method t cls name desc] walks the superclass chain. *)

val resolve_method_memo :
  t ->
  string ->
  string ->
  string ->
  (loaded * Bytecode.Classfile.meth) option * bool
(** [resolve_method], also telling whether the result is memoized. It
    is not when the walk consulted the provider; such a walk must be
    repeated on every query so its side effects replay. *)

val resolve_field :
  t -> string -> string -> (loaded * Bytecode.Classfile.field) option

val all_instance_fields : t -> string -> (string * string) list
val superclass_chain : t -> string -> string list -> string list
val loaded_count : t -> int
