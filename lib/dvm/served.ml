(* Per key: the last body digested and its MD5. Experiments serve a
   handful of distinct bodies per run, so nearly every serve is a byte
   compare instead of an MD5 over the body. *)

type entry = { mutable body : string; mutable md5 : string }
type t = (string, entry) Hashtbl.t

let create () : t = Hashtbl.create 64

let digest t ~key body =
  match Hashtbl.find_opt t key with
  | Some e when String.equal e.body body -> e.md5
  | Some e ->
    let d = Dsig.Md5.digest body in
    e.body <- body;
    e.md5 <- d;
    d
  | None ->
    let d = Dsig.Md5.digest body in
    Hashtbl.replace t key { body; md5 = d };
    d

let pin t ~who ~key body =
  match Hashtbl.find_opt t key with
  | Some e when String.equal e.body body -> ()
  | Some e ->
    if not (String.equal (Dsig.Md5.digest body) e.md5) then
      failwith (who ^ ": divergent bytes for " ^ key);
    e.body <- body
  | None -> ignore (digest t ~key body)

let pinned t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k e acc -> (k, e.md5) :: acc) t [])
