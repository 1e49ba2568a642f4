module V = Disco_value.Value

type interface = {
  if_name : string;
  if_super : string option;
  if_declared_extent : string option;
  if_attributes : (string * Otype.t) list;
}

type meta_extent = {
  me_name : string;
  me_interface : string;
  me_wrapper : string;
  me_repository : string;
  me_replicas : string list;
  me_map : Typemap.t;
  me_partition : Disco_shard.Shard.partition option;
  me_shard_of : (string * int) option;
}

type obj = {
  obj_oid : V.oid;
  obj_constructor : string;
  obj_args : (string * V.t) list;
}

type t = {
  interfaces : (string, interface) Hashtbl.t;
  mutable interface_order : string list;  (* reverse definition order *)
  mutable extents : meta_extent list;  (* reverse definition order *)
  by_name : (string, meta_extent) Hashtbl.t;  (* [extents], keyed by name *)
  objects : (string, obj) Hashtbl.t;
  views : (string, string) Hashtbl.t;
  mutable view_order : string list;
  mutable next_oid : int;
  mutable version : int;
}

exception Odl_error of string

let odl_error fmt = Format.kasprintf (fun s -> raise (Odl_error s)) fmt

let create () =
  {
    interfaces = Hashtbl.create 16;
    interface_order = [];
    extents = [];
    by_name = Hashtbl.create 16;
    objects = Hashtbl.create 16;
    views = Hashtbl.create 16;
    view_order = [];
    next_oid = 1;
    version = 0;
  }

let bump t = t.version <- t.version + 1

let find_interface t name = Hashtbl.find_opt t.interfaces name

let rec attributes_of t name =
  match find_interface t name with
  | None -> odl_error "unknown interface %s" name
  | Some itf ->
      let inherited =
        match itf.if_super with Some s -> attributes_of t s | None -> []
      in
      inherited @ itf.if_attributes

let find_extent t name = Hashtbl.find_opt t.by_name name

let add_interface t itf =
  if Hashtbl.mem t.interfaces itf.if_name then
    odl_error "interface %s already defined" itf.if_name;
  (match itf.if_super with
  | Some s when not (Hashtbl.mem t.interfaces s) ->
      odl_error "unknown supertype %s of interface %s" s itf.if_name
  | _ -> ());
  (match itf.if_declared_extent with
  | Some e when find_extent t e <> None ->
      odl_error "declared extent %s of interface %s collides with an extent" e
        itf.if_name
  | _ -> ());
  Hashtbl.replace t.interfaces itf.if_name itf;
  t.interface_order <- itf.if_name :: t.interface_order;
  (* Validate attribute uniqueness across the inheritance chain. *)
  (try
     let attrs = attributes_of t itf.if_name in
     let names = List.sort String.compare (List.map fst attrs) in
     let rec check = function
       | a :: (b :: _ as rest) ->
           if String.equal a b then
             odl_error "interface %s has duplicate attribute %s" itf.if_name a
           else check rest
       | [ _ ] | [] -> ()
     in
     check names
   with Odl_error _ as e ->
     Hashtbl.remove t.interfaces itf.if_name;
     t.interface_order <- List.tl t.interface_order;
     raise e);
  bump t

let interface_names t = List.rev t.interface_order

let subtype_of t ~sub ~super =
  let rec go name =
    if String.equal name super then true
    else
      match find_interface t name with
      | Some { if_super = Some s; _ } -> go s
      | _ -> false
  in
  go sub

let subtypes_closure t name =
  List.filter
    (fun candidate -> subtype_of t ~sub:candidate ~super:name)
    (interface_names t)

let struct_conforms t name v =
  match (find_interface t name, v) with
  | None, _ -> odl_error "unknown interface %s" name
  | Some _, V.Struct fields ->
      let attrs = attributes_of t name in
      List.length fields = List.length attrs
      && List.for_all
           (fun (attr, ty) ->
             match List.assoc_opt attr fields with
             | None -> false
             | Some x -> (
                 match Otype.to_col_type ty with
                 | Some col -> Disco_relation.Schema.value_conforms col x
                 | None -> true))
           attrs
  | Some _, _ -> false

(* Structural validation of a partition declaration. Shard-repository
   existence is deliberately NOT checked here: sources may register
   lazily, and [discoctl lint] reports unknown shard repositories as
   DISCO-E014. Malformed shapes that no later pass could repair are
   still hard errors. *)
let check_partition t ext (p : Disco_shard.Shard.partition) =
  let n = List.length p.p_shards in
  if n = 0 then odl_error "extent %s is sharded across zero shards" ext.me_name;
  (match p.p_scheme with
  | Disco_shard.Shard.Range bs ->
      if List.length bs <> n - 1 then
        odl_error
          "extent %s: range sharding over %d shards needs %d boundaries, got %d"
          ext.me_name n (n - 1) (List.length bs);
      (* Placement ([range_index]) and pruning ([range_admits]) both
         assume sorted, distinct, mutually comparable boundaries;
         anything else makes them silently disagree, so it is a hard
         error here ([discoctl lint] mirrors the rule as DISCO-E016). *)
      let rec check_sorted = function
        | a :: (b :: _ as rest) ->
            (match V.numeric_compare a b with
            | Some c when c < 0 -> ()
            | Some _ ->
                odl_error
                  "extent %s: range boundaries %s and %s are unsorted or \
                   duplicated"
                  ext.me_name (V.to_string a) (V.to_string b)
            | None ->
                odl_error
                  "extent %s: range boundaries %s and %s are not comparable"
                  ext.me_name (V.to_string a) (V.to_string b));
            check_sorted rest
        | [ _ ] | [] -> ()
      in
      check_sorted bs
  | Disco_shard.Shard.Hash { vnodes } ->
      if vnodes < 1 then
        odl_error "extent %s: hash sharding needs at least 1 vnode" ext.me_name);
  List.iteri
    (fun k shard ->
      (match shard.Disco_shard.Shard.s_wrapper with
      | Some w when not (Hashtbl.mem t.objects w) ->
          odl_error "extent %s shard %d refers to undefined wrapper %s"
            ext.me_name k w
      | _ -> ());
      let child = Disco_shard.Shard.child_name ext.me_name k in
      if find_extent t child <> None then
        odl_error "shard child extent %s of %s collides with an extent" child
          ext.me_name)
    p.p_shards

let shard_child parent k (shard : Disco_shard.Shard.shard) =
  {
    me_name = Disco_shard.Shard.child_name parent.me_name k;
    me_interface = parent.me_interface;
    me_wrapper =
      (match shard.s_wrapper with Some w -> w | None -> parent.me_wrapper);
    me_repository = shard.s_repository;
    me_replicas = [];
    me_map = parent.me_map;
    me_partition = None;
    me_shard_of = Some (parent.me_name, k);
  }

let add_extent t ext =
  if find_extent t ext.me_name <> None then
    odl_error "extent %s already defined" ext.me_name;
  if find_interface t ext.me_interface = None then
    odl_error "extent %s refers to unknown interface %s" ext.me_name
      ext.me_interface;
  if not (Hashtbl.mem t.objects ext.me_wrapper) then
    odl_error "extent %s refers to undefined wrapper %s" ext.me_name
      ext.me_wrapper;
  (match ext.me_partition with
  | None ->
      if not (Hashtbl.mem t.objects ext.me_repository) then
        odl_error "extent %s refers to undefined repository %s" ext.me_name
          ext.me_repository
  | Some p -> check_partition t ext p);
  List.iter
    (fun replica ->
      if not (Hashtbl.mem t.objects replica) then
        odl_error "extent %s refers to undefined replica repository %s"
          ext.me_name replica)
    ext.me_replicas;
  let register e =
    t.extents <- e :: t.extents;
    Hashtbl.replace t.by_name e.me_name e
  in
  register ext;
  (match ext.me_partition with
  | None -> ()
  | Some p -> List.iteri (fun k shard -> register (shard_child ext k shard)) p.p_shards);
  bump t

let is_shard_child e = e.me_shard_of <> None

let shard_children t parent =
  List.rev
    (List.filter
       (fun e ->
         match e.me_shard_of with
         | Some (p, _) -> String.equal p parent
         | None -> false)
       t.extents)

let remove_extent t name =
  let removed, kept =
    List.partition
      (fun e ->
        String.equal e.me_name name
        || match e.me_shard_of with
           | Some (p, _) -> String.equal p name
           | None -> false)
      t.extents
  in
  if removed <> [] then (
    t.extents <- kept;
    List.iter (fun e -> Hashtbl.remove t.by_name e.me_name) removed;
    bump t)

(* Shard children are implementation detail: enumeration (implicit
   extents, [person*], the metaextent catalog) sees only the parent,
   which expansion rewrites into the union of its children. *)
let extents_of t interface =
  List.rev
    (List.filter
       (fun e ->
         String.equal e.me_interface interface && not (is_shard_child e))
       t.extents)

let extents_of_star t interface =
  let closure = subtypes_closure t interface in
  List.rev
    (List.filter
       (fun e -> List.mem e.me_interface closure && not (is_shard_child e))
       t.extents)

let all_extents t = List.rev t.extents

let metaextent_bag t =
  V.bag
    (List.filter_map
       (fun e ->
         if is_shard_child e then None
         else
           Some
             (V.strct
                [
                  ("name", V.String e.me_name);
                  ("interface", V.String e.me_interface);
                  ("wrapper", V.String e.me_wrapper);
                  ("repository", V.String e.me_repository);
                ]))
       t.extents)

let objects_bag ?(constructor_prefix = "") t =
  let matches ctor =
    let n = String.length constructor_prefix in
    String.length ctor >= n && String.sub ctor 0 n = constructor_prefix
  in
  let entries =
    Hashtbl.fold
      (fun name obj acc ->
        if matches obj.obj_constructor then
          V.strct
            ([
               ("name", V.String name);
               ("constructor", V.String obj.obj_constructor);
             ]
            @ List.filter
                (fun (k, _) -> k <> "name" && k <> "constructor")
                obj.obj_args)
          :: acc
        else acc)
      t.objects []
  in
  V.bag entries

let add_object t ~name ~constructor ~args =
  if Hashtbl.mem t.objects name then odl_error "object %s already defined" name;
  let obj =
    {
      obj_oid = { V.oid_id = t.next_oid; oid_class = constructor };
      obj_constructor = constructor;
      obj_args = args;
    }
  in
  t.next_oid <- t.next_oid + 1;
  Hashtbl.replace t.objects name obj;
  bump t;
  obj

let find_object t name = Hashtbl.find_opt t.objects name

let object_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.objects [] |> List.sort String.compare

let add_view t ~name ~body =
  if Hashtbl.mem t.views name then odl_error "view %s already defined" name;
  if find_extent t name <> None then
    odl_error "view %s collides with an extent name" name;
  Hashtbl.replace t.views name body;
  t.view_order <- name :: t.view_order;
  bump t

let find_view t name = Hashtbl.find_opt t.views name
let view_names t = List.rev t.view_order
let version t = t.version
