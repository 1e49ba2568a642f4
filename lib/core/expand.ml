module Ast = Disco_oql.Ast
module Registry = Disco_odl.Registry
module V = Disco_value.Value

exception Expand_error of string

let expand_error fmt = Format.kasprintf (fun s -> raise (Expand_error s)) fmt

module S = Ast.Names

let bind binds bound = List.fold_right S.add binds bound

(* Scope-aware rewriting of free names, top-down over [Ast.shape].
   [f name] returns the replacement for a free occurrence, or None to
   leave it. *)
let rewrite_free f q =
  let rec go bound q =
    match q with
    | Ast.Ident name when not (S.mem name bound) ->
        Option.value (f (`Ident name)) ~default:q
    | Ast.Extent_star name -> Option.value (f (`Star name)) ~default:q
    | _ ->
        let children, rebuild = Ast.shape q in
        rebuild (List.map (fun (binds, c) -> go (bind binds bound) c) children)
  in
  go S.empty q

let substitute_collections lookup q =
  rewrite_free (function `Ident name -> lookup name | `Star _ -> None) q

(* Top-down: try [f] on each node whose free names include no enclosing
   binding variable; recurse into its children otherwise. *)
let map_closed_subqueries f q =
  let rec go bound (Ast.Free (names, kids)) q =
    let tried =
      if S.disjoint names bound then f ~free:(S.elements names) q else None
    in
    match tried with
    | Some replaced -> replaced
    | None ->
        let children, rebuild = Ast.shape q in
        rebuild
          (List.map2
             (fun (binds, c) k -> go (bind binds bound) k c)
             children kids)
  in
  go S.empty (Ast.free_names q) q

(* A partitioned extent contributes its shard children (the parent never
   executes); any other extent contributes itself. *)
let idents_of_extent e =
  match e.Registry.me_partition with
  | Some p ->
      List.mapi
        (fun k _ ->
          Ast.Ident (Disco_shard.Shard.child_name e.Registry.me_name k))
        p.Disco_shard.Shard.p_shards
  | None -> [ Ast.Ident e.Registry.me_name ]

let union_of_idents = function
  | [] -> Ast.Const (V.Bag [])
  | [ single ] -> single
  | many -> Ast.Call ("union", many)

let union_of_extents extents =
  union_of_idents (List.concat_map idents_of_extent extents)

(* The interface whose declared extent (or own name) is [name]. *)
let interface_for_extent_name registry name =
  List.find_opt
    (fun itf_name ->
      match Registry.find_interface registry itf_name with
      | Some { Registry.if_declared_extent = Some e; _ } -> String.equal e name
      | _ -> false)
    (Registry.interface_names registry)

let expand registry q =
  let rec go stack q =
    let replace = function
      | `Star name -> (
          (* person* ranges over the subtype closure (Section 2.2.1). *)
          let interface =
            match interface_for_extent_name registry name with
            | Some itf -> Some itf
            | None ->
                if Registry.find_interface registry name <> None then Some name
                else None
          in
          match interface with
          | Some itf ->
              Some (union_of_extents (Registry.extents_of_star registry itf))
          | None -> expand_error "%s* does not name a type's extent" name)
      | `Ident name -> (
          if String.equal name "metaextent" then
            Some (Ast.Const (Registry.metaextent_bag registry))
          else
            match Registry.find_view registry name with
            | Some body ->
                if List.mem name stack then
                  expand_error "cyclic view definition through %s" name
                else
                  let parsed =
                    try Disco_oql.Parser.parse body
                    with Disco_lex.Lexer.Error (m, _) ->
                      expand_error "view %s does not parse: %s" name m
                  in
                  Some (go (name :: stack) parsed)
            | None -> (
                match interface_for_extent_name registry name with
                | Some itf ->
                    Some (union_of_extents (Registry.extents_of registry itf))
                | None -> (
                    match Registry.find_extent registry name with
                    | Some ({ Registry.me_partition = Some _; _ } as e) ->
                        (* A partitioned extent is purely logical: scan
                           it as the union of its shard children. *)
                        Some (union_of_idents (idents_of_extent e))
                    | Some _ -> None
                    | None ->
                        if String.equal name "repositories" then
                          Some
                            (Ast.Const
                               (Registry.objects_bag
                                  ~constructor_prefix:"Repository" registry))
                        else if String.equal name "wrappers" then
                          Some
                            (Ast.Const
                               (Registry.objects_bag ~constructor_prefix:"Wrapper"
                                  registry))
                        else if Registry.find_interface registry name <> None
                        then Some (Ast.Const (V.String name))
                        else
                          expand_error
                            "unknown name %s: not a view, extent, type extent, \
                             or interface"
                            name)))
    in
    rewrite_free replace q
  in
  go [] q
