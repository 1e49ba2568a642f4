module Expr = Disco_algebra.Expr
module Typemap = Disco_odl.Typemap
module V = Disco_value.Value

type shape = Opaque | Tuple of string | Record of (string * shape) list

(* Navigate a shape along an attribute path to find the shape of the
   addressed value. *)
let rec shape_at shape path =
  match (shape, path) with
  | s, [] -> s
  | Tuple _, _ :: _ -> Opaque  (* a field of a source tuple is a scalar *)
  | Record fields, x :: rest -> (
      match List.assoc_opt x fields with
      | Some sub -> shape_at sub rest
      | None -> Opaque)
  | Opaque, _ -> Opaque

let scalar_shape child_shape = function
  | Expr.Attr path -> shape_at child_shape path
  | Expr.Const _ | Expr.Arith _ -> Opaque

let rec shape_of = function
  | Expr.Get name -> Tuple name
  | Expr.Data _ -> Opaque
  | Expr.Select (e, _) | Expr.Distinct e | Expr.Submit (_, e) -> shape_of e
  | Expr.Project (e, _) -> shape_of e
  | Expr.Map (e, Expr.Hscalar s) -> scalar_shape (shape_of e) s
  | Expr.Map (e, Expr.Hstruct fields) ->
      let child = shape_of e in
      Record (List.map (fun (n, s) -> (n, scalar_shape child s)) fields)
  | Expr.Join (l, r, _) -> (
      match (shape_of l, shape_of r) with
      | Record a, Record b -> Record (a @ b)
      | _ -> Opaque)
  | Expr.Union [] -> Opaque
  | Expr.Union (e :: _) -> shape_of e

(* -- mediator -> source renaming -- *)

(* Rename an attribute path given the shape of the element it addresses
   into: components addressing into a [Tuple ext] go through ext's map. *)
let rec rename_path map_of shape path =
  match (shape, path) with
  | _, [] -> []
  | Tuple ext, field :: rest ->
      Typemap.source_field (map_of ext) field :: rest
      (* deeper components address inside a scalar: left untouched *)
  | Record fields, x :: rest -> (
      match List.assoc_opt x fields with
      | Some sub -> x :: rename_path map_of sub rest
      | None -> path)
  | Opaque, _ -> path

(* A mediator field with a value transform (Section 6.2's weekly/yearly
   salaries) is substituted by the matching source arithmetic, so the
   source computes mediator-unit values and predicates compare in
   mediator units without inversion. *)
let number_const x =
  if Float.is_integer x then Expr.Const (V.Int (int_of_float x))
  else Expr.Const (V.Float x)

let rec transform_of_path map_of shape path =
  match (shape, path) with
  | Tuple ext, [ field ] -> (
      match Typemap.transform_of_mediator_field (map_of ext) field with
      | Some (src, scale, offset) -> Some ([ src ], scale, offset)
      | None -> None)
  | Record fields, x :: rest -> (
      match List.assoc_opt x fields with
      | Some sub ->
          Option.map
            (fun (p, sc, off) -> (x :: p, sc, off))
            (transform_of_path map_of sub rest)
      | None -> None)
  | _ -> None

let rec rename_scalar map_of shape = function
  | Expr.Attr path -> (
      match transform_of_path map_of shape path with
      | Some (src_path, scale, offset) ->
          let scaled =
            if scale = 1.0 then Expr.Attr src_path
            else Expr.Arith (Expr.Mul, Expr.Attr src_path, number_const scale)
          in
          if offset = 0.0 then scaled
          else Expr.Arith (Expr.Add, scaled, number_const offset)
      | None -> Expr.Attr (rename_path map_of shape path))
  | Expr.Const v -> Expr.Const v
  | Expr.Arith (op, a, b) ->
      Expr.Arith (op, rename_scalar map_of shape a, rename_scalar map_of shape b)

let to_source ~map_of e =
  let rec go e =
    match e with
    | Expr.Get name ->
        Expr.Get (Typemap.source_collection (map_of name) name)
    | Expr.Data v -> Expr.Data v
    | Expr.Select (inner, p) ->
        Expr.Select
          (go inner, Expr.map_pred_scalars (rename_scalar map_of (shape_of inner)) p)
    | Expr.Project (inner, attrs) ->
        let attrs' =
          match shape_of inner with
          | Tuple ext ->
              List.map (fun a -> Typemap.source_field (map_of ext) a) attrs
          | Record _ | Opaque -> attrs
        in
        Expr.Project (go inner, attrs')
    | Expr.Map (inner, h) ->
        Expr.Map
          (go inner, Expr.map_head_scalars (rename_scalar map_of (shape_of inner)) h)
    | Expr.Join (l, r, pairs) ->
        let ls = shape_of l and rs = shape_of r in
        let pairs' =
          List.map
            (fun (pa, pb) ->
              (rename_path map_of ls pa, rename_path map_of rs pb))
            pairs
        in
        Expr.Join (go l, go r, pairs')
    | Expr.Union es -> Expr.Union (List.map go es)
    | Expr.Distinct inner -> Expr.Distinct (go inner)
    | Expr.Submit (repo, inner) -> Expr.Submit (repo, go inner)
  in
  go e

(* -- source -> mediator answer reformatting -- *)

let rec rename_value map_of shape v =
  match (shape, v) with
  | Opaque, _ -> v
  | Tuple ext, V.Struct _ ->
      Typemap.rename_struct_to_mediator (map_of ext) v
  | Tuple _, _ -> v
  | Record fields, V.Struct vfields ->
      V.strct
        (List.map
           (fun (name, fv) ->
             match List.assoc_opt name fields with
             | Some sub -> (name, rename_value map_of sub fv)
             | None -> (name, fv))
           vfields)
  | Record _, _ -> v

(* Wrappers build answers with [V.bag]/[V.strct], so with no field map
   the rebuild below would only re-sort an already canonical value. *)
let answer_renamer ~map_of e =
  if List.for_all (fun ext -> Typemap.field_pairs (map_of ext) = []) (Expr.gets e)
  then Fun.id
  else
    let shape = shape_of e in
    fun answer ->
      if V.is_collection answer then
        V.map_elements (rename_value map_of shape) answer
      else rename_value map_of shape answer
