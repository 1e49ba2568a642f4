module V = Disco_value.Value

type arith = Add | Sub | Mul | Div | Mod
type cmp = Eq | Ne | Lt | Le | Gt | Ge | Like

type scalar =
  | Attr of string list
  | Const of V.t
  | Arith of arith * scalar * scalar

type pred =
  | True
  | Cmp of cmp * scalar * scalar
  | Member of scalar * V.t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type head = Hstruct of (string * scalar) list | Hscalar of scalar

type expr =
  | Get of string
  | Data of V.t
  | Select of expr * pred
  | Project of expr * string list
  | Map of expr * head
  | Join of expr * expr * (string list * string list) list
  | Union of expr list
  | Distinct of expr
  | Submit of string * expr

exception Algebra_error of string

let algebra_error fmt = Format.kasprintf (fun s -> raise (Algebra_error s)) fmt

(* -- printing: the paper's prefix notation -- *)

let arith_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "mod"

let cmp_name = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Like -> "like"

let pp_path ppf = function
  | [] -> Fmt.string ppf "@elem"
  | path -> Fmt.string ppf (String.concat "." path)

let rec pp_scalar ppf = function
  | Attr path -> pp_path ppf path
  | Const v -> V.pp ppf v
  | Arith (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_scalar a (arith_name op) pp_scalar b

let rec pp_pred ppf = function
  | True -> Fmt.string ppf "true"
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_scalar a (cmp_name op) pp_scalar b
  | Member (a, keys) -> Fmt.pf ppf "%a in %a" pp_scalar a V.pp keys
  | And (a, b) -> Fmt.pf ppf "(%a and %a)" pp_pred a pp_pred b
  | Or (a, b) -> Fmt.pf ppf "(%a or %a)" pp_pred a pp_pred b
  | Not a -> Fmt.pf ppf "not(%a)" pp_pred a

let pp_head ppf = function
  | Hscalar s -> pp_scalar ppf s
  | Hstruct fields ->
      let pp_field ppf (n, s) = Fmt.pf ppf "%s: %a" n pp_scalar s in
      Fmt.pf ppf "struct(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp_field) fields

let rec pp ppf = function
  | Get name -> Fmt.pf ppf "get(%s)" name
  | Data v -> Fmt.pf ppf "data(%a)" V.pp v
  | Select (e, p) -> Fmt.pf ppf "select(%a, %a)" pp_pred p pp e
  | Project (e, attrs) ->
      Fmt.pf ppf "project(%a, %a)"
        (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
        attrs pp e
  | Map (e, h) -> Fmt.pf ppf "map(%a, %a)" pp_head h pp e
  | Join (l, r, pairs) ->
      let pp_pair ppf (a, b) = Fmt.pf ppf "%a=%a" pp_path a pp_path b in
      Fmt.pf ppf "join(%a, %a, %a)" pp l pp r
        (Fmt.list ~sep:(Fmt.any ",") pp_pair)
        pairs
  | Union es -> Fmt.pf ppf "union(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp) es
  | Distinct e -> Fmt.pf ppf "distinct(%a)" pp e
  | Submit (repo, e) -> Fmt.pf ppf "submit(%s, %a)" repo pp e

let to_string e = Fmt.str "%a" pp e
let equal (a : expr) (b : expr) = a = b

let rec scalar_size = function
  | Attr _ | Const _ -> 1
  | Arith (_, a, b) -> 1 + scalar_size a + scalar_size b

let rec pred_size = function
  | True -> 1
  | Cmp (_, a, b) -> 1 + scalar_size a + scalar_size b
  | Member (a, _) -> 1 + scalar_size a
  | And (a, b) | Or (a, b) -> 1 + pred_size a + pred_size b
  | Not a -> 1 + pred_size a

let head_size = function
  | Hscalar s -> scalar_size s
  | Hstruct fields ->
      List.fold_left (fun acc (_, s) -> acc + scalar_size s) 1 fields

let rec size = function
  | Get _ | Data _ -> 1
  | Select (e, p) -> 1 + size e + pred_size p
  | Project (e, attrs) -> 1 + size e + List.length attrs
  | Map (e, h) -> 1 + size e + head_size h
  | Join (l, r, pairs) -> 1 + size l + size r + List.length pairs
  | Union es -> List.fold_left (fun acc e -> acc + size e) 1 es
  | Distinct e -> 1 + size e
  | Submit (_, e) -> 1 + size e

(* -- structure -- *)

let rec binding_vars = function
  | Map (_, Hstruct fields) -> Some (List.map fst fields)
  | Map (_, Hscalar _) -> None
  | Join (l, r, _) -> (
      match (binding_vars l, binding_vars r) with
      | Some a, Some b -> Some (a @ b)
      | _ -> None)
  | Select (e, _) | Submit (_, e) | Distinct e -> binding_vars e
  | Union (e :: _) -> binding_vars e
  | Data (V.Bag (V.Struct fields :: _))
  | Data (V.Set (V.Struct fields :: _))
  | Data (V.List (V.Struct fields :: _)) ->
      (* materialized collections expose their element fields, so a
         partially evaluated join still decompiles (Section 4) *)
      Some (List.map fst fields)
  | Data (V.Bag [] | V.Set [] | V.List []) -> Some []
  | Union [] | Get _ | Data _ | Project (_, _) -> None

let map_children f e =
  match e with
  | Get _ | Data _ -> e
  | Select (c, p) -> let c' = f c in if c' == c then e else Select (c', p)
  | Project (c, a) -> let c' = f c in if c' == c then e else Project (c', a)
  | Map (c, h) -> let c' = f c in if c' == c then e else Map (c', h)
  | Join (l, r, pairs) ->
      let l' = f l in
      let r' = f r in
      if l' == l && r' == r then e else Join (l', r', pairs)
  | Union es -> Union (List.map f es)
  | Distinct c -> let c' = f c in if c' == c then e else Distinct c'
  | Submit (repo, c) -> let c' = f c in if c' == c then e else Submit (repo, c')

let fold_children f acc = function
  | Get _ | Data _ -> acc
  | Select (c, _) | Project (c, _) | Map (c, _) | Distinct c | Submit (_, c) ->
      f acc c
  | Join (l, r, _) -> f (f acc l) r
  | Union es -> List.fold_left f acc es

let rec map_pred_scalars f = function
  | True -> True
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | Member (a, keys) -> Member (f a, keys)
  | And (a, b) -> And (map_pred_scalars f a, map_pred_scalars f b)
  | Or (a, b) -> Or (map_pred_scalars f a, map_pred_scalars f b)
  | Not a -> Not (map_pred_scalars f a)

let map_head_scalars f = function
  | Hscalar s -> Hscalar (f s)
  | Hstruct fields -> Hstruct (List.map (fun (n, s) -> (n, f s)) fields)

let submits e =
  let rec go acc e =
    fold_children go (match e with Submit (r, body) -> (r, body) :: acc | _ -> acc) e
  in
  List.rev (go [] e)

let gets e =
  let rec go acc = function Get name -> name :: acc | e -> fold_children go acc e in
  List.rev (go [] e)

let map_submits f e =
  let rec go = function Submit (repo, e) -> f repo e | e -> map_children go e in
  go e

let rec scalar_paths = function
  | Attr p -> [ p ]
  | Const _ -> []
  | Arith (_, a, b) -> scalar_paths a @ scalar_paths b

let rec pred_paths = function
  | True -> []
  | Cmp (_, a, b) -> scalar_paths a @ scalar_paths b
  | Member (a, _) -> scalar_paths a
  | And (a, b) | Or (a, b) -> pred_paths a @ pred_paths b
  | Not a -> pred_paths a

let prefix_heads p =
  let paths = pred_paths p in
  if List.exists (fun path -> path = []) paths then None
  else Some (List.sort_uniq String.compare (List.map List.hd paths))

(* -- evaluation -- *)

let rec get_path v = function
  | [] -> v
  | field :: rest -> get_path (V.field v field) rest

let arith_eval op a b =
  match (a, b) with
  | V.Null, _ | _, V.Null -> V.Null
  | V.Int x, V.Int y -> (
      match op with
      | Add -> V.Int (x + y)
      | Sub -> V.Int (x - y)
      | Mul -> V.Int (x * y)
      | Div -> if y = 0 then algebra_error "division by zero" else V.Int (x / y)
      | Mod -> if y = 0 then algebra_error "modulo by zero" else V.Int (x mod y))
  | V.String x, V.String y when op = Add -> V.String (x ^ y)
  | (V.Int _ | V.Float _), (V.Int _ | V.Float _) -> (
      let x = V.to_float a and y = V.to_float b in
      match op with
      | Add -> V.Float (x +. y)
      | Sub -> V.Float (x -. y)
      | Mul -> V.Float (x *. y)
      | Div ->
          if y = 0.0 then algebra_error "division by zero" else V.Float (x /. y)
      | Mod -> algebra_error "modulo of floats")
  | _ -> algebra_error "arithmetic on %s and %s" (V.type_name a) (V.type_name b)

let rec eval_scalar elem = function
  | Attr path -> (
      try get_path elem path
      with V.Type_error m -> algebra_error "%s" m)
  | Const v -> v
  | Arith (op, a, b) -> arith_eval op (eval_scalar elem a) (eval_scalar elem b)

let rec eval_pred elem = function
  | True -> true
  | Member (a, keys) ->
      let v = eval_scalar elem a in
      List.exists
        (fun k -> match V.numeric_compare v k with Some 0 -> true | _ -> false)
        (V.elements keys)
  | Cmp (Like, a, b) -> (
      match (eval_scalar elem a, eval_scalar elem b) with
      | V.String s, V.String pattern -> V.like_match ~pattern s
      | V.Null, _ | _, V.Null -> false
      | va, vb ->
          algebra_error "like requires strings, got %s and %s" (V.type_name va)
            (V.type_name vb))
  | Cmp (op, a, b) -> (
      let va = eval_scalar elem a and vb = eval_scalar elem b in
      match V.numeric_compare va vb with
      | None ->
          algebra_error "cannot compare %s with %s" (V.type_name va)
            (V.type_name vb)
      | Some c -> (
          match op with
          | Eq -> c = 0
          | Ne -> c <> 0
          | Lt -> c < 0
          | Le -> c <= 0
          | Gt -> c > 0
          | Ge -> c >= 0
          | Like -> assert false))
  | And (a, b) -> eval_pred elem a && eval_pred elem b
  | Or (a, b) -> eval_pred elem a || eval_pred elem b
  | Not a -> not (eval_pred elem a)

let eval_head elem = function
  | Hscalar s -> eval_scalar elem s
  | Hstruct fields ->
      V.strct (List.map (fun (n, s) -> (n, eval_scalar elem s)) fields)

let merge_structs a b =
  match (a, b) with
  | V.Struct fa, V.Struct fb -> V.strct (fa @ fb)
  | _ ->
      algebra_error "join elements must be structs, got %s and %s"
        (V.type_name a) (V.type_name b)

let rec eval ~resolve e =
  match e with
  | Get name -> (
      match resolve name with
      | Some v -> v
      | None -> algebra_error "unresolved collection %s" name)
  | Data v -> v
  | Select (e, p) ->
      V.filter_elements (fun elem -> eval_pred elem p) (eval ~resolve e)
  | Project (e, attrs) ->
      let project elem =
        V.strct (List.map (fun a -> (a, get_path elem [ a ])) attrs)
      in
      V.map_elements project (eval ~resolve e)
  | Map (e, h) -> V.map_elements (fun elem -> eval_head elem h) (eval ~resolve e)
  | Join (l, r, pairs) ->
      let lv = eval ~resolve l and rv = eval ~resolve r in
      let matches le re =
        List.for_all
          (fun (pa, pb) ->
            (* join keys compare exactly like [Select]'s [=], so moving a
               conjunct into the pair list preserves semantics *)
            eval_pred (merge_structs le re) (Cmp (Eq, Attr pa, Attr pb)))
          pairs
      in
      let rows =
        List.concat_map
          (fun le ->
            List.filter_map
              (fun re -> if matches le re then Some (merge_structs le re) else None)
              (V.elements rv))
          (V.elements lv)
      in
      V.bag rows
  | Union es ->
      List.fold_left
        (fun acc e -> V.bag_union acc (eval ~resolve e))
        (V.bag []) es
  | Distinct e -> V.distinct (eval ~resolve e)
  | Submit (_, e) -> eval ~resolve e
