module V = Disco_value.Value

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge | Like
  | And | Or

type unop = Not | Neg

type coll_kind = Kbag | Kset | Klist
type quant = Exists | Forall

type query =
  | Const of V.t
  | Ident of string
  | Extent_star of string
  | Path of query * string
  | Select of select
  | Binop of binop * query * query
  | Unop of unop * query
  | Call of string * query list
  | Struct_expr of (string * query) list
  | Coll_expr of coll_kind * query list
  | Quant of quant * string * query * query

and select = {
  sel_distinct : bool;
  sel_proj : query;
  sel_from : (string * query) list;
  sel_where : query option;
  sel_order : (query * order_dir) list;
}

and order_dir = Asc | Desc

let binop_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "mod"
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Like -> "like"
  | And -> "and"
  | Or -> "or"

(* Precedence levels for printing with minimal parentheses. *)
let binop_level = function
  | Or -> 1
  | And -> 2
  | Eq | Ne | Lt | Le | Gt | Ge | Like -> 3
  | Add | Sub -> 4
  | Mul | Div | Mod -> 5

let coll_name = function Kbag -> "bag" | Kset -> "set" | Klist -> "list"

let rec pp_level level ppf q =
  match q with
  | Const v -> V.pp ppf v
  | Ident name -> Fmt.string ppf name
  | Extent_star name -> Fmt.pf ppf "%s*" name
  | Path (base, field) -> Fmt.pf ppf "%a.%s" (pp_level 7) base field
  | Binop (op, a, b) ->
      let l = binop_level op in
      (* Comparisons are non-associative in the grammar, so a nested
         comparison on the left must be parenthesized too. *)
      let left_level = if l = 3 then l + 1 else l in
      let body ppf () =
        Fmt.pf ppf "%a %s %a" (pp_level left_level) a (binop_symbol op)
          (pp_level (l + 1)) b
      in
      if l < level then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Unop (Not, a) -> Fmt.pf ppf "not (%a)" (pp_level 0) a
  | Unop (Neg, a) -> Fmt.pf ppf "-%a" (pp_level 6) a
  | Call (f, args) ->
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") (pp_level 0)) args
  | Struct_expr fields ->
      let pp_field ppf (n, e) = Fmt.pf ppf "%s: %a" n (pp_level 0) e in
      Fmt.pf ppf "struct(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp_field) fields
  | Coll_expr (kind, elems) ->
      Fmt.pf ppf "%s(%a)" (coll_name kind)
        (Fmt.list ~sep:(Fmt.any ", ") (pp_level 0))
        elems
  | Quant (kind, var, coll, body) ->
      (* the body runs to the end of the expression, so anything but a
         top-level occurrence is parenthesized for a faithful reparse *)
      let word = match kind with Exists -> "exists" | Forall -> "for all" in
      let print ppf () =
        Fmt.pf ppf "%s %s in %a : %a" word var (pp_level 1) coll (pp_level 0)
          body
      in
      if level > 0 then Fmt.pf ppf "(%a)" print () else print ppf ()
  | Select sel ->
      let body ppf () =
        Fmt.pf ppf "select %s%a from %a"
          (if sel.sel_distinct then "distinct " else "")
          (pp_level 0) sel.sel_proj
          (Fmt.list ~sep:(Fmt.any ", ") pp_from_binding)
          sel.sel_from;
        (match sel.sel_where with
        | None -> ()
        | Some w -> Fmt.pf ppf " where %a" (pp_level 0) w);
        match sel.sel_order with
        | [] -> ()
        | keys ->
            let pp_key ppf (k, dir) =
              Fmt.pf ppf "%a%s" (pp_level 1) k
                (match dir with Asc -> "" | Desc -> " desc")
            in
            Fmt.pf ppf " order by %a"
              (Fmt.list ~sep:(Fmt.any ", ") pp_key)
              keys
      in
      if level > 0 then Fmt.pf ppf "(%a)" body () else body ppf ()

and pp_from_binding ppf (var, coll) =
  Fmt.pf ppf "%s in %a" var (pp_level 1) coll

let pp ppf q = pp_level 0 ppf q
let to_string q = Fmt.str "%a" pp q
let equal (a : query) (b : query) = a = b

let rec fold_idents f q acc =
  match q with
  | Const _ -> acc
  | Ident name -> f name acc
  | Extent_star name -> f name acc
  | Path (base, _) -> fold_idents f base acc
  | Binop (_, a, b) -> fold_idents f b (fold_idents f a acc)
  | Unop (_, a) -> fold_idents f a acc
  | Call (_, args) -> List.fold_left (fun acc a -> fold_idents f a acc) acc args
  | Struct_expr fields ->
      List.fold_left (fun acc (_, e) -> fold_idents f e acc) acc fields
  | Coll_expr (_, elems) ->
      List.fold_left (fun acc e -> fold_idents f e acc) acc elems
  | Quant (_, _, coll, body) -> fold_idents f body (fold_idents f coll acc)
  | Select sel ->
      let acc =
        List.fold_left (fun acc (_, coll) -> fold_idents f coll acc) acc
          sel.sel_from
      in
      let acc = fold_idents f sel.sel_proj acc in
      let acc =
        Option.fold ~none:acc ~some:(fun w -> fold_idents f w acc)
          sel.sel_where
      in
      List.fold_left (fun acc (k, _) -> fold_idents f k acc) acc sel.sel_order

(* Collect names used as collections (extents or views), respecting the
   scope introduced by [from] bindings. *)
let free_collections q =
  let module S = Set.Make (String) in
  let rec go bound q acc =
    match q with
    | Const _ -> acc
    | Ident name -> if S.mem name bound then acc else S.add name acc
    | Extent_star name -> S.add name acc
    | Path (base, _) -> go bound base acc
    | Binop (_, a, b) -> go bound b (go bound a acc)
    | Unop (_, a) -> go bound a acc
    | Call (_, args) -> List.fold_left (fun acc a -> go bound a acc) acc args
    | Struct_expr fields ->
        List.fold_left (fun acc (_, e) -> go bound e acc) acc fields
    | Coll_expr (_, elems) ->
        List.fold_left (fun acc e -> go bound e acc) acc elems
    | Quant (_, var, coll, body) ->
        let acc = go bound coll acc in
        go (S.add var bound) body acc
    | Select sel ->
        let bound', acc =
          List.fold_left
            (fun (bound, acc) (var, coll) ->
              let acc = go bound coll acc in
              (S.add var bound, acc))
            (bound, acc) sel.sel_from
        in
        let acc = go bound' sel.sel_proj acc in
        let acc =
          Option.fold ~none:acc ~some:(fun w -> go bound' w acc) sel.sel_where
        in
        List.fold_left (fun acc (k, _) -> go bound' k acc) acc sel.sel_order
  in
  S.elements (go S.empty q S.empty)
