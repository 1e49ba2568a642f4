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

(* Which variables a node binds, and around which children: the one
   statement of OQL's scoping. The child order is the order in which the
   hybrid fragment search tries fragments, and so the order their rounds
   run in; test_core's "hybrid fragment search order" pins it. *)
let bad () = invalid_arg "Ast.shape: rebuilt with the wrong children"
let unbound c = ([], c)

let shape q =
  match q with
  | Const _ | Ident _ | Extent_star _ -> ([], fun _ -> q)
  | Path (base, field) ->
      ([ unbound base ], function [ b ] -> Path (b, field) | _ -> bad ())
  | Binop (op, a, b) ->
      ([ unbound b; unbound a ], function [ b; a ] -> Binop (op, a, b) | _ -> bad ())
  | Unop (op, a) -> ([ unbound a ], function [ a ] -> Unop (op, a) | _ -> bad ())
  | Call (name, args) -> (List.map unbound args, fun args -> Call (name, args))
  | Struct_expr fields ->
      ( List.map (fun (_, e) -> unbound e) fields,
        fun es -> Struct_expr (List.map2 (fun (n, _) e -> (n, e)) fields es) )
  | Coll_expr (kind, elems) -> (List.map unbound elems, fun es -> Coll_expr (kind, es))
  | Quant (kind, var, coll, body) ->
      ( [ ([ var ], body); unbound coll ],
        function [ body; coll ] -> Quant (kind, var, coll, body) | _ -> bad () )
  | Select sel ->
      (* each [from] entry binds its variable in the later entries'
         collections and in the projection, [where] and [order by] *)
      let scope, from =
        List.fold_left
          (fun (bound, acc) (var, coll) -> (var :: bound, (bound, coll) :: acc))
          ([], []) sel.sel_from
      in
      let rest =
        List.fold_right
          (fun (k, _) acc -> (scope, k) :: acc)
          sel.sel_order
          (match sel.sel_where with
          | None -> [ (scope, sel.sel_proj) ]
          | Some w -> [ (scope, w); (scope, sel.sel_proj) ])
      in
      let rebuild children =
        let split n l =
          (List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l)
        in
        let from, rest = split (List.length sel.sel_from) children in
        let order, rest = split (List.length sel.sel_order) rest in
        let where, proj =
          match (sel.sel_where, rest) with
          | None, [ p ] -> (None, p)
          | Some _, [ w; p ] -> (Some w, p)
          | _ -> bad ()
        in
        Select
          {
            sel with
            sel_from = List.map2 (fun (v, _) c -> (v, c)) sel.sel_from from;
            sel_order = List.map2 (fun (_, d) k -> (k, d)) sel.sel_order order;
            sel_where = where;
            sel_proj = proj;
          }
      in
      (List.rev_append from rest, rebuild)

module Names = Set.Make (String)

type free = Free of Names.t * free list

let rec free_names q =
  match q with
  | Ident name | Extent_star name -> Free (Names.singleton name, [])
  | _ ->
      let children = fst (shape q) in
      let kids = List.map (fun (_, c) -> free_names c) children in
      let names =
        List.fold_left2
          (fun acc (binds, _) (Free (names, _)) ->
            Names.union acc (List.fold_right Names.remove binds names))
          Names.empty children kids
      in
      Free (names, kids)

let free_collections q =
  let rec go bound acc q =
    match q with
    | Ident name -> if Names.mem name bound then acc else Names.add name acc
    | Extent_star name -> Names.add name acc
    | _ ->
        List.fold_left
          (fun acc (binds, c) ->
            go (List.fold_right Names.add binds bound) acc c)
          acc (fst (shape q))
  in
  Names.elements (go Names.empty Names.empty q)
