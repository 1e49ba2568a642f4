module V = Disco_value.Value
module Ast = Disco_oql.Ast

exception Reject of string

let reject fmt = Format.kasprintf (fun s -> raise (Reject s)) fmt

(* A rejected node, printed with its subqueries elided: the hybrid
   fragment search compiles every closed node, so a rejection's text must
   not grow with the node's subtree. *)
let outline q =
  let children, rebuild = Ast.shape q in
  Ast.to_string (rebuild (List.map (fun _ -> Ast.Ident "...") children))

let arith_of = function
  | Ast.Add -> Expr.Add
  | Ast.Sub -> Expr.Sub
  | Ast.Mul -> Expr.Mul
  | Ast.Div -> Expr.Div
  | Ast.Mod -> Expr.Mod
  | _ -> assert false

let cmp_of = function
  | Ast.Eq -> Expr.Eq
  | Ast.Ne -> Expr.Ne
  | Ast.Lt -> Expr.Lt
  | Ast.Le -> Expr.Le
  | Ast.Gt -> Expr.Gt
  | Ast.Ge -> Expr.Ge
  | Ast.Like -> Expr.Like
  | _ -> assert false

(* Scalars address binding variables: [x] becomes [Attr ["x"]],
   [x.salary] becomes [Attr ["x"; "salary"]]. *)
let rec scalar = function
  | Ast.Const v -> Expr.Const v
  | Ast.Ident name -> Expr.Attr [ name ]
  | Ast.Path (base, field) -> (
      match scalar base with
      | Expr.Attr path -> Expr.Attr (path @ [ field ])
      | _ -> reject "path through a computed value")
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b)
    ->
      Expr.Arith (arith_of op, scalar a, scalar b)
  | Ast.Unop (Ast.Neg, a) ->
      Expr.Arith (Expr.Sub, Expr.Const (V.Int 0), scalar a)
  | q -> reject "scalar subexpression not algebraic: %s" (outline q)

let rec pred = function
  | Ast.Const (V.Bool true) -> Expr.True
  | Ast.Binop (Ast.And, a, b) -> Expr.And (pred a, pred b)
  | Ast.Binop (Ast.Or, a, b) -> Expr.Or (pred a, pred b)
  | Ast.Unop (Ast.Not, a) -> Expr.Not (pred a)
  | Ast.Binop
      (((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Like) as op), a, b)
    ->
      Expr.Cmp (cmp_of op, scalar a, scalar b)
  | q -> reject "where-clause not algebraic: %s" (outline q)

let head = function
  | Ast.Struct_expr fields ->
      Expr.Hstruct (List.map (fun (n, e) -> (n, scalar e)) fields)
  | q -> Expr.Hscalar (scalar q)

(* A constant collection expression evaluates with an empty environment;
   anything that needs names is not constant. *)
let try_constant q =
  match Disco_oql.Eval.eval (Disco_oql.Eval.env ()) q with
  | v -> Some v
  | exception Disco_oql.Eval.Eval_error _ -> None

let bind var e = Expr.Map (e, Expr.Hstruct [ (var, Expr.Attr []) ])

let rec collection q =
  match q with
  | Ast.Ident name -> Expr.Get name
  | Ast.Const ((V.Bag _ | V.Set _ | V.List _) as v) -> Expr.Data v
  | Ast.Coll_expr (_, _) -> (
      match try_constant q with
      | Some v -> Expr.Data v
      | None -> reject "non-constant collection literal")
  | Ast.Call ("union", args) -> Expr.Union (List.map collection args)
  | Ast.Call ("distinct", [ e ]) -> Expr.Distinct (collection e)
  | Ast.Select sel -> select sel
  | Ast.Extent_star name -> reject "unexpanded subtype extent %s*" name
  | q -> reject "collection not algebraic: %s" (outline q)

and select sel =
  if sel.Ast.sel_order <> [] then
    reject "order by is evaluated by the mediator";
  (* from-bindings must be independent (no dependent joins in the
     algebra). *)
  let vars = List.map fst sel.Ast.sel_from in
  List.iter
    (fun (_, coll_q) ->
      let free = Ast.free_collections coll_q in
      match List.find_opt (fun f -> List.mem f vars) free with
      | Some v -> reject "dependent from-binding on %s" v
      | None -> ())
    sel.Ast.sel_from;
  let sides =
    List.map (fun (var, coll_q) -> bind var (collection coll_q)) sel.Ast.sel_from
  in
  let joined =
    match sides with
    | [] -> reject "empty from clause"
    | first :: rest ->
        List.fold_left (fun acc side -> Expr.Join (acc, side, [])) first rest
  in
  let filtered =
    match sel.Ast.sel_where with
    | None -> joined
    | Some w -> Expr.Select (joined, pred w)
  in
  let projected = Expr.Map (filtered, head sel.Ast.sel_proj) in
  if sel.Ast.sel_distinct then Expr.Distinct projected else projected

let compile q = try Ok (collection q) with Reject reason -> Error reason

let locate ~repo_of e =
  let rec go e =
    match e with
    | Expr.Get name -> (
        match repo_of name with
        | Some repo -> Expr.Submit (repo, Expr.Get name)
        | None -> e)
    | Expr.Data _ -> e
    | Expr.Select (e, p) -> Expr.Select (go e, p)
    | Expr.Project (e, attrs) -> Expr.Project (go e, attrs)
    | Expr.Map (e, h) -> Expr.Map (go e, h)
    | Expr.Join (l, r, pairs) -> Expr.Join (go l, go r, pairs)
    | Expr.Union es -> Expr.Union (List.map go es)
    | Expr.Distinct e -> Expr.Distinct (go e)
    | Expr.Submit (repo, e) -> Expr.Submit (repo, e)
  in
  go e
