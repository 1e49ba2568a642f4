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

(* [free] is [q]'s [Ast.free_names] tree once an enclosing select has
   computed it, so each subquery's free names are computed once and
   compiling is linear in the query's size. *)
let rec collection free q =
  match q with
  | Ast.Ident name -> Expr.Get name
  | Ast.Const ((V.Bag _ | V.Set _ | V.List _) as v) -> Expr.Data v
  | Ast.Coll_expr (_, _) -> (
      match try_constant q with
      | Some v -> Expr.Data v
      | None -> reject "non-constant collection literal")
  | Ast.Call ("union", args) -> Expr.Union (List.map2 collection (kids free args) args)
  | Ast.Call ("distinct", [ e ]) ->
      Expr.Distinct (collection (List.hd (kids free [ e ])) e)
  | Ast.Select sel -> select free sel
  | Ast.Extent_star name -> reject "unexpanded subtype extent %s*" name
  | q -> reject "collection not algebraic: %s" (outline q)

and kids free qs =
  match free with
  | Some (Ast.Free (_, kids)) -> List.map Option.some kids
  | None -> List.map (fun _ -> None) qs

and select free sel =
  if sel.Ast.sel_order <> [] then
    reject "order by is evaluated by the mediator";
  (* from-bindings must be independent (no dependent joins in the
     algebra); the [from] collections are the first children *)
  let vars = List.map fst sel.Ast.sel_from in
  let from_kids =
    match free with
    | Some (Ast.Free (_, kids)) ->
        let n = List.length vars in
        List.filteri (fun i _ -> i < n) kids
    | None -> List.map (fun (_, c) -> Ast.free_names c) sel.Ast.sel_from
  in
  List.iter
    (fun (Ast.Free (names, _)) ->
      match Ast.Names.(min_elt_opt (filter (fun f -> List.mem f vars) names)) with
      | Some v -> reject "dependent from-binding on %s" v
      | None -> ())
    from_kids;
  let sides =
    List.map2
      (fun (var, coll_q) kid -> bind var (collection (Some kid) coll_q))
      sel.Ast.sel_from from_kids
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

let compile q = try Ok (collection None q) with Reject reason -> Error reason

let locate ~repo_of e =
  let rec go e =
    match e with
    | Expr.Get name -> (
        match repo_of name with
        | Some repo -> Expr.Submit (repo, e)
        | None -> e)
    | Expr.Submit _ -> e
    | _ -> Expr.map_children go e
  in
  go e
