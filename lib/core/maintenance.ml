module Ast = Disco_oql.Ast
module Parser = Disco_oql.Parser

type integration_cost = {
  statements : int;
  query_size : int;
  redefined_entities : int;
}

let rec ast_size = function
  | Ast.Const _ | Ast.Ident _ | Ast.Extent_star _ -> 1
  | Ast.Path (b, _) -> 1 + ast_size b
  | Ast.Binop (_, a, b) -> 1 + ast_size a + ast_size b
  | Ast.Unop (_, a) -> 1 + ast_size a
  | Ast.Call (_, args) -> List.fold_left (fun acc a -> acc + ast_size a) 1 args
  | Ast.Struct_expr fields ->
      List.fold_left (fun acc (_, e) -> acc + ast_size e) 1 fields
  | Ast.Coll_expr (_, elems) ->
      List.fold_left (fun acc e -> acc + ast_size e) 1 elems
  | Ast.Quant (_, _, coll, body) -> 1 + ast_size coll + ast_size body
  | Ast.Select sel ->
      let base = 1 + ast_size sel.Ast.sel_proj in
      let base =
        List.fold_left (fun acc (_, c) -> acc + 1 + ast_size c) base sel.Ast.sel_from
      in
      Option.fold ~none:base ~some:(fun w -> base + ast_size w) sel.Ast.sel_where

let disco_query _ = "select x.name from x in person where x.salary > 10"

let explicit_union_query ~n =
  let extents = List.init n (fun i -> Fmt.str "person%d" i) in
  let union =
    match extents with
    | [ single ] -> single
    | many -> Fmt.str "union(%s)" (String.concat ", " many)
  in
  Fmt.str "select x.name from x in %s where x.salary > 10" union

let query_size text = ast_size (Parser.parse text)

let disco ~n =
  {
    statements = 1;
    query_size = query_size (disco_query n);
    redefined_entities = 0;
  }

let explicit_union ~n =
  {
    (* the extent statement plus the rewrite of the standing query *)
    statements = 2;
    query_size = query_size (explicit_union_query ~n);
    redefined_entities = 1;
  }

let global_schema ~n =
  {
    statements = 1;
    query_size = query_size (disco_query n);
    (* re-resolve the unified type against every prior source *)
    redefined_entities = n;
  }

let disco_query ~n = disco_query n
let explicit_union_query ~n = explicit_union_query ~n
