module V = Disco_value.Value
module Lexer = Disco_lex.Lexer
module Stream = Disco_lex.Lexer.Stream

let puncts =
  [
    "<="; ">="; "!="; "<>"; "="; "<"; ">"; "("; ")"; ","; "."; ":"; "*"; "+";
    "-"; "/"; ";";
  ]

(* Keywords that terminate an expression; used to disambiguate the postfix
   [person*] star from multiplication. *)
let expression_terminators =
  [ "where"; "from"; "and"; "or"; "in"; "order"; "group"; "as" ]

let is_expression_end = function
  | None -> true
  | Some (Lexer.Punct (")" | "," | ";")) -> true
  | Some (Lexer.Ident id) ->
      List.mem (String.lowercase_ascii id) expression_terminators
  | Some _ -> false

(* "distinct" is not reserved: it is only special immediately after
   "select" (handled contextually) and also names the distinct() builtin. *)
let reserved =
  [ "select"; "from"; "where"; "in"; "and"; "or"; "not"; "struct"; "mod"; "as"; "define" ]

let rec parse_query s = parse_or s

and parse_or s =
  let rec go left =
    if Stream.try_kw s "or" then go (Ast.Binop (Ast.Or, left, parse_and s))
    else left
  in
  go (parse_and s)

and parse_and s =
  let rec go left =
    if Stream.try_kw s "and" then go (Ast.Binop (Ast.And, left, parse_cmp s))
    else left
  in
  go (parse_cmp s)

and parse_cmp s =
  let left = parse_add s in
  let op =
    if Stream.try_punct s "=" then Some Ast.Eq
    else if Stream.try_punct s "!=" then Some Ast.Ne
    else if Stream.try_punct s "<>" then Some Ast.Ne
    else if Stream.try_punct s "<=" then Some Ast.Le
    else if Stream.try_punct s ">=" then Some Ast.Ge
    else if Stream.try_punct s "<" then Some Ast.Lt
    else if Stream.try_punct s ">" then Some Ast.Gt
    else if Stream.try_kw s "like" then Some Ast.Like
    else None
  in
  match op with
  | None -> left
  | Some op -> Ast.Binop (op, left, parse_add s)

and parse_add s =
  let rec go left =
    if Stream.try_punct s "+" then go (Ast.Binop (Ast.Add, left, parse_mul s))
    else if Stream.try_punct s "-" then
      go (Ast.Binop (Ast.Sub, left, parse_mul s))
    else left
  in
  go (parse_mul s)

and parse_mul s =
  let rec go left =
    (* A "*" that ends an expression is the subtype-extent star, handled
       in parse_postfix; only treat it as multiplication otherwise. *)
    if Stream.peek_punct s "*" && not (is_expression_end (Stream.peek2 s))
    then (
      Stream.eat_punct s "*";
      go (Ast.Binop (Ast.Mul, left, parse_unary s)))
    else if Stream.try_punct s "/" then
      go (Ast.Binop (Ast.Div, left, parse_unary s))
    else if Stream.try_kw s "mod" then
      go (Ast.Binop (Ast.Mod, left, parse_unary s))
    else left
  in
  go (parse_unary s)

and parse_unary s =
  if Stream.try_kw s "not" then Ast.Unop (Ast.Not, parse_unary s)
  else if Stream.try_punct s "-" then Ast.Unop (Ast.Neg, parse_unary s)
  else if
    Stream.peek_kw s "exists"
    && match Stream.peek2 s with Some (Lexer.Ident _) -> true | _ -> false
  then (
    Stream.eat_kw s "exists";
    parse_quantifier s Ast.Exists)
  else if
    Stream.peek_kw s "for"
    &&
    match Stream.peek2 s with
    | Some (Lexer.Ident kw) -> String.lowercase_ascii kw = "all"
    | _ -> false
  then (
    Stream.eat_kw s "for";
    Stream.eat_kw s "all";
    parse_quantifier s Ast.Forall)
  else parse_postfix s

and parse_quantifier s kind =
  let var = Stream.ident s in
  Stream.eat_kw s "in";
  let coll = parse_cmp s in
  Stream.eat_punct s ":";
  let body = parse_query s in
  Ast.Quant (kind, var, coll, body)

and parse_postfix s =
  let rec go base =
    if Stream.try_punct s "." then go (Ast.Path (base, Stream.ident s))
    else if Stream.peek_punct s "*" && is_expression_end (Stream.peek2 s) then (
      Stream.eat_punct s "*";
      match base with
      | Ast.Ident name -> go (Ast.Extent_star name)
      | _ -> Stream.failf s "'*' may only follow an extent name")
    else base
  in
  go (parse_atom s)

and parse_atom s =
  match Stream.peek s with
  | Some (Lexer.Int i) ->
      ignore (Stream.next s);
      Ast.Const (V.Int i)
  | Some (Lexer.Float f) ->
      ignore (Stream.next s);
      Ast.Const (V.Float f)
  | Some (Lexer.Str str) ->
      ignore (Stream.next s);
      Ast.Const (V.String str)
  | Some (Lexer.Punct "(") ->
      ignore (Stream.next s);
      let q = parse_query s in
      Stream.eat_punct s ")";
      q
  | Some (Lexer.Ident id) -> parse_ident_form s id
  | Some t -> Stream.failf s "unexpected %s" (Lexer.token_to_string t)
  | None -> Stream.failf s "unexpected end of query"

and parse_ident_form s id =
  match String.lowercase_ascii id with
  | "select" ->
      ignore (Stream.next s);
      parse_select s
  | "struct" ->
      ignore (Stream.next s);
      Stream.eat_punct s "(";
      let rec fields acc =
        let name = Stream.ident s in
        Stream.eat_punct s ":";
        let e = parse_query s in
        let acc = (name, e) :: acc in
        if Stream.try_punct s "," then fields acc else List.rev acc
      in
      let fs = if Stream.try_punct s ")" then [] else fields [] in
      if fs <> [] then Stream.eat_punct s ")";
      Ast.Struct_expr fs
  | "bag" | "set" | "list" when Stream.peek2 s = Some (Lexer.Punct "(") ->
      ignore (Stream.next s);
      let kind =
        match String.lowercase_ascii id with
        | "bag" -> Ast.Kbag
        | "set" -> Ast.Kset
        | _ -> Ast.Klist
      in
      Stream.eat_punct s "(";
      let elems = parse_arguments s in
      Ast.Coll_expr (kind, elems)
  | "true" ->
      ignore (Stream.next s);
      Ast.Const (V.Bool true)
  | "false" ->
      ignore (Stream.next s);
      Ast.Const (V.Bool false)
  | "null" | "nil" ->
      ignore (Stream.next s);
      Ast.Const V.Null
  | low when List.mem low reserved ->
      Stream.failf s "unexpected keyword %s" id
  | _ ->
      ignore (Stream.next s);
      if Stream.peek_punct s "(" then (
        Stream.eat_punct s "(";
        let args = parse_arguments s in
        Ast.Call (String.lowercase_ascii id, args))
      else Ast.Ident id

and parse_arguments s =
  if Stream.try_punct s ")" then []
  else
    let rec go acc =
      let e = parse_query s in
      let acc = e :: acc in
      if Stream.try_punct s "," then go acc
      else (
        Stream.eat_punct s ")";
        List.rev acc)
    in
    go []

and parse_select s =
  let distinct = Stream.try_kw s "distinct" in
  let proj = parse_query s in
  Stream.eat_kw s "from";
  let rec bindings acc =
    let var = Stream.ident s in
    Stream.eat_kw s "in";
    let coll = parse_cmp s in
    let acc = (var, coll) :: acc in
    let continues_with_binding () =
      (* Both "," and "and" continue the from-list only when followed by
         "<ident> in"; otherwise they belong to an enclosing expression
         (e.g. the argument list of [union(select ..., bag(...))]). *)
      match (Stream.peek s, Stream.peek2 s) with
      | Some (Lexer.Ident _), Some (Lexer.Ident kw) ->
          String.lowercase_ascii kw = "in"
      | _ -> false
    in
    if Stream.peek_punct s "," then (
      let saved = Stream.save s in
      Stream.eat_punct s ",";
      if continues_with_binding () then bindings acc
      else (
        Stream.restore s saved;
        List.rev acc))
    else if Stream.peek_kw s "and" then (
      (* "and" separates from-bindings when followed by "<ident> in"
         (Section 2.2.3 writes [from x in person0 and y in person1]). *)
      let saved = Stream.save s in
      Stream.eat_kw s "and";
      if continues_with_binding () then bindings acc
      else (
        Stream.restore s saved;
        List.rev acc))
    else List.rev acc
  in
  let from = bindings [] in
  let where = if Stream.try_kw s "where" then Some (parse_query s) else None in
  let order =
    if Stream.try_kw s "order" then (
      Stream.eat_kw s "by";
      let rec keys acc =
        let k = parse_cmp s in
        let dir = if Stream.try_kw s "desc" then Ast.Desc
          else (ignore (Stream.try_kw s "asc"); Ast.Asc)
        in
        let acc = (k, dir) :: acc in
        if Stream.try_punct s "," then keys acc else List.rev acc
      in
      keys [])
    else []
  in
  Ast.Select
    {
      sel_distinct = distinct;
      sel_proj = proj;
      sel_from = from;
      sel_where = where;
      sel_order = order;
    }

let parse input =
  let s = Stream.of_string ~puncts input in
  let q = parse_query s in
  ignore (Stream.try_punct s ";");
  Stream.expect_end s;
  q
