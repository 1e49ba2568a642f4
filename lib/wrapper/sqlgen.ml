module Expr = Disco_algebra.Expr
module Sql = Disco_relation.Sql
module V = Disco_value.Value

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type compiled = { sql : Sql.query; rebuild : Sql.result -> V.t }

(* A flattened query under construction: FROM entries as (table, alias),
   WHERE conjuncts, and the output description. *)
type output =
  | Out_tuple of string  (** all columns of one alias *)
  | Out_binds of (string * string) list  (** (var, alias): binding structs *)
  | Out_head of Expr.head  (** computed projection over the binds/tuple *)
  | Out_project of string list  (** attribute subset of a single tuple *)

type build = {
  from : (string * string) list;
  where : Sql.pred list;
  output : output;
  (* how paths resolve: (var -> alias) for bound trees, or Some alias for
     a single unbound table *)
  binds : (string * string) list;
  single : string option;
}

let arith_op = function
  | Expr.Add -> Sql.Add
  | Expr.Sub -> Sql.Sub
  | Expr.Mul -> Sql.Mul
  | Expr.Div -> Sql.Div
  | Expr.Mod -> Sql.Mod

let cmp_op = function
  | Expr.Eq -> Sql.Eq
  | Expr.Ne -> Sql.Ne
  | Expr.Lt -> Sql.Lt
  | Expr.Le -> Sql.Le
  | Expr.Gt -> Sql.Gt
  | Expr.Ge -> Sql.Ge
  | Expr.Like -> Sql.Like

let atom_lit = function
  | (V.Null | V.Bool _ | V.Int _ | V.Float _ | V.String _) as v -> Sql.Lit v
  | v -> unsupported "non-atomic constant %s in source query" (V.type_name v)

(* Resolve an attribute path to a SQL column, given the bind environment. *)
let path_to_col ~binds ~single path =
  match path with
  | [ field ] -> (
      match single with
      | Some alias -> Sql.Col (Some alias, field)
      | None -> (
          match binds with
          | [ (_, alias) ] -> Sql.Col (Some alias, field)
          | _ -> unsupported "unqualified field %s in a multi-source query" field))
  | [ var; field ] -> (
      match List.assoc_opt var binds with
      | Some alias -> Sql.Col (Some alias, field)
      | None -> unsupported "unknown binding variable %s" var)
  | path ->
      unsupported "path %s too deep for a relational source"
        (String.concat "." path)

let rec scalar_to_sql env = function
  | Expr.Const v -> atom_lit v
  | Expr.Attr path ->
      let binds, single = env in
      path_to_col ~binds ~single path
  | Expr.Arith (op, a, b) ->
      Sql.Arith (arith_op op, scalar_to_sql env a, scalar_to_sql env b)

let rec pred_to_sql env = function
  | Expr.True -> Sql.True
  | Expr.Cmp (op, a, b) -> Sql.Cmp (cmp_op op, scalar_to_sql env a, scalar_to_sql env b)
  | Expr.Member (a, keys) -> (
      (* membership becomes an OR-chain of equalities; sources with real
         IN-lists would translate directly *)
      let col = scalar_to_sql env a in
      let key_list = V.elements keys in
      if List.length key_list > 10_000 then
        unsupported "membership list too large for the source"
      else
        match key_list with
        | [] -> Sql.Cmp (Sql.Eq, Sql.Lit (V.Int 0), Sql.Lit (V.Int 1))
        | first :: rest ->
            List.fold_left
              (fun acc k -> Sql.Or (acc, Sql.Cmp (Sql.Eq, col, atom_lit k)))
              (Sql.Cmp (Sql.Eq, col, atom_lit first))
              rest)
  | Expr.And (a, b) -> Sql.And (pred_to_sql env a, pred_to_sql env b)
  | Expr.Or (a, b) -> Sql.Or (pred_to_sql env a, pred_to_sql env b)
  | Expr.Not a -> Sql.Not (pred_to_sql env a)

(* A leaf: Get t possibly under stacked Selects. Returns table name and
   the leaf-local predicates (paths are single-field). *)
let rec match_leaf = function
  | Expr.Get table -> (table, [])
  | Expr.Select (inner, p) ->
      let table, preds = match_leaf inner in
      (table, p :: preds)
  | e -> unsupported "expression too complex for SQL: %s" (Expr.to_string e)

(* A join tree of binding leaves. Accumulates FROM entries (aliased by the
   binding variable), WHERE conjuncts, and the bind environment. *)
let rec match_join_tree e =
  match e with
  | Expr.Map (inner, Expr.Hstruct [ (var, Expr.Attr []) ]) ->
      let table, preds = match_leaf inner in
      let env = ([ (var, var) ], None) in
      (* leaf predicates use bare field paths: qualify with this alias *)
      let where =
        List.map (fun p -> pred_to_sql ([ (var, var) ], Some var) p) preds
      in
      ignore env;
      ([ (table, var) ], where, [ (var, var) ])
  | Expr.Join (l, r, pairs) ->
      let lf, lw, lb = match_join_tree l in
      let rf, rw, rb = match_join_tree r in
      let binds = lb @ rb in
      let env = (binds, None) in
      let pair_preds =
        List.map
          (fun (pa, pb) ->
            Sql.Cmp
              ( Sql.Eq,
                (let b, s = env in
                 path_to_col ~binds:b ~single:s pa),
                (let b, s = env in
                 path_to_col ~binds:b ~single:s pb) ))
          pairs
      in
      (lf @ rf, lw @ rw @ pair_preds, binds)
  | e -> unsupported "not a join tree: %s" (Expr.to_string e)

let build_of_expr e =
  (* Strip optional Distinct, projection, residual Select; then match a
     join tree or a single leaf. *)
  let distinct, e =
    match e with Expr.Distinct inner -> (true, inner) | _ -> (false, e)
  in
  let proj, e =
    match e with
    | Expr.Map (inner, h) when not (match h with Expr.Hstruct [ (_, Expr.Attr []) ] -> true | _ -> false) ->
        (Some (`Head h), inner)
    | Expr.Project (inner, attrs) -> (Some (`Attrs attrs), inner)
    | _ -> (None, e)
  in
  let residual, e =
    match e with
    | Expr.Select (inner, p)
      when match inner with
           | Expr.Join _ | Expr.Map (_, Expr.Hstruct [ (_, Expr.Attr []) ]) -> true
           | _ -> false ->
        (Some p, inner)
    | _ -> (None, e)
  in
  let build =
    match e with
    | Expr.Map (_, Expr.Hstruct [ (_, Expr.Attr []) ]) | Expr.Join _ ->
        let from, where, binds = match_join_tree e in
        let where =
          match residual with
          | None -> where
          | Some p -> where @ [ pred_to_sql (binds, None) p ]
        in
        let output =
          match proj with
          | None -> Out_binds binds
          | Some (`Head h) -> Out_head h
          | Some (`Attrs attrs) -> ignore attrs; unsupported "project over binding structs"
        in
        { from; where; output; binds; single = None }
    | _ ->
        let table, preds = match_leaf e in
        let alias = "t0" in
        let env = ([], Some alias) in
        let where = List.map (pred_to_sql env) preds in
        let where =
          match residual with
          | None -> where
          | Some p -> where @ [ pred_to_sql env p ]
        in
        let output =
          match proj with
          | None -> Out_tuple alias
          | Some (`Attrs attrs) -> Out_project attrs
          | Some (`Head h) -> Out_head h
        in
        { from = [ (table, alias) ]; where; output; binds = []; single = Some alias }
  in
  (distinct, build)

(* A rebuilder of structs with fixed field names, each read from the
   flat SQL row: the names are sorted and checked for duplicates once,
   when the statement is compiled, not once per row. With a duplicate
   name every row goes through [V.strct], which raises. *)
let struct_of fields =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) fields
  in
  let rec unique = function
    | (a, _) :: ((b, _) :: _ as rest) -> (not (String.equal a b)) && unique rest
    | [ _ ] | [] -> true
  in
  let rec read row = function
    | [] -> []
    | (c, field) :: rest -> (c, field row) :: read row rest
  in
  if unique sorted then fun row -> V.Struct (read row sorted)
  else fun row -> V.strct (read row fields)

(* The answer collection. Rows from a table scanned in key order rebuild
   to values already in order, which [V.bag] and [V.set] only check. *)
let collection ~distinct rebuild_row result =
  let values = List.map rebuild_row result.Sql.rows in
  if distinct then V.set values else V.bag values

let conj = function
  | [] -> Sql.True
  | first :: rest -> List.fold_left (fun acc p -> Sql.And (acc, p)) first rest

let compile ~schema_of e =
  let distinct, b = build_of_expr e in
  let env = (b.binds, b.single) in
  let cols_of table =
    match schema_of table with
    | Some cols -> cols
    | None -> invalid_arg ("sqlgen: unknown source table " ^ table)
  in
  let table_of_alias alias =
    match List.find_opt (fun (_, a) -> String.equal a alias) b.from with
    | Some (table, _) -> table
    | None -> invalid_arg ("sqlgen: unknown alias " ^ alias)
  in
  (* SELECT items plus a rebuilder from each row. *)
  let column offset i row = row.(offset + i) in
  let tuple offset cols = struct_of (List.mapi (fun i c -> (c, column offset i)) cols) in
  let items, rebuild_row =
    match b.output with
    | Out_tuple alias ->
        let cols = cols_of (table_of_alias alias) in
        let items =
          List.map (fun c -> Sql.Item (Sql.Col (Some alias, c), Some c)) cols
        in
        (items, tuple 0 cols)
    | Out_project attrs ->
        let alias = Option.get b.single in
        let items =
          List.map (fun c -> Sql.Item (Sql.Col (Some alias, c), Some c)) attrs
        in
        (items, tuple 0 attrs)
    | Out_binds binds ->
        (* one slice of columns per variable; rebuild nested structs *)
        let slices =
          List.map
            (fun (var, alias) -> (var, alias, cols_of (table_of_alias alias)))
            binds
        in
        let items =
          List.concat_map
            (fun (var, alias, cols) ->
              List.map
                (fun c ->
                  Sql.Item (Sql.Col (Some alias, c), Some (var ^ "__" ^ c)))
                cols)
            slices
        in
        let _, fields =
          List.fold_left
            (fun (offset, acc) (var, _, cols) ->
              (offset + List.length cols, (var, tuple offset cols) :: acc))
            (0, []) slices
        in
        (items, struct_of fields)
    | Out_head (Expr.Hscalar s) ->
        let items = [ Sql.Item (scalar_to_sql env s, Some "value") ] in
        ((items : Sql.item list), fun row -> row.(0))
    | Out_head (Expr.Hstruct fields) ->
        (* a field whose scalar is a whole binding variable expands to all
           its columns *)
        let expanded =
          List.map
            (fun (name, s) ->
              match s with
              | Expr.Attr [ var ] when List.mem_assoc var b.binds ->
                  let alias = List.assoc var b.binds in
                  let cols = cols_of (table_of_alias alias) in
                  `Tuple (name, alias, cols)
              | s -> `Scalar (name, s))
            fields
        in
        let items =
          List.concat_map
            (function
              | `Tuple (name, alias, cols) ->
                  List.map
                    (fun c ->
                      Sql.Item (Sql.Col (Some alias, c), Some (name ^ "__" ^ c)))
                    cols
              | `Scalar (name, s) -> [ Sql.Item (scalar_to_sql env s, Some name) ])
            expanded
        in
        let _, out =
          List.fold_left
            (fun (offset, acc) part ->
              match part with
              | `Tuple (name, _, cols) ->
                  (offset + List.length cols, (name, tuple offset cols) :: acc)
              | `Scalar (name, _) -> (offset + 1, (name, column offset 0) :: acc))
            (0, []) expanded
        in
        (items, struct_of out)
  in
  let sql =
    Sql.select ~distinct ~where:(conj b.where) items
      (List.map (fun (table, alias) -> (table, Some alias)) b.from)
  in
  (* SELECT DISTINCT already removed duplicates; the answer is a set *)
  let rebuild = collection ~distinct rebuild_row in
  { sql; rebuild }
