module V = Disco_value.Value
module Lexer = Disco_lex.Lexer
module Stream = Disco_lex.Lexer.Stream

type scalar =
  | Col of string option * string
  | Lit of V.t
  | Arith of arith_op * scalar * scalar

and arith_op = Add | Sub | Mul | Div | Mod

type cmp = Eq | Ne | Lt | Le | Gt | Ge | Like

type pred =
  | True
  | Cmp of cmp * scalar * scalar
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type item = Star | Item of scalar * string option

type query = {
  distinct : bool;
  items : item list;
  from : (string * string option) list;
  where : pred;
  order_by : (scalar * [ `Asc | `Desc ]) list;
  limit : int option;
}

let select ?(distinct = false) ?(where = True) ?(order_by = []) ?limit items
    from =
  { distinct; items; from; where; order_by; limit }

(* -- printing -- *)

let arith_symbol = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

let cmp_symbol = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Like -> "LIKE"

let pp_lit ppf = function
  | V.Null -> Fmt.string ppf "NULL"
  | V.Bool true -> Fmt.string ppf "TRUE"
  | V.Bool false -> Fmt.string ppf "FALSE"
  | V.Int i -> Fmt.int ppf i
  | V.Float f -> Fmt.pf ppf "%.12g" f
  | V.String s ->
      (* Backslash-escape quotes and backslashes: the lexer reads [\c] as
         [c], so this round-trips — SQL-style [''] doubling does not (the
         lexer reads it as two adjacent string tokens), which used to break
         LIKE patterns and any quoted quote. *)
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          (match c with
          | '\'' | '\\' -> Buffer.add_char buf '\\'
          | _ -> ());
          Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Fmt.string ppf (Buffer.contents buf)
  | v -> invalid_arg ("non-atomic SQL literal: " ^ V.type_name v)

let rec pp_scalar ppf = function
  | Col (None, c) -> Fmt.string ppf c
  | Col (Some t, c) -> Fmt.pf ppf "%s.%s" t c
  | Lit v -> pp_lit ppf v
  | Arith (op, a, b) ->
      Fmt.pf ppf "(%a %s %a)" pp_scalar a (arith_symbol op) pp_scalar b

let rec pp_pred ppf = function
  | True -> Fmt.string ppf "TRUE"
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_scalar a (cmp_symbol op) pp_scalar b
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp_pred a pp_pred b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp_pred a pp_pred b
  | Not a -> Fmt.pf ppf "NOT (%a)" pp_pred a

let pp_item ppf = function
  | Star -> Fmt.string ppf "*"
  | Item (s, None) -> pp_scalar ppf s
  | Item (s, Some a) -> Fmt.pf ppf "%a AS %s" pp_scalar s a

let pp_from ppf (table, alias) =
  match alias with
  | None -> Fmt.string ppf table
  | Some a -> Fmt.pf ppf "%s %s" table a

let pp_query ppf q =
  Fmt.pf ppf "SELECT %s%a FROM %a"
    (if q.distinct then "DISTINCT " else "")
    (Fmt.list ~sep:(Fmt.any ", ") pp_item)
    q.items
    (Fmt.list ~sep:(Fmt.any ", ") pp_from)
    q.from;
  (match q.where with
  | True -> ()
  | p -> Fmt.pf ppf " WHERE %a" pp_pred p);
  (match q.order_by with
  | [] -> ()
  | obs ->
      let pp_ob ppf (s, dir) =
        Fmt.pf ppf "%a %s" pp_scalar s
          (match dir with `Asc -> "ASC" | `Desc -> "DESC")
      in
      Fmt.pf ppf " ORDER BY %a" (Fmt.list ~sep:(Fmt.any ", ") pp_ob) obs);
  match q.limit with None -> () | Some n -> Fmt.pf ppf " LIMIT %d" n

let to_string q = Fmt.str "%a" pp_query q

(* -- parsing -- *)

let puncts =
  [ "<="; ">="; "<>"; "!="; "="; "<"; ">"; "("; ")"; ","; "."; "+"; "-"; "*"; "/"; "%" ]

let rec parse_scalar s = parse_additive s

and parse_additive s =
  let left = parse_multiplicative s in
  if Stream.try_punct s "+" then Arith (Add, left, parse_additive s)
  else if Stream.try_punct s "-" then
    (* left-associate subtraction chains *)
    let rec chain acc =
      let right = parse_multiplicative s in
      let acc = Arith (Sub, acc, right) in
      if Stream.try_punct s "-" then chain acc
      else if Stream.try_punct s "+" then Arith (Add, acc, parse_additive s)
      else acc
    in
    chain left
  else left

and parse_multiplicative s =
  let left = parse_atom s in
  if Stream.try_punct s "*" then Arith (Mul, left, parse_multiplicative s)
  else if Stream.try_punct s "/" then Arith (Div, left, parse_multiplicative s)
  else if Stream.try_punct s "%" then Arith (Mod, left, parse_multiplicative s)
  else left

and parse_atom s =
  match Stream.peek s with
  | Some (Lexer.Int i) ->
      ignore (Stream.next s);
      Lit (V.Int i)
  | Some (Lexer.Float f) ->
      ignore (Stream.next s);
      Lit (V.Float f)
  | Some (Lexer.Str str) ->
      ignore (Stream.next s);
      Lit (V.String str)
  | Some (Lexer.Punct "(") ->
      ignore (Stream.next s);
      let e = parse_scalar s in
      Stream.eat_punct s ")";
      e
  | Some (Lexer.Punct "-") -> (
      ignore (Stream.next s);
      (* A negative literal parses as a literal, so [Lit (Int (-5))]
         round-trips through the printer instead of reparsing as
         [0 - 5]. Prefix minus on anything else stays arithmetic. *)
      match Stream.peek s with
      | Some (Lexer.Int i) ->
          ignore (Stream.next s);
          Lit (V.Int (-i))
      | Some (Lexer.Float f) ->
          ignore (Stream.next s);
          Lit (V.Float (-.f))
      | _ -> Arith (Sub, Lit (V.Int 0), parse_atom s))
  | Some (Lexer.Ident id) when String.lowercase_ascii id = "null" ->
      ignore (Stream.next s);
      Lit V.Null
  | Some (Lexer.Ident id) when String.lowercase_ascii id = "true" ->
      ignore (Stream.next s);
      Lit (V.Bool true)
  | Some (Lexer.Ident id) when String.lowercase_ascii id = "false" ->
      ignore (Stream.next s);
      Lit (V.Bool false)
  | Some (Lexer.Ident _) ->
      let first = Stream.ident s in
      if Stream.try_punct s "." then Col (Some first, Stream.ident s)
      else Col (None, first)
  | _ -> Stream.failf s "expected a scalar expression"

let parse_cmp_op s =
  if Stream.try_kw s "like" then Like
  else if Stream.try_punct s "=" then Eq
  else if Stream.try_punct s "<>" then Ne
  else if Stream.try_punct s "!=" then Ne
  else if Stream.try_punct s "<=" then Le
  else if Stream.try_punct s ">=" then Ge
  else if Stream.try_punct s "<" then Lt
  else if Stream.try_punct s ">" then Gt
  else Stream.failf s "expected a comparison operator"

let rec parse_pred s = parse_or s

and parse_or s =
  let left = parse_and s in
  if Stream.try_kw s "or" then Or (left, parse_or s) else left

and parse_and s =
  let left = parse_not s in
  if Stream.try_kw s "and" then And (left, parse_and s) else left

and parse_not s =
  if Stream.try_kw s "not" then Not (parse_not s) else parse_pred_atom s

and parse_pred_atom s =
  let comparison s =
    let left = parse_scalar s in
    let op = parse_cmp_op s in
    let right = parse_scalar s in
    Cmp (op, left, right)
  in
  if Stream.peek_punct s "(" then (
    (* "(" opens either a parenthesized predicate or a parenthesized
       scalar that begins a comparison; try the predicate reading and
       backtrack on failure. *)
    let saved = Stream.save s in
    match
      (try
         Stream.eat_punct s "(";
         let inner = parse_pred s in
         Stream.eat_punct s ")";
         Some inner
       with Lexer.Error _ -> None)
    with
    | Some inner -> inner
    | None ->
        Stream.restore s saved;
        comparison s)
  else if Stream.try_kw s "true" then True
  else comparison s

let parse_item s =
  if Stream.try_punct s "*" then Star
  else
    let e = parse_scalar s in
    if Stream.try_kw s "as" then Item (e, Some (Stream.ident s))
    else Item (e, None)

let reserved =
  [ "from"; "where"; "order"; "limit"; "group"; "as"; "and"; "or"; "not"; "asc"; "desc" ]

let parse_from_entry s =
  let table = Stream.ident s in
  match Stream.peek s with
  | Some (Lexer.Ident id)
    when not (List.mem (String.lowercase_ascii id) reserved) ->
      ignore (Stream.next s);
      (table, Some id)
  | _ -> (table, None)

let rec parse_comma_list s elem =
  let first = elem s in
  if Stream.try_punct s "," then first :: parse_comma_list s elem else [ first ]

let parse_query s =
  Stream.eat_kw s "select";
  let distinct = Stream.try_kw s "distinct" in
  let items = parse_comma_list s parse_item in
  Stream.eat_kw s "from";
  let from = parse_comma_list s parse_from_entry in
  let where = if Stream.try_kw s "where" then parse_pred s else True in
  let order_by =
    if Stream.try_kw s "order" then (
      Stream.eat_kw s "by";
      parse_comma_list s (fun s ->
          let e = parse_scalar s in
          let dir =
            if Stream.try_kw s "desc" then `Desc
            else (
              ignore (Stream.try_kw s "asc");
              `Asc)
          in
          (e, dir)))
    else []
  in
  let limit =
    if Stream.try_kw s "limit" then
      match Stream.next s with
      | Lexer.Int n -> Some n
      | t -> Stream.failf s "expected an integer limit, found %s" (Lexer.token_to_string t)
    else None
  in
  { distinct; items; from; where; order_by; limit }

let parse input =
  let s = Stream.of_string ~puncts input in
  let q = parse_query s in
  ignore (Stream.try_punct s ";");
  Stream.expect_end s;
  q

(* -- results -- *)

type result = { columns : string list; rows : V.t array list }

let result_to_bag r =
  V.bag
    (List.map
       (fun row -> V.strct (List.mapi (fun i c -> (c, row.(i))) r.columns))
       r.rows)

(* -- evaluation -- *)

exception Sql_error of string

let sql_error fmt = Format.kasprintf (fun s -> raise (Sql_error s)) fmt

(* A binding environment: one (alias, schema, row) frame per FROM entry. *)
type frame = { alias : string; schema : Schema.t; mutable row : V.t array }

let lookup_col frames qualifier column =
  let candidates =
    List.filter
      (fun f ->
        (match qualifier with
        | Some q -> String.equal q f.alias
        | None -> true)
        && Schema.mem f.schema column)
      frames
  in
  match candidates with
  | [ f ] -> (f, Schema.index_of f.schema column)
  | [] ->
      sql_error "unknown column %s%s"
        (match qualifier with Some q -> q ^ "." | None -> "")
        column
  | _ -> sql_error "ambiguous column %s" column

let numeric_arith op a b =
  match (op, a, b) with
  | _, V.Null, _ | _, _, V.Null -> V.Null
  | Add, V.Int x, V.Int y -> V.Int (x + y)
  | Sub, V.Int x, V.Int y -> V.Int (x - y)
  | Mul, V.Int x, V.Int y -> V.Int (x * y)
  | Div, V.Int x, V.Int y ->
      if y = 0 then sql_error "division by zero" else V.Int (x / y)
  | Mod, V.Int x, V.Int y ->
      if y = 0 then sql_error "modulo by zero" else V.Int (x mod y)
  | Mod, _, _ -> sql_error "modulo requires integers"
  | _, (V.Int _ | V.Float _), (V.Int _ | V.Float _) ->
      let x = V.to_float a and y = V.to_float b in
      V.Float
        (match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> if y = 0.0 then sql_error "division by zero" else x /. y
        | Mod -> assert false)
  | Add, V.String x, V.String y -> V.String (x ^ y)
  | _ ->
      sql_error "arithmetic on non-numeric values %s and %s" (V.type_name a)
        (V.type_name b)

let rec eval_scalar frames = function
  | Lit v -> v
  | Col (q, c) ->
      let f, i = lookup_col frames q c in
      f.row.(i)
  | Arith (op, a, b) ->
      numeric_arith op (eval_scalar frames a) (eval_scalar frames b)

let eval_cmp op a b =
  (* SQL three-valued logic collapsed to two values: comparisons against
     NULL are false (except NULL = NULL, used by wrappers for missing
     data joins). *)
  match op with
  | Like -> (
      match (a, b) with
      | V.String s, V.String pattern -> V.like_match ~pattern s
      | V.Null, _ | _, V.Null -> false
      | _ -> sql_error "LIKE requires strings")
  | _ ->
  match V.numeric_compare a b with
  | None -> sql_error "type mismatch comparing %s and %s" (V.type_name a) (V.type_name b)
  | Some c -> (
      match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0
      | Like -> assert false)

let rec eval_pred frames = function
  | True -> true
  | Cmp (op, a, b) -> eval_cmp op (eval_scalar frames a) (eval_scalar frames b)
  | And (a, b) -> eval_pred frames a && eval_pred frames b
  | Or (a, b) -> eval_pred frames a || eval_pred frames b
  | Not a -> not (eval_pred frames a)

let scalar_output_name = function
  | Col (_, c) -> c
  | Lit _ -> "literal"
  | Arith _ -> "expr"

(* Shared between the row and columnar engines: * expansion, output
   column naming, and the DISTINCT / ORDER BY / LIMIT tail. Sharing the
   tail is what keeps the engines' answers identical row-for-row. *)

let expand_items alias_schemas items =
  List.concat_map
    (function
      | Star ->
          List.concat_map
            (fun (alias, schema) ->
              List.map
                (fun c -> Item (Col (Some alias, c), Some c))
                (Schema.column_names schema))
            alias_schemas
      | Item _ as it -> [ it ])
    items

let output_columns items =
  List.map
    (function
      | Item (s, Some a) ->
          ignore s;
          a
      | Item (s, None) -> scalar_output_name s
      | Star -> assert false)
    items

let finalize q columns rows =
  let rows =
    if q.distinct then
      List.sort_uniq
        (fun a b ->
          V.compare (V.List (Array.to_list a)) (V.List (Array.to_list b)))
        rows
    else rows
  in
  let rows =
    match q.order_by with
    | [] -> rows
    | order_by ->
        (* Order-by keys are evaluated against the *output* row when the
           scalar is a bare output column, else against the input frames
           (already consumed); we support output-column ordering, which is
           what the wrappers generate. *)
        let key_indices =
          List.map
            (fun (s, dir) ->
              match s with
              | Col (None, c) -> (
                  match
                    List.find_index (fun col -> String.equal col c) columns
                  with
                  | Some i -> (i, dir)
                  | None -> sql_error "ORDER BY column %s not in select list" c)
              | _ -> sql_error "ORDER BY supports plain output columns only")
            order_by
        in
        let cmp_rows a b =
          let rec go = function
            | [] -> 0
            | (i, dir) :: rest ->
                let c = V.compare a.(i) b.(i) in
                let c = match dir with `Asc -> c | `Desc -> -c in
                if c <> 0 then c else go rest
          in
          go key_indices
        in
        List.stable_sort cmp_rows rows
  in
  let rows =
    match q.limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  { columns; rows }

(* -- row-at-a-time engine --

   The original tuple-at-a-time interpreter, retained verbatim as the
   reference semantics only: [run] never calls it, and the columnar
   executor must agree with it bag-for-bag (the equivalence property
   tests and bench E16 compare the two). *)

let run_rows db q =
  if q.items = [] then sql_error "empty select list";
  if q.from = [] then sql_error "empty from list";
  let frames =
    List.map
      (fun (table_name, alias) ->
        match Database.find_table db table_name with
        | None -> sql_error "no table named %s" table_name
        | Some t ->
            {
              alias = Option.value alias ~default:table_name;
              schema = Table.schema t;
              row = [||];
            })
      q.from
  in
  (let aliases = List.map (fun f -> f.alias) frames in
   if List.length (List.sort_uniq String.compare aliases) <> List.length aliases
   then sql_error "duplicate table alias in FROM");
  let tables =
    List.map (fun (table_name, _) -> Database.get_table db table_name) q.from
  in
  (* Expand * into per-frame column items. *)
  let items =
    expand_items (List.map (fun f -> (f.alias, f.schema)) frames) q.items
  in
  let columns = output_columns items in
  let out = ref [] in
  let emit () =
    if eval_pred frames q.where then
      let row =
        Array.of_list
          (List.map
             (function
               | Item (s, _) -> eval_scalar frames s
               | Star -> assert false)
             items)
      in
      out := row :: !out
  in
  (* Nested-loop cartesian product over the FROM frames. *)
  let rec product frames_tables =
    match frames_tables with
    | [] -> emit ()
    | (frame, table) :: rest ->
        List.iter
          (fun row ->
            frame.row <- row;
            product rest)
          (Table.rows table)
  in
  product (List.combine frames tables);
  finalize q columns (List.rev !out)

(* -- columnar engine --

   Batch-at-a-time evaluation over the tables' column vectors. Predicates
   evaluate as passes over selection vectors (ascending row ids);
   [Cmp(op, col, lit)] shapes run as typed kernels over the unboxed
   arrays (string equality compares dictionary codes; LIKE is evaluated
   once per distinct dictionary entry); everything else drops to a
   per-active-row evaluation of the same [eval_cmp]/[numeric_arith] the
   row engine uses.

   Parity rules the engines observe so that answers (and raised errors)
   coincide:
   - masked evaluation: [And (a, b)] evaluates [b] only on rows where [a]
     held, [Or (a, b)] only where [a] failed — exactly the (row,
     subexpression) pairs the row engine's short-circuit evaluation
     visits, so a raising subexpression raises in both engines;
   - column resolution failures are compiled into raising closures, so —
     as in the row engine, which resolves per (row, scalar) — an unknown
     column in an item only raises if some row reaches it;
   - indexes, hash joins and conjunct reordering are used only when the
     whole predicate is statically total (cannot raise: no Div/Mod, all
     comparisons type-compatible by schema), so evaluation order is
     unobservable. Otherwise no conjunct moves: one frame evaluates the
     predicate masked, several check it on each complete tuple in the
     row engine's order;
   - emission order reproduces the row engine's nested loop (tuples
     left-major in FROM order, each frame's rows in insertion order),
     which LIMIT without ORDER BY can observe. *)

type cframe = { cf_alias : string; cf_schema : Schema.t; cf_table : Table.t }

(* Mirrors [lookup_col]'s candidate rules and error messages. *)
let resolve_col frames qualifier column =
  let hits = ref [] in
  Array.iteri
    (fun fi f ->
      if
        (match qualifier with
        | Some q -> String.equal q f.cf_alias
        | None -> true)
        && Schema.mem f.cf_schema column
      then hits := (fi, Schema.index_of f.cf_schema column) :: !hits)
    frames;
  match !hits with
  | [ hit ] -> Ok hit
  | [] ->
      Error
        (Fmt.str "unknown column %s%s"
           (match qualifier with Some q -> q ^ "." | None -> "")
           column)
  | _ -> Error (Fmt.str "ambiguous column %s" column)

(* A compiled scalar takes one row id per frame. It holds the frames'
   column vectors, which keep their identity across writes
   ({!Table.column_at}), so it stays valid, and pins no stale copy, for
   as long as its tables exist. *)
let rec compile_scalar frames = function
  | Lit v -> fun _ -> v
  | Col (q, c) -> (
      match resolve_col frames q c with
      | Ok (fi, ci) ->
          let col = Table.column_at frames.(fi).cf_table ci in
          fun rows -> Column.get col rows.(fi)
      | Error msg -> fun _ -> raise (Sql_error msg))
  | Arith (op, a, b) ->
      let fa = compile_scalar frames a and fb = compile_scalar frames b in
      fun rows -> numeric_arith op (fa rows) (fb rows)

let rec compile_pred frames = function
  | True -> fun _ -> true
  | Cmp (op, x, y) ->
      let fx = compile_scalar frames x and fy = compile_scalar frames y in
      fun rows -> eval_cmp op (fx rows) (fy rows)
  | And (a, b) ->
      let fa = compile_pred frames a and fb = compile_pred frames b in
      fun rows -> fa rows && fb rows
  | Or (a, b) ->
      let fa = compile_pred frames a and fb = compile_pred frames b in
      fun rows -> fa rows || fb rows
  | Not a ->
      let fa = compile_pred frames a in
      fun rows -> not (fa rows)

(* -- static totality: can evaluating this predicate ever raise? -- *)

type kinds = { k_num : bool; k_str : bool; k_bool : bool; k_null : bool }

let no_kinds = { k_num = false; k_str = false; k_bool = false; k_null = false }

(* [Some kinds]: evaluation cannot raise and yields one of these kinds.
   [None]: evaluation may raise (or is beyond the analysis). *)
let rec scalar_kinds frames = function
  | Lit (V.Int _ | V.Float _) -> Some { no_kinds with k_num = true }
  | Lit (V.String _) -> Some { no_kinds with k_str = true }
  | Lit (V.Bool _) -> Some { no_kinds with k_bool = true }
  | Lit V.Null -> Some { no_kinds with k_null = true }
  | Lit _ -> None
  | Col (q, c) -> (
      match resolve_col frames q c with
      | Error _ -> None
      | Ok (fi, ci) -> (
          let nullable = { no_kinds with k_null = true } in
          match snd (List.nth frames.(fi).cf_schema.Schema.columns ci) with
          | Schema.TInt | Schema.TFloat -> Some { nullable with k_num = true }
          | Schema.TString -> Some { nullable with k_str = true }
          | Schema.TBool -> Some { nullable with k_bool = true }))
  | Arith ((Div | Mod), _, _) -> None
  | Arith (((Add | Sub | Mul) as op), a, b) -> (
      match (scalar_kinds frames a, scalar_kinds frames b) with
      | Some ka, Some kb ->
          (* every possible operand pairing must be raise-free *)
          let num_num = ka.k_num && kb.k_num in
          let str_str = op = Add && ka.k_str && kb.k_str in
          let bad_left = ka.k_bool || (ka.k_str && not str_str) in
          let bad_right = kb.k_bool || (kb.k_str && not str_str) in
          let mixed =
            (ka.k_num && kb.k_str) || (ka.k_str && kb.k_num) || bad_left
            || bad_right
          in
          if mixed then None
          else
            Some
              {
                no_kinds with
                k_num = num_num;
                k_str = str_str;
                k_null = ka.k_null || kb.k_null;
              }
      | _ -> None)

let cmp_total op ka kb =
  let pairs_ok =
    match op with
    | Like ->
        (* String LIKE String matches; NULL on either side is false;
           anything else raises. *)
        (not (ka.k_num || ka.k_bool)) && not (kb.k_num || kb.k_bool)
    | _ ->
        (* [numeric_compare] succeeds on same-kind operands and on NULL
           against anything; cross-kind raises. *)
        let cross =
          (ka.k_num && (kb.k_str || kb.k_bool))
          || (ka.k_str && (kb.k_num || kb.k_bool))
          || (ka.k_bool && (kb.k_num || kb.k_str))
        in
        not cross
  in
  pairs_ok

let rec pred_total frames = function
  | True -> true
  | And (a, b) | Or (a, b) -> pred_total frames a && pred_total frames b
  | Not a -> pred_total frames a
  | Cmp (op, x, y) -> (
      match (scalar_kinds frames x, scalar_kinds frames y) with
      | Some ka, Some kb -> cmp_total op ka kb
      | _ -> false)

(* -- selection vectors: ascending row-id arrays -- *)

let sel_all n = Array.init n Fun.id

let sel_filter active pass =
  let buf = Array.make (Array.length active) 0 in
  let k = ref 0 in
  Array.iter
    (fun r ->
      if pass r then (
        buf.(!k) <- r;
        incr k))
    active;
  Array.sub buf 0 !k

(* [active] minus [sub]; [sub] is an ascending subset of [active]. *)
let sel_diff active sub =
  let buf = Array.make (Array.length active) 0 in
  let k = ref 0 and j = ref 0 in
  let m = Array.length sub in
  Array.iter
    (fun r ->
      if !j < m && sub.(!j) = r then incr j
      else (
        buf.(!k) <- r;
        incr k))
    active;
  Array.sub buf 0 !k

(* Merge of two disjoint ascending arrays. *)
let sel_union a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    if a.(!i) < b.(!j) then (
      out.(!k) <- a.(!i);
      incr i)
    else (
      out.(!k) <- b.(!j);
      incr j);
    incr k
  done;
  while !i < la do
    out.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < lb do
    out.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  out

(* -- typed comparison kernels for [col <op> lit] -- *)

let cmp_holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Like -> assert false

let flip_cmp = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | Like -> assert false

(* A per-row test for [value(col, row) <op> lit], following
   [numeric_compare] (NULL < everything, NULL = NULL) exactly. [None]
   when no typed kernel applies — the caller falls back to the generic
   per-row path, which also owns every raising case (so error messages
   keep the row engine's operand orientation). *)
let col_lit_kernel col op lit =
  match op with
  | Like -> (
      match (col.Column.payload, lit) with
      | Column.Strings s, V.String pattern ->
          (* one LIKE evaluation per distinct dictionary entry *)
          let memo = Bytes.make (max 1 s.Column.dict_size) '\002' in
          let verdict code =
            match Bytes.get memo code with
            | '\000' -> false
            | '\001' -> true
            | _ ->
                let v = V.like_match ~pattern s.Column.dict.(code) in
                Bytes.set memo code (if v then '\001' else '\000');
                v
          in
          Some
            (fun r ->
              (not (Column.is_null col r)) && verdict s.Column.codes.(r))
      | Column.Strings _, V.Null -> Some (fun _ -> false)
      | _ -> None)
  | _ -> (
      let holds = cmp_holds op in
      let on_null = holds (-1) in
      match (col.Column.payload, lit) with
      | _, V.Null ->
          (* NULL = NULL only; everything else is greater than NULL *)
          let null_pass = holds 0 and val_pass = holds 1 in
          Some
            (fun r -> if Column.is_null col r then null_pass else val_pass)
      | Column.Ints a, V.Int k ->
          (* the hottest kernel: branch on the operator once, not per row *)
          let nulls = col.Column.nulls in
          let test =
            match op with
            | Eq -> fun r -> a.(r) = k
            | Ne -> fun r -> a.(r) <> k
            | Lt -> fun r -> a.(r) < k
            | Le -> fun r -> a.(r) <= k
            | Gt -> fun r -> a.(r) > k
            | Ge -> fun r -> a.(r) >= k
            | Like -> assert false
          in
          Some
            (fun r -> if Bytes.get nulls r = '\001' then on_null else test r)
      | Column.Ints a, V.Float f ->
          Some
            (fun r ->
              if Column.is_null col r then on_null
              else holds (Float.compare (float_of_int a.(r)) f))
      | Column.Floats a, V.Float f ->
          Some
            (fun r ->
              if Column.is_null col r then on_null
              else holds (Float.compare a.(r) f))
      | Column.Floats a, V.Int k ->
          let f = float_of_int k in
          Some
            (fun r ->
              if Column.is_null col r then on_null
              else holds (Float.compare a.(r) f))
      | Column.Strings s, V.String str -> (
          match op with
          | Eq | Ne ->
              (* encoded equality: an integer comparison on codes *)
              let code =
                match Column.code_of_opt col str with
                | Some c -> c
                | None -> -2 (* absent from the dictionary: never equal *)
              in
              let eq_pass = holds 0 and ne_pass = holds 1 in
              Some
                (fun r ->
                  if Column.is_null col r then on_null
                  else if s.Column.codes.(r) = code then eq_pass
                  else ne_pass)
          | _ ->
              (* one String.compare per distinct dictionary entry *)
              let memo = Bytes.make (max 1 s.Column.dict_size) '\002' in
              let verdict code =
                match Bytes.get memo code with
                | '\000' -> false
                | '\001' -> true
                | _ ->
                    let v = holds (String.compare s.Column.dict.(code) str) in
                    Bytes.set memo code (if v then '\001' else '\000');
                    v
              in
              Some
                (fun r ->
                  if Column.is_null col r then on_null
                  else verdict s.Column.codes.(r)))
      | Column.Bools b, V.Bool x ->
          Some
            (fun r ->
              if Column.is_null col r then on_null
              else holds (Bool.compare (Bytes.get b r = '\001') x))
      | _ -> None)

(* -- masked predicate evaluation over one table -- *)

let cmp_pass frames op x y =
  let kernel =
    match (x, y) with
    | Col (q, c), Lit v -> (
        match resolve_col frames q c with
        | Ok (fi, ci) ->
            col_lit_kernel (Table.column_at frames.(fi).cf_table ci) op v
        | Error _ -> None)
    | Lit v, Col (q, c) when op <> Like -> (
        match resolve_col frames q c with
        | Ok (fi, ci) ->
            col_lit_kernel
              (Table.column_at frames.(fi).cf_table ci)
              (flip_cmp op) v
        | Error _ -> None)
    | _ -> None
  in
  match kernel with
  | Some pass -> pass
  | None ->
      let fx = compile_scalar frames x and fy = compile_scalar frames y in
      let rowbuf = Array.make (Array.length frames) 0 in
      fun r ->
        rowbuf.(0) <- r;
        eval_cmp op (fx rowbuf) (fy rowbuf)

let eval_cmp_vec frames active op x y = sel_filter active (cmp_pass frames op x y)

let rec eval_pred_vec frames active = function
  | True -> active
  | Cmp (op, x, y) -> eval_cmp_vec frames active op x y
  | And (a, b) ->
      let sa = eval_pred_vec frames active a in
      eval_pred_vec frames sa b
  | Or (a, b) ->
      let sa = eval_pred_vec frames active a in
      let sb = eval_pred_vec frames (sel_diff active sa) b in
      sel_union sa sb
  | Not a -> sel_diff active (eval_pred_vec frames active a)

(* The first predicate pass over a whole table: run the leading kernels
   against the implicit 0..n-1 range instead of materializing an
   identity selection vector first.  Falls back to the materialized path
   for [Or]/[Not], whose complements need the range as an array. *)
let rec eval_pred_full frames n = function
  | True -> sel_all n
  | Cmp (op, x, y) ->
      let pass = cmp_pass frames op x y in
      let buf = Array.make (max 1 n) 0 in
      let k = ref 0 in
      for r = 0 to n - 1 do
        if pass r then (
          buf.(!k) <- r;
          incr k)
      done;
      Array.sub buf 0 !k
  | And (a, b) -> eval_pred_vec frames (eval_pred_full frames n a) b
  | (Or _ | Not _) as p -> eval_pred_vec frames (sel_all n) p

(* -- index planning (single table) -- *)

let conjuncts p =
  let rec go acc = function
    | And (a, b) -> go (go acc b) a
    | True -> acc
    | p -> p :: acc
  in
  go [] p

let rec conjoin = function
  | [] -> True
  | [ p ] -> p
  | p :: rest -> And (p, conjoin rest)

let index_op = function
  | Eq -> Some Index.Op_eq
  | Lt -> Some Index.Op_lt
  | Le -> Some Index.Op_le
  | Gt -> Some Index.Op_gt
  | Ge -> Some Index.Op_ge
  | Ne | Like -> None

(* The index access for a statically total predicate, as
   [(column, rows, remaining conjuncts)]. The column is that of the first
   conjunct its index can serve; every conjunct on it the index can serve
   narrows one slice of the index, and the others stay to be evaluated
   on that slice's rows. Taking conjuncts out of evaluation order is
   unobservable on a total predicate. *)
let pick_index frames pred =
  let table = frames.(0).cf_table in
  let probe op q c v =
    match (index_op op, Table.index_kind table c) with
    | Some iop, Some kind when Index.serves kind iop -> (
        match resolve_col frames q c with
        | Ok (_, ci) -> Some (ci, c, iop, v)
        | Error _ -> None)
    | _ -> None
  in
  let probes =
    List.map
      (fun p ->
        ( p,
          match p with
          | Cmp (op, Col (q, c), Lit v) -> probe op q c v
          | Cmp (op, Lit v, Col (q, c)) when op <> Like ->
              probe (flip_cmp op) q c v
          | _ -> None ))
      (conjuncts pred)
  in
  let slice ix ci (_, probe) =
    match probe with
    | Some (ci', _, iop, v) when ci' = ci ->
        Index.interval ix (Table.column_at table ci) iop v
    | _ -> None
  in
  (* the column and index of a conjunct its index serves *)
  let access = function
    | (_, Some (ci, c, _, _)) as p ->
        let ix = Option.get (Table.index_for table c) in
        Option.map (fun _ -> (ci, c, ix)) (slice ix ci p)
    | _, None -> None
  in
  Option.map
    (fun (ci, c, ix) ->
      let (lo, hi), rest =
        List.fold_left
          (fun ((lo, hi), rest) p ->
            match slice ix ci p with
            | Some (lo', hi') -> ((max lo lo', min hi hi'), rest)
            | None -> ((lo, hi), fst p :: rest))
          ((0, max_int), []) probes
      in
      (c, Index.rows ix (lo, hi), List.rev rest))
    (List.find_map access probes)

(* -- the executor: one statement per query, for a FROM list of any length -- *)

(* Hash key of a float: raw bits with NaNs collapsed to one key. Distinct
   floats get distinct keys except where [Float.compare] calls them equal
   (all NaNs are equal under the total order), and [Int64.to_int]'s
   dropped sign bit only ever merges buckets, which the probe side's
   exact re-check undoes. *)
let float_key f =
  let f = if Float.is_nan f then Float.nan else f in
  Int64.to_int (Int64.bits_of_float f)

(* [probe r]: the rows of [sel] (ascending) whose [build] value equals
   the [probe] column's value at row [r], as [eval_cmp Eq] decides (NULL
   meets NULL). The two columns have one type, so keys need no numeric
   coercion; a string probe translates its dictionary code to [build]'s
   once per distinct string. *)
let hash_probe build sel probe =
  let key = function
    | Column.Ints a -> fun r -> a.(r)
    | Column.Floats a -> fun r -> float_key a.(r)
    | Column.Bools b -> fun r -> Bool.to_int (Bytes.get b r = '\001')
    | Column.Strings s -> fun r -> s.Column.codes.(r)
  in
  let build_key = key build.Column.payload in
  let buckets = Hashtbl.create (max 16 (Array.length sel)) in
  let nulls = ref [] in
  for k = Array.length sel - 1 downto 0 do
    let r = sel.(k) in
    if Column.is_null build r then nulls := r :: !nulls
    else
      let h = build_key r in
      Hashtbl.replace buckets h
        (r :: Option.value (Hashtbl.find_opt buckets h) ~default:[])
  done;
  let nulls = !nulls in
  let find h = Option.value (Hashtbl.find_opt buckets h) ~default:[] in
  let matches =
    match (probe.Column.payload, build.Column.payload) with
    | Column.Floats p, Column.Floats b ->
        fun r ->
          List.filter
            (fun r' -> Float.compare b.(r') p.(r) = 0)
            (find (float_key p.(r)))
    | Column.Strings p, _ ->
        let xlate = Array.make (max 1 p.Column.dict_size) (-2) in
        fun r ->
          let c = p.Column.codes.(r) in
          if xlate.(c) = -2 then
            xlate.(c) <-
              Option.value
                (Column.code_of_opt build p.Column.dict.(c))
                ~default:(-1);
          if xlate.(c) < 0 then [] else find xlate.(c)
    | payload, _ ->
        let probe_key = key payload in
        fun r -> find (probe_key r)
  in
  fun r -> if Column.is_null probe r then nulls else matches r

let rec scalar_frames frames acc = function
  | Lit _ -> acc
  | Col (q, c) -> (
      match resolve_col frames q c with Ok (fi, _) -> fi :: acc | Error _ -> acc)
  | Arith (_, a, b) -> scalar_frames frames (scalar_frames frames acc a) b

let rec pred_frames frames acc = function
  | True -> acc
  | Cmp (_, a, b) -> scalar_frames frames (scalar_frames frames acc a) b
  | And (a, b) | Or (a, b) -> pred_frames frames (pred_frames frames acc a) b
  | Not a -> pred_frames frames acc a

(* [Some (j, cj, ci)] when [p] is [col = col] between frame [i]'s column
   [ci] and column [cj] of an earlier frame [j], both of one type. *)
let join_key frames i p =
  match p with
  | Cmp (Eq, Col (qx, cx), Col (qy, cy)) -> (
      let ty fi ci = snd (List.nth frames.(fi).cf_schema.Schema.columns ci) in
      match (resolve_col frames qx cx, resolve_col frames qy cy) with
      | Ok (fx, ix), Ok (fy, iy) when ty fx ix = ty fy iy ->
          if fx = i && fy < i then Some (fy, iy, ix)
          else if fy = i && fx < i then Some (fx, ix, iy)
          else None
      | _ -> None)
  | _ -> None

(* One FROM entry of a statement: the conjuncts that read it alone
   ([local], served by an index when one can), the hash-join key
   [Some (j, cj, ci)] probing it by frame [j]'s bound row, and the
   conjuncts [check] whose last frame it is, checked on each of its rows
   as it is bound. A total predicate is split into conjuncts, each
   placed at the last frame it reads; a non-total one reads every frame,
   so it stays whole at the last (with one frame, that frame's masked
   filter). *)
type step = {
  local : pred;
  key : (int * int * int) option;
  check : int array -> bool;
}

(* A query compiled against its FROM tables: everything that reads
   their schemas but no rows. *)
type statement = {
  st_frames : cframe array;
  st_total : bool;
  st_steps : step array;
  st_columns : string list;
  st_items : (int array -> V.t) array;
}

let compile db q =
  if q.items = [] then sql_error "empty select list";
  if q.from = [] then sql_error "empty from list";
  let frames =
    Array.of_list
      (List.map
         (fun (table_name, alias) ->
           match Database.find_table db table_name with
           | None -> sql_error "no table named %s" table_name
           | Some t ->
               {
                 cf_alias = Option.value alias ~default:table_name;
                 cf_schema = Table.schema t;
                 cf_table = t;
               })
         q.from)
  in
  (let aliases = Array.fold_left (fun acc f -> f.cf_alias :: acc) [] frames in
   if List.length (List.sort_uniq String.compare aliases) <> List.length aliases
   then sql_error "duplicate table alias in FROM");
  let n = Array.length frames in
  let total = pred_total frames q.where in
  let local = Array.make n True
  and key = Array.make n None
  and check = Array.make n True in
  let add p = function True -> p | c -> And (c, p) in
  List.iter
    (fun p ->
      let i, alone =
        if total && n > 1 then
          let fs = pred_frames frames [] p in
          let i = List.fold_left Int.max 0 fs in
          (i, List.for_all (Int.equal i) fs)
        else (n - 1, n = 1)
      in
      if alone then local.(i) <- add p local.(i)
      else
        match join_key frames i p with
        | Some k when Option.is_none key.(i) -> key.(i) <- Some k
        | _ -> check.(i) <- add p check.(i))
    (if total then conjuncts q.where else [ q.where ]);
  let items =
    expand_items
      (Array.fold_right (fun f acc -> (f.cf_alias, f.cf_schema) :: acc) frames [])
      q.items
  in
  {
    st_frames = frames;
    st_total = total;
    st_steps =
      Array.init n (fun i ->
          {
            local = local.(i);
            key = key.(i);
            check = compile_pred frames check.(i);
          });
    st_columns = output_columns items;
    st_items =
      Array.of_list
        (List.map
           (function
             | Item (s, _) -> compile_scalar frames s | Star -> assert false)
           items);
  }

(* Each FROM name still finds the table the statement was compiled
   against. A table's schema never changes, so nothing else can make a
   statement stale. *)
let current db q st =
  let rec go i = function
    | [] -> true
    | (name, _) :: rest -> (
        match Database.find_table db name with
        | Some t ->
            t == st.st_frames.(i).cf_table && go (i + 1) rest
        | None -> false)
  in
  go 0 q.from

(* A prepared query: its statement is replaced whole (an atomic publish,
   so concurrent callers each see a complete one) when a FROM name finds
   another table than it was compiled against. *)
type prepared = { p_db : Database.t; p_query : query; p_stmt : statement Atomic.t }

let prepare db q = { p_db = db; p_query = q; p_stmt = Atomic.make (compile db q) }

let statement p =
  let st = Atomic.get p.p_stmt in
  if current p.p_db p.p_query st then st
  else
    let st = compile p.p_db p.p_query in
    Atomic.set p.p_stmt st;
    st

(* The index each frame is served by on this call. Declaring or
   dropping an index does not change the table, so the choice is never
   kept in the statement. *)
let index_choice st i =
  if st.st_total then pick_index [| st.st_frames.(i) |] st.st_steps.(i).local
  else None

(* The data path: everything that reads rows, on every call. *)
let run_statement q st =
  let frames = st.st_frames in
  (* per frame: its rows passing its own conjuncts (ascending), the probe
     reaching them from an earlier frame's row, and its checks *)
  let levels =
    Array.mapi
      (fun i s ->
        let f = frames.(i) in
        let rows =
          match index_choice st i with
          | Some (_, rows, rest) -> eval_pred_vec [| f |] rows (conjoin rest)
          | None -> eval_pred_full [| f |] (Table.cardinality f.cf_table) s.local
        in
        let probe =
          Option.map
            (fun (j, cj, ci) ->
              ( j,
                hash_probe (Table.column_at f.cf_table ci) rows
                  (Table.column_at frames.(j).cf_table cj) ))
            s.key
        in
        (rows, probe, s.check))
      st.st_steps
  in
  let n = Array.length frames in
  let rowbuf = Array.make n 0 in
  (* First the tuples passing every check, in the row engine's order, as
     [n] row ids each in [ids] (sized for one frame's rows, doubled for
     joins that outgrow it). *)
  let first_rows, _, _ = levels.(0) in
  let ids = ref (Array.make (n * max 1 (Array.length first_rows)) 0) in
  let count = ref 0 in
  let rec bind i =
    if i = n then (
      if (!count + 1) * n > Array.length !ids then
        ids := Array.append !ids !ids;
      for j = 0 to n - 1 do
        !ids.((!count * n) + j) <- rowbuf.(j)
      done;
      incr count)
    else
      let rows, probe, check = levels.(i) in
      let visit r =
        rowbuf.(i) <- r;
        if check rowbuf then bind (i + 1)
      in
      match probe with
      | None -> Array.iter visit rows
      | Some (j, matches) -> List.iter visit (matches rowbuf.(j))
  in
  bind 0;
  (* then their items, last tuple first, so the list comes out in order *)
  let out = ref [] in
  for t = !count - 1 downto 0 do
    for j = 0 to n - 1 do
      rowbuf.(j) <- !ids.((t * n) + j)
    done;
    out := Array.map (fun f -> f rowbuf) st.st_items :: !out
  done;
  finalize q st.st_columns !out

let execute p = run_statement p.p_query (statement p)

(* [execute (prepare db q)], without keeping the compilation *)
let run db q = run_statement q (compile db q)

let explain_engine db q =
  let st = compile db q in
  match st.st_frames with
  | [| _ |] -> (
      match index_choice st 0 with
      | Some (c, _, _) -> `Columnar_indexed c
      | None -> `Columnar)
  | _ -> `Columnar_join

let run_string db sql = run db (parse sql)
