module Expr = Disco_algebra.Expr
module Source = Disco_source.Source
module Sql = Disco_relation.Sql
module Database = Disco_relation.Database
module Table = Disco_relation.Table
module Schema = Disco_relation.Schema
module V = Disco_value.Value

type error = Refused of string | Native_error of string

let error_message = function
  | Refused m -> "refused: " ^ m
  | Native_error m -> "source error: " ^ m

type t = {
  name : string;
  grammar : Grammar.t;
  execute : Source.t -> Expr.expr -> (V.t * int, error) result;
  execute_batch :
    (Source.t -> Expr.expr list -> (V.t * int, error) result list) option;
  prepare : Expr.expr -> Source.t -> (V.t * int, error) result;
}

let name t = t.name
let functionality t = t.grammar
let accepts t e = Grammar.accepts t.grammar e
let execute t source e = t.execute source e

let execute_batch t source es =
  match t.execute_batch with
  | Some f -> f source es
  | None -> List.map (t.execute source) es

let prepare t e = t.prepare e

let execute_prepared t source calls =
  match t.execute_batch with
  | Some f -> f source (List.map fst calls)
  | None -> List.map (fun (_, call) -> call source) calls

let make ?execute_batch ?prepare ~name ~grammar ~execute () =
  let prepare =
    match prepare with
    | Some prepare -> prepare
    | None -> fun e source -> execute source e
  in
  { name; grammar; execute; execute_batch; prepare }

let refuse fmt = Format.kasprintf (fun m -> Error (Refused m)) fmt

let with_result v = Ok (v, V.cardinal v)

let relational_db source =
  match Source.kind source with
  | Source.Relational db -> Ok db
  | Source.Key_value _ | Source.Flat_file _ | Source.Text _ ->
      Error (Native_error (Source.id source ^ " is not relational"))

let table_bag db table_name =
  match Database.find_table db table_name with
  | Some table -> Ok (Table.to_bag table)
  | None -> Error (Native_error ("no collection named " ^ table_name))

(* -- SQL wrapper: full relational pushdown -- *)

(* The SQL path of one expression, compiled against one database: the
   generated query, prepared, and its rebuilder. [tables] are the tables
   whose schemas the generator read; a name that finds another table
   now compiles the expression again. *)
type statement = {
  db : Database.t;
  tables : (string * Table.t) list;
  sql : Sql.prepared;
  rebuild : Sql.result -> V.t;
}

let compile_statement db e =
  let tables = ref [] in
  let schema_of name =
    Option.map
      (fun t ->
        tables := (name, t) :: !tables;
        Schema.column_names (Table.schema t))
      (Database.find_table db name)
  in
  match Sqlgen.compile ~schema_of e with
  | exception Sqlgen.Unsupported m -> Error (Refused m)
  | exception Invalid_argument m -> Error (Native_error m)
  | { Sqlgen.sql; rebuild } -> (
      match Sql.prepare db sql with
      | exception Sql.Sql_error m -> Error (Native_error m)
      | sql -> Ok { db; tables = !tables; sql; rebuild })

let compiled_for db st =
  st.db == db
  && List.for_all
       (fun (name, t) ->
         match Database.find_table db name with
         | Some t' -> t' == t
         | None -> false)
       st.tables

(* Staged: the statement is compiled on every call until the second,
   which publishes it, as an immutable snapshot behind an atomic, for as
   long as the source's database and the tables it read stay the same;
   a failover to a replica or a replaced source compiles it again. So a
   cached plan whose text never repeats holds no statement. Concurrent
   callers each read a whole snapshot; when two compile at once, the
   later publish wins. *)
let sql_prepare e =
  match e with
  | Expr.Get table ->
      (* whole-extent scans skip SQL generation and read the column
         store directly — the same bag of structs the generated
         [SELECT *] rebuilds *)
      fun source ->
        Result.bind (relational_db source) (fun db ->
            Result.bind (table_bag db table) with_result)
  | _ -> (
      let compiled = Atomic.make None and called = Atomic.make false in
      fun source ->
        match relational_db source with
        | Error _ as err -> err
        | Ok db -> (
            let statement =
              match Atomic.get compiled with
              | Some st when compiled_for db st -> Ok st
              | Some _ | None ->
                  Result.map
                    (fun st ->
                      if Atomic.exchange called true then
                        Atomic.set compiled (Some st);
                      st)
                    (compile_statement db e)
            in
            match statement with
            | Error _ as err -> err
            | Ok st -> (
                match Sql.execute st.sql with
                | exception Sql.Sql_error m -> Error (Native_error m)
                | result -> with_result (st.rebuild result))))

(* -- relational wrappers: the grammar is the capability -- *)

(* A relational wrapper is its grammar: an accepted expression runs on
   the staged SQL path, and any other is refused (a source that is not
   relational fails first, whatever the shape). *)
let relational ~name grammar =
  let prepare e =
    if Grammar.accepts grammar e then sql_prepare e
    else fun source ->
      Result.bind (relational_db source) (fun _ ->
          refuse "%s cannot evaluate %s" name (Expr.to_string e))
  in
  make ~prepare ~name ~grammar ~execute:(fun source e -> prepare e source) ()

let sql_wrapper () = relational ~name:"WrapperSql" Grammar.full_relational
let scan_wrapper () = relational ~name:"WrapperScan" Grammar.get_only

(* Grammars are values with their own [accepts] memo: built once here,
   every wrapper of a kind shares one grammar and so one set of
   verdicts. *)
let select_grammar = Grammar.select_pushdown ()

let select_wrapper ?comparisons () =
  relational ~name:"WrapperSelect"
    (match comparisons with
    | None -> select_grammar
    | Some comparisons -> Grammar.select_pushdown ~comparisons ())

let project_wrapper () =
  relational ~name:"WrapperProject" Grammar.project_no_compose

let indexed_wrapper ?(eq = []) ?(range = []) () =
  relational ~name:"WrapperIndexed" (Grammar.indexed_lookup ~eq ~range ())

(* -- key-value wrapper -- *)

let kv_bag source =
  V.bag (List.map snd (Source.kv_scan source))

let kv_execute source e =
  match Source.kind source with
  | Source.Relational _ | Source.Flat_file _ | Source.Text _ ->
      Error (Native_error (Source.id source ^ " is not a key-value store"))
  | Source.Key_value _ -> (
      match e with
      | Expr.Get _ -> with_result (kv_bag source)
      | Expr.Select
          (Expr.Get _, Expr.Cmp (Expr.Eq, Expr.Attr [ "key" ], Expr.Const (V.String k)))
      | Expr.Select
          (Expr.Get _, Expr.Cmp (Expr.Eq, Expr.Const (V.String k), Expr.Attr [ "key" ]))
        -> (
          (* exact-match lookup served by the store's index *)
          match Source.kv_get source k with
          | Some v -> with_result (V.bag [ v ])
          | None -> with_result (V.bag []))
      | Expr.Select (Expr.Get _, _) ->
          refuse "key-value store supports only equality on 'key'"
      | e -> refuse "key-value store cannot evaluate %s" (Expr.to_string e))

let kv_wrapper () =
  make ~name:"WrapperKV" ~grammar:Grammar.key_lookup ~execute:kv_execute ()

(* -- flat-file wrapper -- *)

let file_execute source e =
  match Source.kind source with
  | Source.Relational _ | Source.Key_value _ | Source.Text _ ->
      Error (Native_error (Source.id source ^ " is not a flat file"))
  | Source.Flat_file _ -> (
      match e with
      | Expr.Get _ -> with_result (V.bag (Source.file_records source))
      | e -> refuse "flat file supports scans only, not %s" (Expr.to_string e))

let file_wrapper () =
  make ~name:"WrapperFile" ~grammar:Grammar.get_only ~execute:file_execute ()

(* -- WAIS-style text wrapper -- *)

(* A pattern of the form %word% (one keyword) is served by the inverted
   index; anything more general is refused — the WAIS query model. *)
let single_keyword pattern =
  let n = String.length pattern in
  if n >= 2 && pattern.[0] = '%' && pattern.[n - 1] = '%' then
    let inner = String.sub pattern 1 (n - 2) in
    if
      inner <> ""
      && String.for_all
           (fun c ->
             (c >= 'a' && c <= 'z')
             || (c >= 'A' && c <= 'Z')
             || (c >= '0' && c <= '9'))
           inner
    then Some inner
    else None
  else None

let text_execute source e =
  match Source.kind source with
  | Source.Relational _ | Source.Key_value _ | Source.Flat_file _ ->
      Error (Native_error (Source.id source ^ " is not a text server"))
  | Source.Text idx -> (
      let module Text_index = Disco_source.Text_index in
      let docs_value docs =
        V.bag (List.map Text_index.doc_to_struct docs)
      in
      match e with
      | Expr.Get _ -> with_result (docs_value (Text_index.all idx))
      | Expr.Select
          (Expr.Get _, Expr.Cmp (Expr.Like, Expr.Attr [ field ], Expr.Const (V.String pattern)))
        -> (
          match (field, single_keyword pattern) with
          | "body", Some keyword ->
              with_result (docs_value (Text_index.search idx keyword))
          | "title", Some keyword ->
              with_result (docs_value (Text_index.search_title idx keyword))
          | _, Some _ -> refuse "text server indexes only title and body"
          | _, None ->
              refuse
                "text server answers single-keyword patterns (%%word%%), not %s"
                pattern)
      | e -> refuse "text server cannot evaluate %s" (Expr.to_string e))

let text_grammar =
  Grammar.parse
    {|
    a :- b
    a :- select OPEN ATTRIBUTE like CONST COMMA b CLOSE
    b :- get OPEN SOURCE CLOSE
  |}

let text_wrapper () =
  make ~name:"WrapperText" ~grammar:text_grammar ~execute:text_execute ()

let of_constructor_args ctor args =
  let list_arg name =
    match List.assoc_opt name args with
    | Some (V.String s) ->
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
    | _ -> []
  in
  match String.lowercase_ascii ctor with
  | "wrapperpostgres" | "wrappersql" -> Some (sql_wrapper ())
  | "wrapperselect" -> Some (select_wrapper ())
  | "wrapperproject" -> Some (project_wrapper ())
  | "wrapperscan" -> Some (scan_wrapper ())
  | "wrapperkv" -> Some (kv_wrapper ())
  | "wrapperfile" -> Some (file_wrapper ())
  | "wrapperwais" | "wrappertext" -> Some (text_wrapper ())
  | "wrapperindexed" ->
      Some (indexed_wrapper ~eq:(list_arg "eq") ~range:(list_arg "range") ())
  | _ -> None
