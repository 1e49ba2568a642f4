(* Tests for the relational substrate: schemas, tables, the SQL dialect
   (lexing, parsing, printing, execution). *)

module V = Disco_value.Value
module Schema = Disco_relation.Schema
module Table = Disco_relation.Table
module Database = Disco_relation.Database
module Sql = Disco_relation.Sql
module Lexer = Disco_lex.Lexer

let check_value = Alcotest.testable V.pp V.equal

let person_schema =
  Schema.make
    [ ("id", Schema.TInt); ("name", Schema.TString); ("salary", Schema.TInt) ]

let sample_db () =
  let db = Database.create ~name:"db" in
  let t = Database.create_table db ~name:"person" person_schema in
  Table.insert t [| V.Int 1; V.String "Mary"; V.Int 200 |];
  Table.insert t [| V.Int 2; V.String "Sam"; V.Int 50 |];
  Table.insert t [| V.Int 3; V.String "Ana"; V.Int 5 |];
  db

(* -- lexer -- *)

let test_lexer_basic () =
  let toks =
    Lexer.tokenize ~puncts:[ "<="; "<"; "("; ")"; "." ]
      "select x.name (42) 3.5 'it''?' <= -- comment\n done"
  in
  let kinds = List.map fst toks in
  Alcotest.(check int) "token count" 12 (List.length kinds);
  (match kinds with
  | Lexer.Ident "select"
    :: Lexer.Ident "x"
    :: Lexer.Punct "."
    :: Lexer.Ident "name" :: _ ->
      ()
  | _ -> Alcotest.fail "unexpected token sequence");
  match List.rev kinds with
  | Lexer.Ident "done" :: Lexer.Punct "<=" :: Lexer.Str "?" :: Lexer.Str "it" :: _ -> ()
  | _ -> Alcotest.fail "unexpected tail"

let test_lexer_errors () =
  let tk s = ignore (Lexer.tokenize ~puncts:[ "(" ] s) in
  Alcotest.check_raises "bad char" (Lexer.Error ("unexpected character '@'", 0))
    (fun () -> tk "@");
  Alcotest.check_raises "unterminated string"
    (Lexer.Error ("unterminated string literal", 0)) (fun () -> tk "\"abc")

(* -- schema / table -- *)

let test_schema_dup () =
  Alcotest.check_raises "dup column" (Schema.Schema_error "duplicate column a")
    (fun () -> ignore (Schema.make [ ("a", Schema.TInt); ("a", Schema.TInt) ]))

let test_row_conformance () =
  let t = Table.create ~name:"t" person_schema in
  Alcotest.check_raises "arity"
    (Schema.Schema_error "row arity 1 does not match schema arity 3")
    (fun () -> Table.insert t [| V.Int 1 |]);
  (try
     Table.insert t [| V.String "x"; V.String "y"; V.Int 1 |];
     Alcotest.fail "type error expected"
   with Schema.Schema_error _ -> ());
  Table.insert t [| V.Null; V.String "ok"; V.Null |];
  Alcotest.(check int) "null conforms" 1 (Table.cardinality t)

let test_struct_roundtrip () =
  let row = [| V.Int 1; V.String "Mary"; V.Int 200 |] in
  let s = Schema.row_to_struct person_schema row in
  Alcotest.check check_value "roundtrip"
    (V.strct [ ("id", V.Int 1); ("name", V.String "Mary"); ("salary", V.Int 200) ])
    s;
  let row' = Schema.struct_to_row person_schema s in
  Alcotest.(check bool) "row equal" true (row = row')

let test_delete_version () =
  let db = sample_db () in
  let t = Database.get_table db "person" in
  let v0 = Table.version t in
  let removed =
    Table.delete_where t (fun row -> V.equal row.(2) (V.Int 50))
  in
  Alcotest.(check int) "one removed" 1 removed;
  Alcotest.(check int) "two left" 2 (Table.cardinality t);
  Alcotest.(check bool) "version bumped" true (Table.version t > v0)

(* -- SQL parse / print -- *)

let test_sql_roundtrip () =
  let inputs =
    [
      "SELECT name FROM person";
      "SELECT DISTINCT name, salary FROM person WHERE salary > 10";
      "SELECT p.name FROM person p, person q WHERE p.id = q.id AND q.salary <= 100";
      "SELECT * FROM person ORDER BY name DESC LIMIT 2";
      "SELECT (salary + 1) * 2 AS s2 FROM person WHERE NOT (salary = 5 OR salary = 6)";
      "SELECT name FROM person WHERE salary + 2 * id > 50";
    ]
  in
  List.iter
    (fun sql ->
      let q = Sql.parse sql in
      let printed = Sql.to_string q in
      let q2 = Sql.parse printed in
      Alcotest.(check string)
        (Fmt.str "stable print of %s" sql)
        printed (Sql.to_string q2))
    inputs

let test_sql_parse_error () =
  (try
     ignore (Sql.parse "SELECT FROM person");
     Alcotest.fail "expected parse error"
   with Lexer.Error _ -> ());
  try
    ignore (Sql.parse "SELECT a FROM person WHERE");
    Alcotest.fail "expected parse error"
  with Lexer.Error _ -> ()

(* -- SQL execution -- *)

let names result =
  List.map (fun row -> row.(0)) result.Sql.rows

let test_sql_select () =
  let db = sample_db () in
  let r = Sql.run_string db "SELECT name FROM person WHERE salary > 10" in
  Alcotest.(check (list string))
    "columns" [ "name" ] r.Sql.columns;
  Alcotest.check check_value "rows"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    (V.bag (names r))

let test_sql_star_order_limit () =
  let db = sample_db () in
  let r = Sql.run_string db "SELECT * FROM person ORDER BY salary DESC LIMIT 2" in
  Alcotest.(check (list string)) "columns" [ "id"; "name"; "salary" ] r.Sql.columns;
  Alcotest.(check int) "limit" 2 (List.length r.Sql.rows);
  match r.Sql.rows with
  | [ a; b ] ->
      Alcotest.check check_value "first" (V.Int 200) a.(2);
      Alcotest.check check_value "second" (V.Int 50) b.(2)
  | _ -> Alcotest.fail "expected two rows"

let test_sql_join () =
  let db = sample_db () in
  let r =
    Sql.run_string db
      "SELECT p.name, q.name FROM person p, person q WHERE p.salary < q.salary"
  in
  Alcotest.(check int) "pairs" 3 (List.length r.Sql.rows)

let test_sql_arith () =
  let db = sample_db () in
  let r = Sql.run_string db "SELECT salary * 2 + 1 AS d FROM person WHERE id = 1" in
  Alcotest.check check_value "arith" (V.Int 401) (List.hd r.Sql.rows).(0)

let test_sql_distinct () =
  let db = sample_db () in
  let r = Sql.run_string db "SELECT DISTINCT 1 AS one FROM person" in
  Alcotest.(check int) "distinct" 1 (List.length r.Sql.rows)

let test_sql_errors () =
  let db = sample_db () in
  let expect_err sql =
    try
      ignore (Sql.run_string db sql);
      Alcotest.fail ("expected Sql_error for " ^ sql)
    with Sql.Sql_error _ -> ()
  in
  expect_err "SELECT x FROM person";
  expect_err "SELECT name FROM nosuch";
  expect_err "SELECT name FROM person WHERE name > 3";
  expect_err "SELECT p.name FROM person p, person p";
  expect_err "SELECT salary / 0 FROM person"

let test_sql_null_semantics () =
  let db = Database.create ~name:"db" in
  let t = Database.create_table db ~name:"t" person_schema in
  Table.insert t [| V.Int 1; V.Null; V.Null |];
  Table.insert t [| V.Int 2; V.String "Bo"; V.Int 7 |];
  let r = Sql.run_string db "SELECT id FROM t WHERE salary > 0" in
  (* NULL is below every value in the collapsed 3VL, so only row 2 passes. *)
  Alcotest.check check_value "null filtered" (V.bag [ V.Int 2 ]) (V.bag (names r));
  let r2 = Sql.run_string db "SELECT id FROM t WHERE name = NULL" in
  Alcotest.check check_value "null = null" (V.bag [ V.Int 1 ]) (V.bag (names r2))

let test_result_to_bag () =
  let db = sample_db () in
  let r = Sql.run_string db "SELECT name FROM person WHERE id = 2" in
  Alcotest.check check_value "bag of structs"
    (V.bag [ V.strct [ ("name", V.String "Sam") ] ])
    (Sql.result_to_bag r)

(* -- literal printing round-trips (LIKE patterns, negative numbers) -- *)

let roundtrip_query q =
  let printed = Sql.to_string q in
  let q2 = Sql.parse printed in
  Alcotest.(check string) (Fmt.str "stable print of %s" printed) printed
    (Sql.to_string q2)

let test_pp_lit_roundtrip () =
  (* patterns with %/_ and embedded quotes/backslashes survive
     print -> parse -> print *)
  List.iter
    (fun s ->
      roundtrip_query
        (Sql.select
           ~where:(Sql.Cmp (Sql.Like, Sql.Col (None, "name"), Sql.Lit (V.String s)))
           [ Sql.Item (Sql.Col (None, "name"), None) ]
           [ ("person", None) ]))
    [ "M%"; "%_y"; "100%"; "it's"; "a\\b"; "'"; "\\"; "%'%" ];
  let quoted = Sql.select
      [ Sql.Item (Sql.Lit (V.String "O'Hara_%"), Some "s") ]
      [ ("person", None) ]
  in
  let reparsed = Sql.parse (Sql.to_string quoted) in
  (match reparsed.Sql.items with
  | [ Sql.Item (Sql.Lit (V.String s), _) ] ->
      Alcotest.(check string) "literal preserved" "O'Hara_%" s
  | _ -> Alcotest.fail "expected one string literal item");
  (* executed LIKE over printed SQL matches the expected rows *)
  let db = Database.create ~name:"db" in
  let t = Database.create_table db ~name:"person" person_schema in
  Table.insert t [| V.Int 1; V.String "O'Hara"; V.Int 1 |];
  Table.insert t [| V.Int 2; V.String "100% done"; V.Int 2 |];
  let like pat =
    Sql.select
      ~where:(Sql.Cmp (Sql.Like, Sql.Col (None, "name"), Sql.Lit (V.String pat)))
      [ Sql.Item (Sql.Col (None, "id"), None) ]
      [ ("person", None) ]
  in
  let ids pat = V.bag (names (Sql.run db (Sql.parse (Sql.to_string (like pat))))) in
  Alcotest.check check_value "quote pattern" (V.bag [ V.Int 1 ]) (ids "O'%");
  Alcotest.check check_value "percent via underscore"
    (V.bag [ V.Int 2 ]) (ids "100_ done")

let test_negative_literals () =
  (* -N parses as a negative literal, and printing it round-trips
     (the old parser only knew [0 - N], whose print re-parsed fine but
     [Lit (Int (-5))] printed as [-5] failed to parse) *)
  let q = Sql.parse "SELECT id FROM person WHERE salary > -5" in
  (match q.Sql.where with
  | Sql.Cmp (Sql.Gt, _, Sql.Lit (V.Int -5)) -> ()
  | _ -> Alcotest.fail "expected a negative int literal");
  roundtrip_query q;
  let qf = Sql.parse "SELECT -3.5 AS x FROM person" in
  (match qf.Sql.items with
  | [ Sql.Item (Sql.Lit (V.Float f), _) ] ->
      Alcotest.(check (float 0.0)) "negative float" (-3.5) f
  | _ -> Alcotest.fail "expected a negative float literal");
  roundtrip_query qf;
  (* subtraction and negation-of-column still mean what they meant *)
  let db = sample_db () in
  let r = Sql.run_string db "SELECT id - -3 FROM person WHERE id = 1" in
  Alcotest.check check_value "id - -3" (V.Int 4) (List.hd r.Sql.rows).(0);
  let r2 = Sql.run_string db "SELECT -salary FROM person WHERE id = 3" in
  Alcotest.check check_value "negated column" (V.Int (-5))
    (List.hd r2.Sql.rows).(0)

(* -- ORDER BY on NULLs, DISTINCT over whole rows, division by zero -- *)

let null_db () =
  let db = Database.create ~name:"db" in
  let t = Database.create_table db ~name:"t" person_schema in
  Table.insert t [| V.Int 1; V.String "a"; V.Int 20 |];
  Table.insert t [| V.Int 2; V.String "b"; V.Null |];
  Table.insert t [| V.Int 3; V.String "c"; V.Int 10 |];
  db

let test_order_by_nulls () =
  let db = null_db () in
  let ids sql = List.map (fun row -> row.(0)) (Sql.run_string db sql).Sql.rows in
  (* numeric_compare: NULL sorts below every value. ORDER BY requires the
     sort column to be selected, so project it alongside the id. *)
  Alcotest.(check bool) "asc: NULL first" true
    (ids "SELECT id, salary FROM t ORDER BY salary" = [ V.Int 2; V.Int 3; V.Int 1 ]);
  Alcotest.(check bool) "desc: NULL last" true
    (ids "SELECT id, salary FROM t ORDER BY salary DESC" = [ V.Int 1; V.Int 3; V.Int 2 ])

let test_distinct_rows () =
  let db = Database.create ~name:"db" in
  let t = Database.create_table db ~name:"t" person_schema in
  Table.insert_all t
    [
      [| V.Int 1; V.String "a"; V.Int 5 |];
      [| V.Int 1; V.String "a"; V.Int 5 |];
      [| V.Int 1; V.String "a"; V.Null |];
      [| V.Int 1; V.String "a"; V.Null |];
      [| V.Int 2; V.String "a"; V.Int 5 |];
    ];
  (* whole result rows (including NULL-bearing duplicates) deduplicate *)
  let r = Sql.run_string db "SELECT DISTINCT id, name, salary FROM t" in
  Alcotest.(check int) "3 distinct rows" 3 (List.length r.Sql.rows);
  let r2 = Sql.run_string db "SELECT DISTINCT name FROM t" in
  Alcotest.(check int) "1 distinct name" 1 (List.length r2.Sql.rows)

let test_div_mod_zero () =
  let db = sample_db () in
  let expect_both sql =
    let raises f =
      match f () with
      | (_ : Sql.result) -> false
      | exception Sql.Sql_error _ -> true
    in
    let q = Sql.parse sql in
    Alcotest.(check bool) (sql ^ " raises on run") true
      (raises (fun () -> Sql.run db q));
    Alcotest.(check bool) (sql ^ " raises on run_rows") true
      (raises (fun () -> Sql.run_rows db q))
  in
  expect_both "SELECT salary / 0 FROM person";
  expect_both "SELECT salary % 0 FROM person";
  expect_both "SELECT id FROM person WHERE salary / 0 > 1";
  (* no rows evaluate the raising item: both engines return cleanly *)
  let empty = Database.create ~name:"empty" in
  ignore (Database.create_table empty ~name:"person" person_schema);
  let q = Sql.parse "SELECT salary / 0 FROM person" in
  Alcotest.(check int) "empty run" 0 (List.length (Sql.run empty q).Sql.rows);
  Alcotest.(check int) "empty run_rows" 0
    (List.length (Sql.run_rows empty q).Sql.rows)

(* -- batch insert: one version bump per batch -- *)

let test_insert_all_version () =
  let t = Table.create ~name:"t" person_schema in
  let v0 = Table.version t in
  Table.insert_all t
    [
      [| V.Int 1; V.String "a"; V.Int 1 |];
      [| V.Int 2; V.String "b"; V.Int 2 |];
      [| V.Int 3; V.String "c"; V.Int 3 |];
    ];
  Alcotest.(check int) "one bump for the batch" (v0 + 1) (Table.version t);
  Alcotest.(check int) "three rows" 3 (Table.cardinality t);
  Table.insert_all t [];
  Alcotest.(check int) "empty batch: no bump" (v0 + 1) (Table.version t)

(* A batch with a bad row part-way through appends nothing. *)
let test_insert_all_atomic () =
  let t = Table.create ~name:"t" person_schema in
  Table.insert_all t [ [| V.Int 1; V.String "a"; V.Int 1 |] ];
  let v0 = Table.version t in
  (try
     Table.insert_all t
       [
         [| V.Int 2; V.String "b"; V.Int 2 |];
         [| V.String "bad"; V.String "c"; V.Int 3 |];
         [| V.Int 4; V.String "d"; V.Int 4 |];
       ];
     Alcotest.fail "expected Schema_error for a non-conforming row"
   with Schema.Schema_error _ -> ());
  Alcotest.(check int) "cardinality unchanged" 1 (Table.cardinality t);
  Alcotest.(check int) "version unchanged" v0 (Table.version t);
  Alcotest.(check int) "rows unchanged" 1 (List.length (Table.rows t))

(* -- columnar engine and secondary indexes -- *)

module Index = Disco_relation.Index

let big_db () =
  let db = Database.create ~name:"db" in
  let t = Database.create_table db ~name:"person" person_schema in
  Table.insert_all t
    (List.init 100 (fun i ->
         [|
           V.Int i;
           V.String (Fmt.str "n%d" (i mod 7));
           (if i mod 11 = 0 then V.Null else V.Int (i * 3 mod 250));
         |]));
  (db, t)

let sorted_rows r = List.sort compare r.Sql.rows

let check_engines_agree db sql =
  let q = Sql.parse sql in
  let a = Sql.run db q and b = Sql.run_rows db q in
  Alcotest.(check (list string)) (sql ^ ": columns") b.Sql.columns a.Sql.columns;
  Alcotest.(check bool) (sql ^ ": same bag") true
    (sorted_rows a = sorted_rows b)

let engine_queries =
  [
    "SELECT * FROM person";
    "SELECT id, name FROM person WHERE salary > 100";
    "SELECT id FROM person WHERE salary > 50 AND salary <= 200";
    "SELECT id FROM person WHERE name = 'n3' OR salary < 30";
    "SELECT id FROM person WHERE NOT (name = 'n3')";
    "SELECT id FROM person WHERE name LIKE 'n%'";
    "SELECT id FROM person WHERE name LIKE '%3'";
    "SELECT id FROM person WHERE salary = NULL";
    "SELECT id FROM person WHERE salary < 30";
    "SELECT name, salary * 2 FROM person WHERE id >= 90";
    "SELECT DISTINCT name FROM person";
    "SELECT id, salary FROM person ORDER BY salary DESC LIMIT 7";
    "SELECT p.id, q.id FROM person p, person q WHERE p.id = q.salary";
    "SELECT p.id FROM person p, person q WHERE p.id = q.id AND q.salary > 200";
    "SELECT p.id FROM person p, person q WHERE p.name = q.name AND p.id < 3";
    "SELECT p.id, r.name FROM person p, person q, person r WHERE p.id = q.id \
     AND q.id = r.id AND p.salary > 100";
    "SELECT p.id, q.name FROM person p, person q, person r WHERE r.name = \
     p.name AND q.salary = r.salary AND p.id < 4 AND q.id < 30";
    "SELECT p.id, q.id, r.id FROM person p, person q, person r WHERE p.id < 3 \
     AND q.id < 4 AND r.id < 5";
    "SELECT * FROM person p, person q, person r WHERE p.id < q.id AND \
     q.id < r.id AND r.id < 6";
    "SELECT p.id, q.id FROM person p, person q WHERE p.id < 5 AND q.salary \
     / (p.id + 1) > 3";
    "SELECT p.id, q.id FROM person p, person q WHERE p.id < 5 AND q.id % 7 \
     = p.id LIMIT 9";
  ]

let test_engine_equivalence () =
  let db, _ = big_db () in
  List.iter (check_engines_agree db) engine_queries

let test_engine_dispatch () =
  let db, _ = big_db () in
  let engine sql = Sql.explain_engine db (Sql.parse sql) in
  Alcotest.(check bool) "single table is columnar" true
    (engine "SELECT id FROM person WHERE salary > 10" = `Columnar);
  Alcotest.(check bool) "equi-join is columnar" true
    (engine "SELECT p.id FROM person p, person q WHERE p.id = q.id"
    = `Columnar_join);
  Alcotest.(check bool) "theta join is columnar" true
    (engine "SELECT p.id FROM person p, person q WHERE p.id < q.id"
    = `Columnar_join);
  Alcotest.(check bool) "three-way cross join is columnar" true
    (engine "SELECT p.id FROM person p, person q, person r" = `Columnar_join);
  Alcotest.(check bool) "non-total join is columnar" true
    (engine "SELECT p.id FROM person p, person q WHERE p.id / q.id = 1"
    = `Columnar_join)

let test_index_declare () =
  let _, t = big_db () in
  Table.declare_index t ~column:"id" Index.Hash;
  Table.declare_index t ~column:"salary" Index.Sorted;
  Alcotest.(check int) "two indexes" 2 (List.length (Table.indexes t));
  Alcotest.(check bool) "kind recorded" true
    (Table.index_kind t "salary" = Some Index.Sorted);
  Table.drop_index t "salary";
  Alcotest.(check int) "one left" 1 (List.length (Table.indexes t));
  (try
     Table.declare_index t ~column:"nosuch" Index.Hash;
     Alcotest.fail "expected Schema_error for a missing column"
   with Schema.Schema_error _ -> ());
  try
    Table.declare_index t ~column:"name" Index.Sorted;
    Alcotest.fail "expected Schema_error for sorted-on-string"
  with Schema.Schema_error _ -> ()

let test_index_serving () =
  let db, t = big_db () in
  Table.declare_index t ~column:"id" Index.Hash;
  Table.declare_index t ~column:"salary" Index.Sorted;
  Table.declare_index t ~column:"name" Index.Hash;
  let engine sql = Sql.explain_engine db (Sql.parse sql) in
  Alcotest.(check bool) "hash serves equality" true
    (engine "SELECT name FROM person WHERE id = 42" = `Columnar_indexed "id");
  Alcotest.(check bool) "hash serves flipped equality" true
    (engine "SELECT name FROM person WHERE 42 = id" = `Columnar_indexed "id");
  Alcotest.(check bool) "sorted serves ranges" true
    (engine "SELECT id FROM person WHERE salary < 30"
    = `Columnar_indexed "salary");
  Alcotest.(check bool) "sorted serves a two-bound range" true
    (engine "SELECT id FROM person WHERE salary >= 30 AND salary < 90"
    = `Columnar_indexed "salary");
  Alcotest.(check bool) "hash does not serve a range" true
    (engine "SELECT name FROM person WHERE id >= 5 AND id < 9" = `Columnar);
  Alcotest.(check bool) "string hash equality" true
    (engine "SELECT id FROM person WHERE name = 'n3'"
    = `Columnar_indexed "name");
  Alcotest.(check bool) "non-total predicate skips indexes" true
    (engine "SELECT id FROM person WHERE id = 1 AND salary / 1 > 0"
    = `Columnar);
  (* indexed and unindexed answers agree (NULL rows sort below every
     value, so salary < 30 includes them — same as the row engine) *)
  List.iter (check_engines_agree db)
    [
      "SELECT name FROM person WHERE id = 42";
      "SELECT id FROM person WHERE salary < 30";
      "SELECT id FROM person WHERE salary <= 30";
      "SELECT id FROM person WHERE salary > 200";
      "SELECT id FROM person WHERE salary >= 200";
      "SELECT id FROM person WHERE salary = NULL";
      "SELECT id FROM person WHERE name = 'n3'";
      "SELECT id FROM person WHERE name = 'absent'";
      "SELECT id FROM person WHERE id = 42 AND salary > 10";
      "SELECT id FROM person WHERE salary >= 30 AND salary < 90";
      "SELECT id FROM person WHERE salary > 30 AND person.salary <= 90 AND name = 'n3'";
      "SELECT id FROM person WHERE salary > 90 AND salary < 30";
      "SELECT id FROM person WHERE salary = 39 AND salary >= 30";
      "SELECT id FROM person WHERE salary < 90 AND salary <> 39";
      "SELECT id FROM person WHERE salary <= NULL AND salary < 5.5";
      "SELECT id FROM person WHERE 30 <= salary AND 90 > salary";
    ]

(* Indexes are kept across writes: each read after a delete or an append
   must see exactly the table's rows, whichever write came first. *)
let test_index_lazy_rebuild () =
  let check_writes ~column kind ~probe ~written ~row_of =
    let db, t = big_db () in
    Table.declare_index t ~column kind;
    let count () =
      let sql = "SELECT id FROM person WHERE " ^ probe in
      check_engines_agree db sql;
      List.length (Sql.run_string db sql).Sql.rows
    in
    let n0 = count () in
    let is_written row = V.equal row.(0) (V.Int written) in
    let delete () = ignore (Table.delete_where t is_written) in
    let before = List.length (List.filter is_written (Table.rows t)) in
    (* delete, then append *)
    delete ();
    let after_delete = count () in
    Alcotest.(check int) (probe ^ ": after delete") (n0 - before) after_delete;
    Table.insert_all t [ row_of 1; row_of 2 ];
    Alcotest.(check int) (probe ^ ": after append") (after_delete + 2) (count ());
    (* append, then delete *)
    Table.insert_all t [ row_of 3 ];
    delete ();
    Alcotest.(check int) (probe ^ ": append then delete") after_delete (count ());
    Table.insert t (row_of 4);
    Alcotest.(check int) (probe ^ ": append again") (after_delete + 1) (count ())
  in
  check_writes ~column:"id" Index.Hash ~probe:"id = 5" ~written:5
    ~row_of:(fun k -> [| V.Int 5; V.String (Fmt.str "w%d" k); V.Int 1 |]);
  check_writes ~column:"name" Index.Hash ~probe:"name = 'n5'" ~written:5
    ~row_of:(fun k -> [| V.Int 5; V.String "n5"; V.Int k |]);
  check_writes ~column:"salary" Index.Sorted
    ~probe:"salary >= 10 AND salary < 20" ~written:1000
    ~row_of:(fun k ->
      [| V.Int 1000; V.String "w"; (if k = 3 then V.Null else V.Int (10 + k)) |]);
  check_writes ~column:"salary" Index.Sorted ~probe:"salary <= NULL" ~written:1000
    ~row_of:(fun _ -> [| V.Int 1000; V.String "w"; V.Null |])

let () =
  Alcotest.run "disco_relation"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "schema",
        [
          Alcotest.test_case "duplicate columns" `Quick test_schema_dup;
          Alcotest.test_case "row conformance" `Quick test_row_conformance;
          Alcotest.test_case "struct roundtrip" `Quick test_struct_roundtrip;
          Alcotest.test_case "delete and version" `Quick test_delete_version;
        ] );
      ( "sql",
        [
          Alcotest.test_case "parse/print roundtrip" `Quick test_sql_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_sql_parse_error;
          Alcotest.test_case "select-where" `Quick test_sql_select;
          Alcotest.test_case "star/order/limit" `Quick test_sql_star_order_limit;
          Alcotest.test_case "join" `Quick test_sql_join;
          Alcotest.test_case "arithmetic" `Quick test_sql_arith;
          Alcotest.test_case "distinct" `Quick test_sql_distinct;
          Alcotest.test_case "errors" `Quick test_sql_errors;
          Alcotest.test_case "null semantics" `Quick test_sql_null_semantics;
          Alcotest.test_case "result to bag" `Quick test_result_to_bag;
          Alcotest.test_case "pp_lit roundtrip" `Quick test_pp_lit_roundtrip;
          Alcotest.test_case "negative literals" `Quick test_negative_literals;
          Alcotest.test_case "order by nulls" `Quick test_order_by_nulls;
          Alcotest.test_case "distinct rows" `Quick test_distinct_rows;
          Alcotest.test_case "div/mod by zero" `Quick test_div_mod_zero;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert_all version" `Quick test_insert_all_version;
          Alcotest.test_case "insert_all atomic" `Quick test_insert_all_atomic;
        ] );
      ( "columnar",
        [
          Alcotest.test_case "engine equivalence" `Quick test_engine_equivalence;
          Alcotest.test_case "engine dispatch" `Quick test_engine_dispatch;
          Alcotest.test_case "index declare" `Quick test_index_declare;
          Alcotest.test_case "index serving" `Quick test_index_serving;
          Alcotest.test_case "index lazy rebuild" `Quick test_index_lazy_rebuild;
        ] );
    ]
