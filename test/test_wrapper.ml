(* Tests for the wrapper layer: capability grammars, name-space
   translation through type maps, SQL generation, and the built-in
   wrapper implementations. *)

module V = Disco_value.Value
module Schema = Disco_relation.Schema
module Database = Disco_relation.Database
module Table = Disco_relation.Table
module Sql = Disco_relation.Sql
module Source = Disco_source.Source
module Datagen = Disco_source.Datagen
module Typemap = Disco_odl.Typemap
module Expr = Disco_algebra.Expr
module Grammar = Disco_wrapper.Grammar
module Translate = Disco_wrapper.Translate
module Sqlgen = Disco_wrapper.Sqlgen
module Wrapper = Disco_wrapper.Wrapper

let check_value = Alcotest.testable V.pp V.equal

(* helpers *)
let get = Expr.Get "person0"
let bind v e = Expr.Map (e, Expr.Hstruct [ (v, Expr.Attr []) ])
let gt_pred = Expr.Cmp (Expr.Gt, Expr.Attr [ "salary" ], Expr.Const (V.Int 10))

let person_db ~n = Datagen.person_db ~seed:7 ~name:"person0" ~n

let relational_source ?schedule ~n () =
  Source.create ~id:"r0"
    ~address:(Source.address ~host:"rodin" ~db_name:"db" ~ip:"1.2.3.4" ())
    ?schedule
    (Source.Relational (person_db ~n))

let resolve_db db name =
  Option.map Table.to_bag (Database.find_table db name)

(* -- grammar -- *)

let test_grammar_paper_example () =
  (* The paper's literal no-composition grammar text. *)
  let g =
    Grammar.parse
      "a :- b\n\
       a :- c\n\
       b :- get OPEN SOURCE CLOSE\n\
       c :- project OPEN ATTRIBUTE COMMA b CLOSE"
  in
  Alcotest.(check bool) "get ok" true (Grammar.accepts g get);
  Alcotest.(check bool) "project(get) ok" true
    (Grammar.accepts g (Expr.Project (get, [ "name" ])));
  Alcotest.(check bool) "no composition" false
    (Grammar.accepts g (Expr.Project (Expr.Select (get, gt_pred), [ "name" ])));
  Alcotest.(check bool) "no select" false
    (Grammar.accepts g (Expr.Select (get, gt_pred)))

let test_grammar_capability_lattice () =
  (* Monotonicity: everything the weaker grammars accept, full_relational
     accepts. *)
  let candidates =
    [
      get;
      Expr.Select (get, gt_pred);
      Expr.Project (get, [ "name"; "salary" ]);
      Expr.Project (get, [ "name" ]);
      Expr.Select
        (get, Expr.Cmp (Expr.Eq, Expr.Attr [ "key" ], Expr.Const (V.String "k")));
      Expr.Join
        ( bind "x" get,
          bind "y" (Expr.Get "person1"),
          [ ([ "x"; "id" ], [ "y"; "id" ]) ] );
      Expr.Distinct (Expr.Map (get, Expr.Hscalar (Expr.Attr [ "name" ])));
    ]
  in
  let weak =
    [
      Grammar.get_only;
      Grammar.project_no_compose;
      Grammar.select_pushdown ();
      Grammar.key_lookup;
    ]
  in
  List.iter
    (fun e ->
      List.iter
        (fun g ->
          if Grammar.accepts g e then
            Alcotest.(check bool)
              (Fmt.str "full accepts %s" (Expr.to_string e))
              true
              (Grammar.accepts Grammar.full_relational e))
        weak)
    candidates

let test_grammar_comparison_restriction () =
  let eq_only = Grammar.select_pushdown ~comparisons:[ "=" ] () in
  let eq_sel =
    Expr.Select (get, Expr.Cmp (Expr.Eq, Expr.Attr [ "id" ], Expr.Const (V.Int 1)))
  in
  Alcotest.(check bool) "equality accepted" true (Grammar.accepts eq_only eq_sel);
  Alcotest.(check bool) "range refused" false (Grammar.accepts eq_only (Expr.Select (get, gt_pred)))

let test_grammar_submit_never_nested () =
  Alcotest.(check bool) "nested submit unparseable" false
    (Grammar.accepts Grammar.full_relational
       (Expr.Select (Expr.Submit ("r1", get), gt_pred)))

(* -- translation -- *)

let prime_map =
  Typemap.make
    ~collection:("person0", "personprime0")
    [ ("name", "n"); ("salary", "s") ]

let map_of name = if name = "personprime0" then prime_map else Typemap.identity

let test_translate_to_source () =
  (* Mediator query over personprime0 with mapped names -> source query
     over person0 with source names (paper Section 2.2.2). *)
  let e =
    Expr.Select
      ( Expr.Get "personprime0",
        Expr.Cmp (Expr.Gt, Expr.Attr [ "s" ], Expr.Const (V.Int 10)) )
  in
  match Translate.to_source ~map_of e with
  | Expr.Select
      (Expr.Get "person0", Expr.Cmp (Expr.Gt, Expr.Attr [ "salary" ], _)) ->
      ()
  | e' -> Alcotest.fail ("bad translation: " ^ Expr.to_string e')

let test_translate_binding_paths () =
  let e =
    Expr.Select
      ( bind "x" (Expr.Get "personprime0"),
        Expr.Cmp (Expr.Gt, Expr.Attr [ "x"; "s" ], Expr.Const (V.Int 10)) )
  in
  match Translate.to_source ~map_of e with
  | Expr.Select (_, Expr.Cmp (Expr.Gt, Expr.Attr [ "x"; "salary" ], _)) -> ()
  | e' -> Alcotest.fail ("bad binding translation: " ^ Expr.to_string e')

let test_answer_renamer () =
  let e = Expr.Get "personprime0" in
  let rename = Translate.answer_renamer ~map_of e in
  let src_answer =
    V.bag [ V.strct [ ("name", V.String "Mary"); ("salary", V.Int 200) ] ]
  in
  Alcotest.check check_value "tuple renamed"
    (V.bag [ V.strct [ ("n", V.String "Mary"); ("s", V.Int 200) ] ])
    (rename src_answer)

let test_answer_renamer_computed_head () =
  (* Computed projections keep mediator labels: no renaming. *)
  let e =
    Expr.Map
      ( Expr.Get "personprime0",
        Expr.Hstruct [ ("label", Expr.Attr [ "s" ]) ] )
  in
  let rename = Translate.answer_renamer ~map_of e in
  let answer = V.bag [ V.strct [ ("label", V.Int 5) ] ] in
  Alcotest.check check_value "labels untouched" answer (rename answer)

let test_answer_renamer_binding_struct () =
  let e = bind "x" (Expr.Get "personprime0") in
  let rename = Translate.answer_renamer ~map_of e in
  let answer =
    V.bag
      [ V.strct [ ("x", V.strct [ ("name", V.String "a"); ("salary", V.Int 1) ]) ] ]
  in
  Alcotest.check check_value "nested rename"
    (V.bag [ V.strct [ ("x", V.strct [ ("n", V.String "a"); ("s", V.Int 1) ]) ] ])
    (rename answer)

(* -- sqlgen -- *)

let schema_of db table =
  Option.map (fun t -> Schema.column_names (Table.schema t)) (Database.find_table db table)

let run_sqlgen db e =
  let { Sqlgen.sql; rebuild } = Sqlgen.compile ~schema_of:(schema_of db) e in
  rebuild (Sql.run db sql)

let test_sqlgen_matches_reference () =
  let db = person_db ~n:40 in
  let resolve = resolve_db db in
  let cases =
    [
      get;
      Expr.Select (get, gt_pred);
      Expr.Project (get, [ "name" ]);
      Expr.Project (Expr.Select (get, gt_pred), [ "name"; "salary" ]);
      Expr.Map
        ( Expr.Select (get, gt_pred),
          Expr.Hscalar (Expr.Attr [ "name" ]) );
      Expr.Map
        ( get,
          Expr.Hstruct
            [
              ("n", Expr.Attr [ "name" ]);
              ("s2", Expr.Arith (Expr.Mul, Expr.Attr [ "salary" ], Expr.Const (V.Int 2)));
            ] );
      Expr.Distinct (Expr.Map (get, Expr.Hscalar (Expr.Attr [ "salary" ])));
      bind "x" (Expr.Select (get, gt_pred));
    ]
  in
  List.iter
    (fun e ->
      let expected = Expr.eval ~resolve e in
      let got = run_sqlgen db e in
      (* SQL DISTINCT rebuilds as a set, exactly like the reference *)
      Alcotest.check check_value (Expr.to_string e) expected got)
    cases

let test_sqlgen_join () =
  let db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of db ~name:"employee0" Datagen.employee_schema
       (Datagen.employee_rows ~seed:3 ~n:25 ~depts:4));
  ignore
    (Datagen.table_of db ~name:"manager0" Datagen.manager_schema
       (Datagen.manager_rows ~seed:3 ~depts:4));
  let e =
    Expr.Join
      ( bind "e" (Expr.Get "employee0"),
        bind "m" (Expr.Get "manager0"),
        [ ([ "e"; "dept" ], [ "m"; "dept" ]) ] )
  in
  let expected = Expr.eval ~resolve:(resolve_db db) e in
  Alcotest.check check_value "join via SQL" expected (run_sqlgen db e);
  (* and with a computed head over the join *)
  let e2 =
    Expr.Map
      ( e,
        Expr.Hstruct
          [ ("who", Expr.Attr [ "e"; "name" ]); ("boss", Expr.Attr [ "m"; "name" ]) ] )
  in
  let expected2 = Expr.eval ~resolve:(resolve_db db) e2 in
  Alcotest.check check_value "join + head via SQL" expected2 (run_sqlgen db e2)

let test_sqlgen_whole_tuple_head () =
  let db = person_db ~n:10 in
  let e =
    Expr.Map
      ( bind "x" (Expr.Select (get, gt_pred)),
        Expr.Hstruct [ ("p", Expr.Attr [ "x" ]) ] )
  in
  let expected = Expr.eval ~resolve:(resolve_db db) e in
  Alcotest.check check_value "whole-tuple field" expected (run_sqlgen db e)

let test_sqlgen_unsupported () =
  let db = person_db ~n:5 in
  let union = Expr.Union [ get; get ] in
  (try
     ignore (run_sqlgen db union);
     Alcotest.fail "expected Unsupported"
   with Sqlgen.Unsupported _ -> ());
  let deep = Expr.Select (get, Expr.Cmp (Expr.Eq, Expr.Attr [ "a"; "b"; "c" ], Expr.Const V.Null)) in
  try
    ignore (run_sqlgen db deep);
    Alcotest.fail "expected Unsupported on deep path"
  with Sqlgen.Unsupported _ -> ()

(* -- wrappers -- *)

let test_sql_wrapper_executes () =
  let src = relational_source ~n:30 () in
  let w = Wrapper.sql_wrapper () in
  Alcotest.(check bool) "accepts select" true
    (Wrapper.accepts w (Expr.Select (get, gt_pred)));
  match Wrapper.execute w src (Expr.Select (get, gt_pred)) with
  | Ok (v, n) ->
      Alcotest.(check int) "row count" (V.cardinal v) n;
      Alcotest.(check bool) "all filtered" true
        (List.for_all
           (fun p -> V.to_int (V.field p "salary") > 10)
           (V.elements v))
  | Error e -> Alcotest.fail (Wrapper.error_message e)

let test_scan_wrapper_refuses () =
  let src = relational_source ~n:5 () in
  let w = Wrapper.scan_wrapper () in
  Alcotest.(check bool) "grammar refuses select" false
    (Wrapper.accepts w (Expr.Select (get, gt_pred)));
  (* even if the mediator ignores the grammar, execution refuses *)
  (match Wrapper.execute w src (Expr.Select (get, gt_pred)) with
  | Error (Wrapper.Refused _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected refusal");
  match Wrapper.execute w src get with
  | Ok (v, _) -> Alcotest.(check int) "scan ships everything" 5 (V.cardinal v)
  | Error e -> Alcotest.fail (Wrapper.error_message e)

let test_project_wrapper () =
  let src = relational_source ~n:5 () in
  let w = Wrapper.project_wrapper () in
  (match Wrapper.execute w src (Expr.Project (get, [ "name" ])) with
  | Ok (v, _) ->
      List.iter
        (fun p ->
          match p with
          | V.Struct [ ("name", _) ] -> ()
          | _ -> Alcotest.fail "extra fields")
        (V.elements v)
  | Error e -> Alcotest.fail (Wrapper.error_message e));
  match Wrapper.execute w src (Expr.Project (Expr.Select (get, gt_pred), [ "name" ])) with
  | Error (Wrapper.Refused _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "composition should be refused"

let test_kv_wrapper () =
  let tbl = Hashtbl.create 8 in
  let src =
    Source.create ~id:"kv0"
      ~address:(Source.address ~host:"h" ~db_name:"kv" ~ip:"0.0.0.0" ())
      (Source.Key_value tbl)
  in
  Source.kv_put src "mary"
    (V.strct [ ("key", V.String "mary"); ("salary", V.Int 200) ]);
  Source.kv_put src "sam"
    (V.strct [ ("key", V.String "sam"); ("salary", V.Int 50) ]);
  let w = Wrapper.kv_wrapper () in
  let lookup =
    Expr.Select
      ( Expr.Get "people",
        Expr.Cmp (Expr.Eq, Expr.Attr [ "key" ], Expr.Const (V.String "mary")) )
  in
  Alcotest.(check bool) "grammar accepts key lookup" true (Wrapper.accepts w lookup);
  (match Wrapper.execute w src lookup with
  | Ok (v, 1) ->
      Alcotest.check check_value "lookup"
        (V.bag [ V.strct [ ("key", V.String "mary"); ("salary", V.Int 200) ] ])
        v
  | Ok _ -> Alcotest.fail "expected one row"
  | Error e -> Alcotest.fail (Wrapper.error_message e));
  (match Wrapper.execute w src (Expr.Get "people") with
  | Ok (v, 2) -> Alcotest.(check int) "scan" 2 (V.cardinal v)
  | Ok _ | Error _ -> Alcotest.fail "scan failed");
  match Wrapper.execute w src (Expr.Select (Expr.Get "people", gt_pred)) with
  | Error (Wrapper.Refused _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "range filter should be refused"

let test_file_wrapper () =
  let src =
    Source.create ~id:"f0"
      ~address:(Source.address ~host:"h" ~db_name:"f" ~ip:"0.0.0.0" ())
      (Source.Flat_file (ref []))
  in
  Source.file_append src (V.strct [ ("line", V.String "a") ]);
  let w = Wrapper.file_wrapper () in
  (match Wrapper.execute w src (Expr.Get "records") with
  | Ok (v, 1) -> Alcotest.(check int) "one record" 1 (V.cardinal v)
  | Ok _ | Error _ -> Alcotest.fail "file scan failed");
  match Wrapper.execute w src (Expr.Select (Expr.Get "records", gt_pred)) with
  | Error (Wrapper.Refused _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "filter should be refused"

let test_text_wrapper () =
  let module Text_index = Disco_source.Text_index in
  let idx = Text_index.create () in
  ignore (Text_index.add idx ~title:"Water quality" ~body:"nitrate levels in the Seine");
  ignore (Text_index.add idx ~title:"Air quality" ~body:"ozone and particulates");
  ignore (Text_index.add idx ~title:"Seine flows" ~body:"discharge measurements");
  let src =
    Source.create ~id:"wais0"
      ~address:(Source.address ~host:"wais" ~db_name:"docs" ~ip:"0" ())
      (Source.Text idx)
  in
  let w = Wrapper.text_wrapper () in
  let keyword field word =
    Expr.Select
      ( Expr.Get "docs",
        Expr.Cmp
          (Expr.Like, Expr.Attr [ field ], Expr.Const (V.String ("%" ^ word ^ "%"))) )
  in
  Alcotest.(check bool) "grammar accepts keyword" true
    (Wrapper.accepts w (keyword "body" "nitrate"));
  Alcotest.(check bool) "grammar refuses range" false
    (Wrapper.accepts w (Expr.Select (Expr.Get "docs", gt_pred)));
  (match Wrapper.execute w src (keyword "body" "seine") with
  | Ok (v, 1) ->
      Alcotest.(check bool) "case-insensitive index hit" true
        (match V.elements v with
        | [ d ] -> V.equal (V.field d "title") (V.String "Water quality")
        | _ -> false)
  | Ok (_, n) -> Alcotest.fail (Fmt.str "expected 1 doc, got %d" n)
  | Error e -> Alcotest.fail (Wrapper.error_message e));
  (match Wrapper.execute w src (keyword "title" "quality") with
  | Ok (_, 2) -> ()
  | Ok (_, n) -> Alcotest.fail (Fmt.str "title search: expected 2, got %d" n)
  | Error e -> Alcotest.fail (Wrapper.error_message e));
  (match Wrapper.execute w src (Expr.Get "docs") with
  | Ok (_, 3) -> ()
  | _ -> Alcotest.fail "scan failed");
  (* multi-keyword patterns are outside the WAIS model: refused, and the
     refusal names the pattern after one space *)
  match Wrapper.execute w src (keyword "body" "nitrate% %ozone") with
  | Error (Wrapper.Refused m) ->
      Alcotest.(check string) "refusal text"
        "text server answers single-keyword patterns (%word%), not \
         %nitrate% %ozone%"
        m
  | _ -> Alcotest.fail "expected refusal of complex pattern"

(* A prepared call answers as [execute] on every call: after appends and
   deletes (the table's version moves), after the table is replaced by a
   same-name table of another schema, after the source's database
   changes (a failover), and when the expression stops compiling. *)
let test_prepared_call_follows_source () =
  let w = Wrapper.sql_wrapper () in
  let db = person_db ~n:20 in
  let src = Source.create ~id:"r0" ~address:(Source.address ~host:"h" ~db_name:"db" ~ip:"0" ()) (Source.Relational db) in
  let other =
    Source.create ~id:"rr0"
      ~address:(Source.address ~host:"h2" ~db_name:"db" ~ip:"1" ())
      (Source.Relational (person_db ~n:7))
  in
  let exprs =
    [
      Expr.Select (get, gt_pred);
      bind "x" (Expr.Select (get, gt_pred));
      Expr.Distinct (Expr.Map (get, Expr.Hscalar (Expr.Attr [ "salary" ])));
    ]
  in
  let calls = List.map (fun e -> (e, Wrapper.prepare w e)) exprs in
  let agree step src =
    List.iter
      (fun (e, call) ->
        let show = function
          | Ok (v, n) -> Fmt.str "%d %a" n V.pp v
          | Error err -> Wrapper.error_message err
        in
        Alcotest.(check string)
          (Fmt.str "%s: %s" step (Expr.to_string e))
          (show (Wrapper.execute w src e))
          (show (call src)))
      calls
  in
  agree "first call" src;
  agree "hit" src;
  let t = Database.get_table db "person0" in
  Table.insert_all t (Datagen.person_rows ~seed:9 ~n:5);
  agree "after insert" src;
  ignore (Table.delete_where t (fun row -> V.equal row.(0) (V.Int 3)));
  agree "after delete" src;
  agree "failover" other;
  agree "back" src;
  Database.drop_table db "person0";
  agree "table dropped" src;
  let t =
    Database.create_table db ~name:"person0"
      (Schema.make [ ("id", Schema.TInt); ("salary", Schema.TInt) ])
  in
  Table.insert_all t [ [| V.Int 1; V.Int 50 |]; [| V.Int 2; V.Int 5 |] ];
  agree "replaced by another schema" src

(* A prepared call keeps its compiled statement only from its second
   call: a cached plan whose text never repeats holds none. Counted in
   the words the call reaches, which no collection moves. *)
let test_prepared_call_keeps_from_second_call () =
  let src = relational_source ~n:20 () in
  let id_eq = Expr.Cmp (Expr.Eq, Expr.Attr [ "id" ], Expr.Const (V.Int 3)) in
  List.iter
    (fun (w, e) ->
      let label = Fmt.str "%s %s" (Wrapper.name w) (Expr.to_string e) in
      let call = Wrapper.prepare w e in
      let words () = Obj.reachable_words (Obj.repr call) in
      let fresh = words () in
      let answer = call src in
      Alcotest.(check bool) (label ^ ": answers") true (Result.is_ok answer);
      Alcotest.(check int) (label ^ ": first call keeps nothing") fresh (words ());
      ignore (call src);
      Alcotest.(check bool) (label ^ ": second call keeps the statement") true
        (words () > fresh))
    [
      (Wrapper.sql_wrapper (), Expr.Select (get, gt_pred));
      (Wrapper.select_wrapper (), Expr.Select (get, gt_pred));
      (Wrapper.project_wrapper (), Expr.Project (get, [ "name" ]));
      (Wrapper.indexed_wrapper ~eq:[ "id" ] (), Expr.Select (get, id_eq));
    ]

let test_text_wrapper_through_mediator () =
  let module Text_index = Disco_source.Text_index in
  let module Mediator = Disco_core.Mediator in
  let idx = Text_index.create () in
  ignore (Text_index.add idx ~title:"Doc A" ~body:"mediator architectures");
  ignore (Text_index.add idx ~title:"Doc B" ~body:"wrapper grammars");
  let m = Mediator.create ~name:"wais" () in
  Mediator.register_source m ~name:"rw"
    (Source.create ~id:"wais"
       ~address:(Source.address ~host:"wais" ~db_name:"docs" ~ip:"0" ())
       (Source.Text idx));
  Mediator.load_odl m
    {|rw := Repository(host="wais", name="docs", address="0");
      ww := WrapperWais();
      interface Doc (extent docs) {
        attribute Short id;
        attribute String title;
        attribute String body; }
      extent docs0 of Doc wrapper ww repository rw;|};
  match
    (Mediator.query m
       {|select d.title from d in docs where d.body like "%grammars%"|})
      .Mediator.answer
  with
  | Mediator.Complete v ->
      Alcotest.(check bool) "keyword query" true
        (V.equal v (V.bag [ V.String "Doc B" ]))
  | _ -> Alcotest.fail "expected complete"

let test_of_constructor () =
  Alcotest.(check bool) "WrapperPostgres" true
    (Wrapper.of_constructor_args "WrapperPostgres" [] <> None);
  Alcotest.(check bool) "case-insensitive" true
    (Wrapper.of_constructor_args "wrapperscan" [] <> None);
  Alcotest.(check bool) "unknown" true (Wrapper.of_constructor_args "Nope" [] = None)

(* Each built-in wrapper kind advertises one grammar value, so every
   wrapper of that kind shares one [accepts] memo. *)
let test_grammar_shared_per_kind () =
  let shared name make =
    Alcotest.(check bool) (name ^ ": one grammar for every call") true
      (Wrapper.functionality (make ()) == Wrapper.functionality (make ()))
  in
  shared "sql" Wrapper.sql_wrapper;
  shared "select" (fun () -> Wrapper.select_wrapper ());
  shared "project" Wrapper.project_wrapper;
  shared "scan" Wrapper.scan_wrapper;
  shared "kv" Wrapper.kv_wrapper;
  shared "file" Wrapper.file_wrapper;
  shared "text" Wrapper.text_wrapper;
  (* explicit comparisons still build their own, narrower grammar *)
  let eq_only = Wrapper.select_wrapper ~comparisons:[ "=" ] () in
  Alcotest.(check bool) "restricted select is its own grammar" false
    (Wrapper.functionality eq_only == Wrapper.functionality (Wrapper.select_wrapper ()));
  Alcotest.(check bool) "restricted select refuses ranges" false
    (Wrapper.accepts eq_only (Expr.Select (get, gt_pred)))

let test_wrong_source_kind () =
  let src = relational_source ~n:2 () in
  let w = Wrapper.kv_wrapper () in
  match Wrapper.execute w src (Expr.Get "person0") with
  | Error (Wrapper.Native_error _) -> ()
  | Ok _ | Error (Wrapper.Refused _) -> Alcotest.fail "expected native error"

(* -- answers arrive in canonical form -- *)

(* Every collection and struct of [v] rebuilt by [V.bag], [V.set] and
   [V.strct]: what [Translate.answer_renamer] used to apply to every
   answer, type map or not. *)
let rec canonical v =
  match v with
  | V.Bag xs -> V.bag (List.map canonical xs)
  | V.Set xs -> V.set (List.map canonical xs)
  | V.List xs -> V.List (List.map canonical xs)
  | V.Struct fields -> V.strct (List.map (fun (n, x) -> (n, canonical x)) fields)
  | v -> v

(* [Translate.answer_renamer] hands an answer on untouched when no extent
   of the exec has a field map. That is sound only because every wrapper
   kind already answers in canonical form, which this pins for each kind
   over the shapes it accepts. *)
let test_answers_are_canonical () =
  let address = Source.address ~host:"h" ~db_name:"db" ~ip:"0" () in
  let people =
    List.mapi
      (fun i row ->
        V.strct
          [ ("key", V.String (string_of_int i)); ("name", row.(1)); ("salary", row.(2)) ])
      (Datagen.person_rows ~seed:7 ~n:20)
  in
  let kv = Source.create ~id:"kv" ~address (Source.Key_value (Hashtbl.create 8)) in
  List.iteri (fun i p -> Source.kv_put kv (string_of_int i) p) people;
  let file = Source.create ~id:"f" ~address (Source.Flat_file (ref [])) in
  List.iter (Source.file_append file) (List.rev people);
  let text =
    let module Text_index = Disco_source.Text_index in
    let idx = Text_index.create () in
    ignore (Text_index.add idx ~title:"Seine flows" ~body:"discharge in the Seine");
    ignore (Text_index.add idx ~title:"Air quality" ~body:"ozone levels");
    ignore (Text_index.add idx ~title:"Water quality" ~body:"nitrate in the Seine");
    Source.create ~id:"t" ~address (Source.Text idx)
  in
  let child =
    let module Mediator = Disco_core.Mediator in
    let m = Mediator.create ~name:"child" () in
    Mediator.register_source m ~name:"r0" (relational_source ~n:20 ());
    Mediator.load_odl m
      {|r0 := Repository(host="rodin", name="db", address="1.2.3.4");
        w0 := WrapperPostgres();
        interface Person (extent person) {
          attribute Short id; attribute String name; attribute Short salary; }
        extent person0 of Person wrapper w0 repository r0;|};
    Disco_core.Composition.as_source m
  in
  let x_salary = Expr.Cmp (Expr.Gt, Expr.Attr [ "x"; "salary" ], Expr.Const (V.Int 100)) in
  let relational_shapes =
    [
      get;
      Expr.Select (get, gt_pred);
      Expr.Project (get, [ "salary"; "name" ]);
      Expr.Map (get, Expr.Hstruct [ ("s", Expr.Attr [ "salary" ]); ("n", Expr.Attr [ "name" ]) ]);
      Expr.Distinct (Expr.Map (get, Expr.Hscalar (Expr.Attr [ "name" ])));
      Expr.Select (bind "x" get, x_salary);
      Expr.Join (bind "x" get, bind "y" get, [ ([ "x"; "id" ], [ "y"; "id" ]) ]);
    ]
  in
  let kinds =
    [
      ("sql", Wrapper.sql_wrapper (), relational_source ~n:20 (), relational_shapes);
      ( "indexed",
        Wrapper.indexed_wrapper ~eq:[ "id" ] ~range:[ "salary" ] (),
        relational_source ~n:20 (),
        relational_shapes );
      ("select", Wrapper.select_wrapper (), relational_source ~n:20 (), relational_shapes);
      ("project", Wrapper.project_wrapper (), relational_source ~n:20 (), relational_shapes);
      ("scan", Wrapper.scan_wrapper (), relational_source ~n:20 (), relational_shapes);
      ( "kv",
        Wrapper.kv_wrapper (),
        kv,
        [
          Expr.Get "people";
          Expr.Select
            ( Expr.Get "people",
              Expr.Cmp (Expr.Eq, Expr.Attr [ "key" ], Expr.Const (V.String "3")) );
        ] );
      ("file", Wrapper.file_wrapper (), file, [ Expr.Get "records" ]);
      ( "text",
        Wrapper.text_wrapper (),
        text,
        [
          Expr.Get "docs";
          Expr.Select
            (Expr.Get "docs", Expr.Cmp (Expr.Like, Expr.Attr [ "body" ], Expr.Const (V.String "%seine%")));
        ] );
      ("mediator", snd child, fst child, relational_shapes);
    ]
  in
  List.iter
    (fun (kind, w, src, shapes) ->
      let answered =
        List.filter_map
          (fun e ->
            match Wrapper.execute w src e with
            | Ok (v, _) ->
                Alcotest.(check bool)
                  (Fmt.str "%s: %a is canonical" kind Expr.pp e)
                  true (canonical v = v);
                Some v
            | Error (Wrapper.Refused _) -> None
            | Error e -> Alcotest.fail (kind ^ ": " ^ Wrapper.error_message e))
          shapes
      in
      Alcotest.(check bool) (kind ^ ": some non-empty answer") true
        (List.exists (fun v -> V.cardinal v > 1) answered))
    kinds

(* -- property: SQL wrapper agrees with reference evaluation on random
   filtered projections -- *)

let prop_sql_wrapper_agrees =
  let open QCheck in
  let gen =
    Gen.map2
      (fun threshold project_name ->
        let base = Expr.Select (get, Expr.Cmp (Expr.Gt, Expr.Attr [ "salary" ], Expr.Const (V.Int threshold))) in
        if project_name then Expr.Project (base, [ "name" ]) else base)
      (Gen.int_range 0 500) Gen.bool
  in
  Test.make ~name:"sql wrapper agrees with reference" ~count:100
    (make ~print:Expr.to_string gen) (fun e ->
      let db = person_db ~n:60 in
      let src =
        Source.create ~id:"r"
          ~address:(Source.address ~host:"h" ~db_name:"db" ~ip:"0.0.0.0" ())
          (Source.Relational db)
      in
      match Wrapper.execute (Wrapper.sql_wrapper ()) src e with
      | Ok (v, _) -> V.equal v (Expr.eval ~resolve:(resolve_db db) e)
      | Error _ -> false)

let () =
  Alcotest.run "disco_wrapper"
    [
      ( "grammar",
        [
          Alcotest.test_case "paper example" `Quick test_grammar_paper_example;
          Alcotest.test_case "capability lattice" `Quick
            test_grammar_capability_lattice;
          Alcotest.test_case "comparison restriction" `Quick
            test_grammar_comparison_restriction;
          Alcotest.test_case "submit never nested" `Quick
            test_grammar_submit_never_nested;
        ] );
      ( "translate",
        [
          Alcotest.test_case "to source namespace" `Quick test_translate_to_source;
          Alcotest.test_case "binding paths" `Quick test_translate_binding_paths;
          Alcotest.test_case "answer renaming" `Quick test_answer_renamer;
          Alcotest.test_case "computed heads untouched" `Quick
            test_answer_renamer_computed_head;
          Alcotest.test_case "binding structs renamed" `Quick
            test_answer_renamer_binding_struct;
          Alcotest.test_case "every wrapper kind answers canonically" `Quick
            test_answers_are_canonical;
        ] );
      ( "sqlgen",
        [
          Alcotest.test_case "matches reference" `Quick test_sqlgen_matches_reference;
          Alcotest.test_case "join" `Quick test_sqlgen_join;
          Alcotest.test_case "whole-tuple head" `Quick test_sqlgen_whole_tuple_head;
          Alcotest.test_case "unsupported shapes" `Quick test_sqlgen_unsupported;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "sql wrapper" `Quick test_sql_wrapper_executes;
          Alcotest.test_case "scan wrapper refuses" `Quick test_scan_wrapper_refuses;
          Alcotest.test_case "project wrapper" `Quick test_project_wrapper;
          Alcotest.test_case "kv wrapper" `Quick test_kv_wrapper;
          Alcotest.test_case "file wrapper" `Quick test_file_wrapper;
          Alcotest.test_case "text wrapper" `Quick test_text_wrapper;
          Alcotest.test_case "prepared call follows its source" `Quick
            test_prepared_call_follows_source;
          Alcotest.test_case "prepared call keeps from its second call" `Quick
            test_prepared_call_keeps_from_second_call;
          Alcotest.test_case "text wrapper via mediator" `Quick
            test_text_wrapper_through_mediator;
          Alcotest.test_case "constructor lookup" `Quick test_of_constructor;
          Alcotest.test_case "wrong source kind" `Quick test_wrong_source_kind;
          Alcotest.test_case "one grammar per kind" `Quick
            test_grammar_shared_per_kind;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_sql_wrapper_agrees ] );
    ]
