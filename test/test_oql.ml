(* Tests for the OQL front end: parser, pretty-printer (round-trip), and
   the reference evaluator, including the paper's own example queries. *)

module V = Disco_value.Value
module Ast = Disco_oql.Ast
module Parser = Disco_oql.Parser
module Eval = Disco_oql.Eval

let check_value = Alcotest.testable V.pp V.equal

let person ?(id = 0) name salary =
  V.strct [ ("id", V.Int id); ("name", V.String name); ("salary", V.Int salary) ]

let person0 = V.bag [ person ~id:1 "Mary" 200 ]
let person1 = V.bag [ person ~id:2 "Sam" 50 ]

let resolve name =
  match name with
  | "person0" -> Some person0
  | "person1" -> Some person1
  | "person" -> Some (V.bag_union person0 person1)
  | "empty" -> Some (V.bag [])
  | _ -> None

let base_env = Eval.env ~resolve ~interface_names:[ "Person" ] ()
let run q = Eval.eval_string base_env q

(* -- parsing / printing -- *)

let test_parse_paper_query () =
  let q = Parser.parse "select x.name from x in person where x.salary > 10" in
  match q with
  | Ast.Select
      {
        sel_distinct = false;
        sel_proj = Ast.Path (Ast.Ident "x", "name");
        sel_from = [ ("x", Ast.Ident "person") ];
        sel_where =
          Some (Ast.Binop (Ast.Gt, Ast.Path (Ast.Ident "x", "salary"), Ast.Const (V.Int 10)));
        sel_order = [];
      } ->
      ()
  | _ -> Alcotest.fail ("unexpected AST: " ^ Ast.to_string q)

let test_parse_star () =
  (match Parser.parse "select x.name from x in person* where x.salary > 10" with
  | Ast.Select { sel_from = [ ("x", Ast.Extent_star "person") ]; _ } -> ()
  | q -> Alcotest.fail ("star not parsed: " ^ Ast.to_string q));
  (* multiplication is untouched *)
  match Parser.parse "select x.salary * 2 from x in person" with
  | Ast.Select { sel_proj = Ast.Binop (Ast.Mul, _, _); _ } -> ()
  | q -> Alcotest.fail ("multiplication broken: " ^ Ast.to_string q)

let test_parse_from_and_separator () =
  match
    Parser.parse
      "select struct(name: x.name, salary: x.salary + y.salary) from x in \
       person0 and y in person1 where x.id = y.id"
  with
  | Ast.Select { sel_from = [ ("x", _); ("y", _) ]; _ } -> ()
  | q -> Alcotest.fail ("and-separated from broken: " ^ Ast.to_string q)

let test_parse_union_nested () =
  match
    Parser.parse
      {|union(select y.name from y in person0 where y.salary > 10, bag("Sam"))|}
  with
  | Ast.Call ("union", [ Ast.Select _; Ast.Coll_expr (Ast.Kbag, [ _ ]) ]) -> ()
  | q -> Alcotest.fail ("union parse: " ^ Ast.to_string q)

let roundtrip_cases =
  [
    "select x.name from x in person where x.salary > 10";
    "select distinct x from x in person0";
    "select struct(name: x.name, salary: x.salary + y.salary) from x in \
     person0, y in person1 where x.id = y.id";
    "union(select y.name from y in person0, Bag(\"Sam\"))";
    "flatten(select x.e from x in metaextent where x.interface = Person)";
    "select struct(name: x.name, salary: sum(select z.salary from z in person \
     where x.id = z.id)) from x in person*";
    "not (x = 1 or y < 2 and z >= 3)";
    "1 + 2 * 3 - 4 / 5";
    "a mod 2 = 0";
    "count(except(intersect(b1, b2), b3))";
    "-x.salary + abs(y)";
    "element(select p from p in person0 where p.id = 1)";
  ]

let test_roundtrip () =
  List.iter
    (fun input ->
      let q = Parser.parse input in
      let printed = Ast.to_string q in
      let q2 = Parser.parse printed in
      Alcotest.(check bool)
        (Fmt.str "reparse of %S = %S" input printed)
        true (Ast.equal q q2))
    roundtrip_cases

let test_parse_errors () =
  let expect input =
    try
      ignore (Parser.parse input);
      Alcotest.fail ("expected parse error for " ^ input)
    with Disco_lex.Lexer.Error _ -> ()
  in
  expect "select from x in person";
  expect "select x from x";
  expect "select x from x in";
  expect "struct(name x.name)";
  expect "x +";
  expect "select x from x in person where"

(* -- free collections -- *)

let test_free_collections () =
  let q =
    Parser.parse
      "select struct(a: x.name, t: sum(select z.salary from z in person where \
       x.id = z.id)) from x in person0 where x.salary > threshold"
  in
  Alcotest.(check (list string))
    "free names" [ "person"; "person0"; "threshold" ]
    (Ast.free_collections q);
  let free oql = Ast.free_collections (Parser.parse oql) in
  (* a from variable shadows an extent of the same name, but only in the
     later entries and the clauses after them *)
  Alcotest.(check (list string))
    "from variable shadows" [ "person0"; "person1" ]
    (free
       "select person0.name from y in person0, person0 in person1 where \
        person0.id = y.id");
  Alcotest.(check (list string))
    "from variable not bound in its own collection" [ "x" ]
    (free "select x from x in x");
  (* a quantifier binds its variable in its body, not its collection *)
  Alcotest.(check (list string))
    "quantifier" [ "person1"; "x" ]
    (free "exists x in x : x.salary > 10 and person1 = person1");
  Alcotest.(check (list string))
    "quantifier variable shadows an extent" [ "person1" ]
    (free "for all person0 in person1 : person0.salary > 0");
  Alcotest.(check (list string))
    "a star is never bound" [ "person"; "person0" ]
    (free "select y from person in person0, y in person*")

(* -- evaluation -- *)

let test_eval_paper_intro () =
  (* Section 1.2: the motivating query over both sources. *)
  Alcotest.check check_value "Bag(Mary, Sam)"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    (run "select x.name from x in person where x.salary > 10")

let test_eval_partial_answer_form () =
  (* Section 1.3: evaluating the partial answer once person0 is back gives
     the full answer. *)
  Alcotest.check check_value "partial answer resubmission"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    (run
       {|union(select y.name from y in person0 where y.salary > 10, bag("Sam"))|})

let test_eval_double_view () =
  (* Section 2.2.3's reconciliation view [double], adapted so both sources
     share an id. *)
  let p0 = V.bag [ person ~id:7 "Ana" 100 ] in
  let p1 = V.bag [ person ~id:7 "Ana" 40 ] in
  let resolve = function
    | "person0" -> Some p0
    | "person1" -> Some p1
    | _ -> None
  in
  let env = Eval.env ~resolve () in
  Alcotest.check check_value "salary reconciliation"
    (V.bag [ V.strct [ ("name", V.String "Ana"); ("salary", V.Int 140) ] ])
    (Eval.eval_string env
       "select struct(name: x.name, salary: x.salary + y.salary) from x in \
        person0 and y in person1 where x.id = y.id")

let test_eval_correlated_aggregate () =
  (* Section 2.2.3's [multiple] view shape: a correlated sum. *)
  let result =
    run
      "select struct(name: x.name, total: sum(select z.salary from z in \
       person where x.id = z.id)) from x in person"
  in
  Alcotest.check check_value "correlated sums"
    (V.bag
       [
         V.strct [ ("name", V.String "Mary"); ("total", V.Int 200) ];
         V.strct [ ("name", V.String "Sam"); ("total", V.Int 50) ];
       ])
    result

let test_eval_metaextent_style () =
  (* Section 2.1: dynamic extent lookup through meta-data, with interface
     names evaluating to strings. *)
  let metaextent =
    V.bag
      [
        V.strct [ ("name", V.String "person0"); ("interface", V.String "Person") ];
        V.strct [ ("name", V.String "student0"); ("interface", V.String "Student") ];
      ]
  in
  let resolve = function "metaextent" -> Some metaextent | _ -> None in
  let env = Eval.env ~resolve ~interface_names:[ "Person"; "Student" ] () in
  Alcotest.check check_value "meta query"
    (V.bag [ V.String "person0" ])
    (Eval.eval_string env
       "select x.name from x in metaextent where x.interface = Person")

let test_eval_distinct_set () =
  Alcotest.check check_value "distinct yields a set"
    (V.set [ V.Int 50; V.Int 200 ])
    (run "select distinct x.salary from x in person")

let test_eval_dependent_from () =
  (* The second from-collection depends on the first variable. *)
  let nested =
    V.bag
      [
        V.strct [ ("tag", V.String "a"); ("items", V.bag [ V.Int 1; V.Int 2 ]) ];
        V.strct [ ("tag", V.String "b"); ("items", V.bag [ V.Int 3 ]) ];
      ]
  in
  let resolve = function "groups" -> Some nested | _ -> None in
  let env = Eval.env ~resolve () in
  Alcotest.check check_value "dependent join"
    (V.bag [ V.Int 1; V.Int 2; V.Int 3 ])
    (Eval.eval_string env "select i from g in groups, i in g.items")

let test_eval_empty_and_null () =
  Alcotest.check check_value "empty select" (V.bag [])
    (run "select x.name from x in empty");
  Alcotest.check check_value "sum empty" (V.Int 0) (run "sum(empty)");
  Alcotest.check check_value "min empty" V.Null (run "min(empty)");
  Alcotest.check check_value "exists" (V.Bool false) (run "exists(empty)")

let test_eval_errors () =
  let expect q =
    try
      ignore (run q);
      Alcotest.fail ("expected Eval_error for " ^ q)
    with Eval.Eval_error _ -> ()
  in
  expect "select x from x in nosuch";
  expect "select x.name from x in 42";
  expect "element(person)";
  expect "1 + \"a\"";
  expect "nosuchfun(1)"

let test_eval_order_by () =
  Alcotest.check check_value "order by salary desc yields a list"
    (V.List [ V.String "Mary"; V.String "Sam" ])
    (run "select x.name from x in person order by x.salary desc");
  Alcotest.check check_value "ascending by name"
    (V.List [ V.String "Mary"; V.String "Sam" ])
    (run "select x.name from x in person order by x.name");
  Alcotest.check check_value "two keys"
    (V.List [ V.Int 50; V.Int 200 ])
    (run "select x.salary from x in person order by x.salary asc, x.name desc");
  (* keys may reference bindings not in the projection *)
  Alcotest.check check_value "key outside projection"
    (V.List [ V.String "Sam"; V.String "Mary" ])
    (run "select x.name from x in person order by x.salary")

let test_order_by_roundtrip () =
  List.iter
    (fun q ->
      let ast = Parser.parse q in
      Alcotest.(check bool)
        (Fmt.str "roundtrip %s" q)
        true
        (Ast.equal ast (Parser.parse (Ast.to_string ast))))
    [
      "select x.name from x in person order by x.salary desc";
      "select x from x in person where x.salary > 10 order by x.name, x.id desc";
    ]

(* -- property tests -- *)

let arb_query =
  (* Random well-formed queries over the person schema, for parse/print
     round-tripping. *)
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y" ] in
  let coll = oneofl [ "person"; "person0"; "person1" ] in
  let rec expr depth =
    let atom =
      oneof
        [
          map (fun i -> Ast.Const (V.Int i)) (int_range 0 100);
          map (fun s -> Ast.Const (V.String s)) (oneofl [ "a"; "b" ]);
          map (fun v -> Ast.Path (Ast.Ident v, "salary")) var;
          map (fun v -> Ast.Path (Ast.Ident v, "name")) var;
        ]
    in
    if depth = 0 then atom
    else
      frequency
        [
          (3, atom);
          ( 2,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl Ast.[ Add; Sub; Mul; Eq; Ne; Lt; Le; Gt; Ge; And; Or ])
              (expr (depth - 1)) (expr (depth - 1)) );
          (1, map (fun a -> Ast.Unop (Ast.Not, a)) (expr (depth - 1)));
          ( 1,
            map2
              (fun f args -> Ast.Call (f, [ args ]))
              (oneofl [ "count"; "sum"; "flatten"; "distinct" ])
              (expr (depth - 1)) );
          ( 1,
            map2
              (fun v c ->
                Ast.Select
                  {
                    Ast.sel_distinct = false;
                    sel_proj = Ast.Path (Ast.Ident v, "salary");
                    sel_from = [ (v, Ast.Ident c) ];
                    sel_where = Some (Ast.Binop (Ast.Gt, Ast.Path (Ast.Ident v, "salary"), Ast.Const (V.Int 10)));
                  sel_order = [];
                  })
              var coll );
        ]
  in
  QCheck.make ~print:Ast.to_string (expr 3)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:500 arb_query (fun q ->
      Ast.equal q (Parser.parse (Ast.to_string q)))

let () =
  Alcotest.run "disco_oql"
    [
      ( "parser",
        [
          Alcotest.test_case "paper query" `Quick test_parse_paper_query;
          Alcotest.test_case "extent star vs multiplication" `Quick
            test_parse_star;
          Alcotest.test_case "and-separated from" `Quick
            test_parse_from_and_separator;
          Alcotest.test_case "nested union" `Quick test_parse_union_nested;
          Alcotest.test_case "roundtrip cases" `Quick test_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "free collections" `Quick test_free_collections;
        ] );
      ( "eval",
        [
          Alcotest.test_case "paper intro query" `Quick test_eval_paper_intro;
          Alcotest.test_case "partial answer resubmission" `Quick
            test_eval_partial_answer_form;
          Alcotest.test_case "double view" `Quick test_eval_double_view;
          Alcotest.test_case "correlated aggregate" `Quick
            test_eval_correlated_aggregate;
          Alcotest.test_case "metaextent query" `Quick test_eval_metaextent_style;
          Alcotest.test_case "distinct" `Quick test_eval_distinct_set;
          Alcotest.test_case "dependent from" `Quick test_eval_dependent_from;
          Alcotest.test_case "empty and null" `Quick test_eval_empty_and_null;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "order by" `Quick test_eval_order_by;
          Alcotest.test_case "order by roundtrip" `Quick test_order_by_roundtrip;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ] );
    ]
