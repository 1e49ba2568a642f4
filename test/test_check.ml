(* Tests for the static verifier (lib/check): golden diagnostics per
   DISCO code, the optimizer and runtime Enforce gates, the wrapper
   conformance audit, capability-grammar edge cases, and the JSON
   diagnostic rendering. *)

module V = Disco_value.Value
module Source = Disco_source.Source
module Clock = Disco_source.Clock
module Datagen = Disco_source.Datagen
module Registry = Disco_odl.Registry
module Odl_parser = Disco_odl.Odl_parser
module Otype = Disco_odl.Otype
module Typemap = Disco_odl.Typemap
module Expr = Disco_algebra.Expr
module Rules = Disco_algebra.Rules
module Cost_model = Disco_cost.Cost_model
module Plan = Disco_physical.Plan
module Optimizer = Disco_optimizer.Optimizer
module Runtime = Disco_runtime.Runtime
module Wrapper = Disco_wrapper.Wrapper
module Grammar = Disco_wrapper.Grammar
module Check = Disco_check.Check
module Mediator = Disco_core.Mediator
module Metrics = Disco_obs.Metrics

let addr host = Source.address ~host ~db_name:"db" ~ip:"0.0.0.0" ()

(* first index of [sub] in [s], or -1 *)
let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
  in
  go 0

let contains s sub = index_of s sub >= 0

let schema =
  {|
  r0 := Repository(host="h0", name="db", address="1");
  r1 := Repository(host="h1", name="db", address="2");
  w0 := WrapperPostgres();
  w1 := WrapperScan();
  wX := WrapperBogus();
  interface Person (extent person) {
    attribute Short id;
    attribute String name;
    attribute Short salary;
  }
  extent person0 of Person wrapper w0 repository r0;
  extent person1 of Person wrapper w1 repository r1;
  extent broken0 of Person wrapper wX repository r0;
|}

let registry () =
  let r = Registry.create () in
  Odl_parser.load r schema;
  r

let checker () = Check.of_registry (registry ())
let codes ds = List.map (fun d -> d.Check.d_code) ds

let check_has c ds =
  Alcotest.(check bool)
    (c ^ " present in " ^ String.concat "," (codes ds))
    true
    (List.mem c (codes ds))

let bind v e = Expr.Map (e, Expr.Hstruct [ (v, Expr.Attr []) ])
let const_i n = Expr.Const (V.Int n)
let get0 = Expr.Get "person0"

(* -- golden diagnostics, one per code -- *)

let test_clean_tree () =
  let e =
    Expr.Map
      ( Expr.Select
          (bind "x" get0, Expr.Cmp (Expr.Gt, Expr.Attr [ "x"; "salary" ], const_i 10)),
        Expr.Hscalar (Expr.Attr [ "x"; "name" ]) )
  in
  Alcotest.(check (list string)) "no diagnostics" [] (codes (Check.check_expr (checker ()) e))

let test_e001_unknown_collection () =
  check_has "DISCO-E001" (Check.check_expr (checker ()) (Expr.Get "nosuch"))

let test_e002_unresolved_attribute () =
  let e =
    Expr.Select (get0, Expr.Cmp (Expr.Eq, Expr.Attr [ "nosuch" ], const_i 1))
  in
  check_has "DISCO-E002" (Check.check_expr (checker ()) e)

let test_e003_type_mismatch () =
  let e =
    Expr.Select (get0, Expr.Cmp (Expr.Gt, Expr.Attr [ "name" ], const_i 3))
  in
  check_has "DISCO-E003" (Check.check_expr (checker ()) e)

let test_e004_nonconstant_membership () =
  let e = Expr.Select (get0, Expr.Member (Expr.Attr [ "id" ], V.Int 3)) in
  check_has "DISCO-E004" (Check.check_expr (checker ()) e)

let test_e005_grammar_refusal () =
  (* person1 is behind a scan-only wrapper: project must not be pushed *)
  let e = Expr.Submit ("r1", Expr.Project (Expr.Get "person1", [ "name" ])) in
  check_has "DISCO-E005" (Check.check_expr (checker ()) e)

let test_e005_wrapper_span () =
  let e =
    Expr.Submit
      ( "r0",
        Expr.Join
          ( bind "x" get0,
            bind "y" (Expr.Get "person1"),
            [ ([ "x"; "id" ], [ "y"; "id" ]) ] ) )
  in
  check_has "DISCO-E005" (Check.check_expr (checker ()) e)

let test_e006_not_decompilable () =
  (* a join over raw elements, outside the binding-struct discipline *)
  let e = Expr.Join (get0, get0, [ ([ "id" ], [ "id" ]) ]) in
  check_has "DISCO-E006" (Check.check_expr (checker ()) e)

let test_e007_unknown_repository () =
  check_has "DISCO-E007"
    (Check.check_plan (checker ()) (Plan.Exec ("nowhere", get0)));
  (* person0 is bound to r0, not r1 *)
  check_has "DISCO-E007" (Check.check_plan (checker ()) (Plan.Exec ("r1", get0)))

let test_e008_empty_join_keys () =
  let p =
    Plan.Hash_join (Plan.Mk_data (V.bag []), Plan.Mk_data (V.bag []), [])
  in
  check_has "DISCO-E008" (Check.check_plan (checker ()) p)

let test_e009_binding_overlap () =
  let e =
    Expr.Join
      (bind "x" get0, bind "x" get0, [ ([ "x"; "id" ], [ "x"; "id" ]) ])
  in
  check_has "DISCO-E009" (Check.check_expr (checker ()) e)

let test_e010_unresolvable_wrapper () =
  let e = Expr.Submit ("r0", Expr.Get "broken0") in
  check_has "DISCO-E010" (Check.check_expr (checker ()) e)

let test_w001_union_drift () =
  let e = Expr.Union [ get0; Expr.Data (V.bag [ V.Int 1 ]) ] in
  check_has "DISCO-W001" (Check.check_expr (checker ()) e)

let test_w003_roundtrip_drift () =
  (* a right-deep join tree recompiles to the canonical left-deep form *)
  let e =
    Expr.Join
      ( bind "x" get0,
        Expr.Join
          ( bind "y" get0,
            bind "z" get0,
            [ ([ "y"; "id" ], [ "z"; "id" ]) ] ),
        [ ([ "x"; "id" ], [ "y"; "id" ]) ] )
  in
  check_has "DISCO-W003" (Check.check_expr (checker ()) e)

(* -- the optimizer gate -- *)

let test_optimizer_enforce_raises () =
  let located = Expr.Submit ("r1", Expr.Project (Expr.Get "person1", [ "name" ])) in
  try
    ignore
      (Optimizer.optimize
         ~check:(checker (), Check.Enforce)
         ~can_push:Rules.push_none ~cost:(Cost_model.create ()) located);
    Alcotest.fail "expected Check_error"
  with Check.Check_error ds -> check_has "DISCO-E005" ds

let test_optimizer_warn_counts () =
  let metrics = Metrics.create () in
  let located = Expr.Submit ("r1", Expr.Project (Expr.Get "person1", [ "name" ])) in
  ignore
    (Optimizer.optimize ~metrics
       ~check:(checker (), Check.Warn)
       ~can_push:Rules.push_none ~cost:(Cost_model.create ()) located);
  Alcotest.(check bool)
    "violations counted" true
    (Metrics.find_counter metrics "check.violations" > 0)

(* Only the plan that runs is verified. Pushing the project into the
   scan-only person1 is the cheapest candidate under an empty cost store
   (it pushes the most work to the source), but it breaks the grammar; the as-written
   plan has no error. The union with an int bag gives every candidate a
   DISCO-W001 warning, so counting more than one verdict would show.
   [Warn] verifies and keeps the cheapest; [Enforce] walks down the
   ranking to the plan without errors. Both cost the same candidates. *)
let test_optimizer_verifies_the_choice () =
  let located =
    Expr.Union
      [
        Expr.Project (Expr.Submit ("r1", Expr.Get "person1"), [ "name" ]);
        Expr.Data (V.bag [ V.Int 1 ]);
      ]
  in
  let optimize mode =
    let metrics = Metrics.create () in
    let choice =
      Optimizer.optimize ~metrics ~check:(checker (), mode)
        ~can_push:Rules.push_all ~cost:(Cost_model.create ()) located
    in
    ( choice,
      ( Metrics.find_counter metrics "check.warnings",
        Metrics.find_counter metrics "check.violations" ) )
  in
  let warn, warn_counts = optimize Check.Warn in
  let verdict = Option.get warn.Optimizer.verdict in
  check_has "DISCO-E005" verdict;
  let errs = List.length (Check.errors verdict) in
  Alcotest.(check (pair int int))
    "Warn reports the chosen plan's verdict only"
    (List.length verdict - errs, errs)
    warn_counts;
  let enforce, enforce_counts = optimize Check.Enforce in
  Alcotest.(check (list string))
    "Enforce chooses the plan without errors" [ "DISCO-W001" ]
    (codes (Option.get enforce.Optimizer.verdict));
  Alcotest.(check (pair int int))
    "Enforce reports both plans it verified" (2, 1) enforce_counts;
  Alcotest.(check bool)
    "Warn keeps the cheapest plan" true
    (Plan.mediator_op_count warn.Optimizer.plan
    < Plan.mediator_op_count enforce.Optimizer.plan);
  Alcotest.(check int)
    "same alternatives" warn.Optimizer.alternatives
    enforce.Optimizer.alternatives

(* -- the runtime gate: a capability-violating plan is refused before
   anything reaches a source -- *)

let test_runtime_enforce_refuses () =
  let clock = Clock.create () in
  let cost = Cost_model.create () in
  let db = Datagen.person_db ~seed:0 ~name:"person0" ~n:5 in
  let source = Source.create ~id:"s" ~address:(addr "h") (Source.Relational db) in
  let binding =
    {
      Runtime.b_extent = "person0";
      b_repo = "r0";
      b_source = source;
      b_replicas = [];
      b_wrapper = Wrapper.scan_wrapper ();
      b_map = Typemap.identity;
      b_check = None;
    }
  in
  let env =
    Runtime.env (Runtime.Config.make ~check:Check.Enforce ~clock ~cost ()) [ binding ]
  in
  let plan = Plan.Exec ("r0", Expr.Project (get0, [ "name" ])) in
  (try
     ignore (Runtime.execute env plan);
     Alcotest.fail "expected Check_error"
   with Check.Check_error ds -> check_has "DISCO-E005" ds);
  Alcotest.(check int)
    "source untouched" 0
    (Source.stats source).Source.calls_answered;
  Alcotest.(check (float 0.0)) "clock unchanged" 0.0 (Clock.now clock)

(* -- mediator integration under Enforce -- *)

let person_schema_odl w0 w1 =
  Fmt.str
    {|
    r0 := Repository(host="h0", name="db", address="1");
    r1 := Repository(host="h1", name="db", address="2");
    w0 := %s();
    w1 := %s();
    interface Person (extent person) {
      attribute Short id;
      attribute String name;
      attribute Short salary; }
    extent person0 of Person wrapper w0 repository r0;
    extent person1 of Person wrapper w1 repository r1;
  |}
    w0 w1

let mk_mediator ?(metrics = Metrics.create ()) ?(check = Check.Enforce) ~w0
    ~w1 () =
  let config = { Mediator.Config.default with check; metrics } in
  let m = Mediator.create ~config ~name:"t" () in
  let s0 =
    Source.create ~id:"s0" ~address:(addr "h0")
      (Source.Relational (Datagen.person_db ~seed:0 ~name:"person0" ~n:8))
  in
  let s1 =
    Source.create ~id:"s1" ~address:(addr "h1")
      (Source.Relational (Datagen.person_db ~seed:1 ~name:"person1" ~n:8))
  in
  Mediator.register_source m ~name:"r0" s0;
  Mediator.register_source m ~name:"r1" s1;
  Mediator.load_odl m (person_schema_odl w0 w1);
  m

let query_pool =
  [|
    "select x.name from x in person where x.salary > 10";
    "select x from x in person1";
    "select struct(a: x.name, b: y.name) from x in person0, y in person1 \
     where x.name = y.name";
    "select distinct x.name from x in person";
    "select struct(n: x.name, s: x.salary * 2) from x in person0 where \
     x.name like \"%a%\"";
    "select x.name from x in person where x.salary > 10 and x.salary < 100";
  |]

let test_mediator_enforce_clean () =
  let metrics = Metrics.create () in
  let m = mk_mediator ~metrics ~w0:"WrapperPostgres" ~w1:"WrapperScan" () in
  Array.iter
    (fun q ->
      match (Mediator.query m q).Mediator.answer with
      | Mediator.Complete _ -> ()
      | _ -> Alcotest.fail ("not complete: " ^ q))
    query_pool;
  Alcotest.(check int)
    "no violations" 0
    (Metrics.find_counter metrics "check.violations")

(* The runtime gate reports a verdict on every execution, cached plan or
   not. Here the chosen plan keeps a commuted join over a scan-only
   source, so each execution reports one DISCO-W003 round-trip warning.
   The optimizer verifies only the plan it chooses, so the miss reports
   that same warning once more, at search. *)
let test_gate_accounting_per_execution () =
  let metrics = Metrics.create () in
  let m =
    mk_mediator ~metrics ~check:Check.Warn ~w0:"WrapperPostgres"
      ~w1:"WrapperScan" ()
  in
  let q =
    "select struct(a: x.name, b: y.name, c: z.name) from x in person1, y in \
     person0, z in person1 where x.id = y.id and y.id = z.id"
  in
  let counts () =
    ( Metrics.find_counter metrics "check.warnings",
      Metrics.find_counter metrics "check.violations" )
  in
  let run () =
    let w0, v0 = counts () in
    let o = Mediator.query m q in
    let w1, v1 = counts () in
    (o, (w1 - w0, v1 - v0))
  in
  let pair = Alcotest.(pair int int) in
  let miss, miss_counts = run () in
  let plan = Option.get miss.Mediator.plan in
  let fresh =
    Check.check_plan
      (Disco_core.Pipeline.checker
         (Disco_core.Pipeline.create
            ~source_known:(fun r -> Mediator.find_source m r <> None)
            (Mediator.registry m)))
      plan
  in
  Alcotest.(check (list string)) "executed plan's verdict" [ "DISCO-W003" ]
    (codes fresh);
  Alcotest.check pair "miss: the chosen plan at search and at the gate"
    (2, 0) miss_counts;
  List.iter
    (fun label ->
      let o, hit_counts = run () in
      Alcotest.(check bool) (label ^ " from cache") true o.Mediator.from_cache;
      Alcotest.check pair (label ^ ": the runtime's share of the miss") (1, 0)
        hit_counts)
    [ "second run"; "third run" ];
  Alcotest.check pair "totals" (4, 0) (counts ())

let wrappers = [| "WrapperPostgres"; "WrapperSelect"; "WrapperScan" |]

(* Plan [q] through a fresh pipeline over [m]'s registry and cost model;
   [None] for a query the compiled path does not plan whole (hybrid). *)
let choice_of m check q =
  let p =
    Disco_core.Pipeline.create ~check
      ~source_known:(fun r -> Mediator.find_source m r <> None)
      ~cost:(Mediator.cost_model m) (Mediator.registry m)
  in
  match Disco_core.Pipeline.front p q with
  | Error _ -> None
  | Ok expanded -> (
      match Disco_core.Pipeline.compile p expanded with
      | Error _ -> None
      | Ok located -> Some (Disco_core.Pipeline.optimize p located))

(* When the cheapest plan has no error, [Enforce] verifies it first and
   keeps it: the choice and the candidates costed equal [Warn]'s. *)
let prop_enforce_random_federations =
  QCheck.Test.make ~count:15
    ~name:"every optimized plan passes the verifier under Enforce"
    QCheck.(triple (int_bound 2) (int_bound 2) (int_bound 5))
    (fun (w0, w1, qi) ->
      let m = mk_mediator ~w0:wrappers.(w0) ~w1:wrappers.(w1) () in
      let q = query_pool.(qi) in
      let complete =
        match (Mediator.query m q).Mediator.answer with
        | Mediator.Complete _ -> true
        | _ -> false
      in
      complete
      &&
      match choice_of m Check.Warn q with
      | Some warn when not (Check.has_errors (Option.get warn.Optimizer.verdict))
        -> (
          match choice_of m Check.Enforce q with
          | Some enforce ->
              enforce.Optimizer.plan = warn.Optimizer.plan
              && enforce.Optimizer.alternatives = warn.Optimizer.alternatives
          | None -> false)
      | Some _ | None -> true)

(* -- the wrapper conformance audit -- *)

let person_attrs =
  [ ("id", Otype.TInt); ("name", Otype.TString); ("salary", Otype.TInt) ]

let test_audit_sql_clean () =
  let ds =
    Check.audit_wrapper ~extent:"person0" ~attrs:person_attrs
      (Wrapper.sql_wrapper ())
  in
  Alcotest.(check (list string)) "sql audit clean" [] (codes ds)

let test_audit_scan_clean () =
  let ds =
    Check.audit_wrapper ~extent:"person0" ~attrs:person_attrs
      (Wrapper.scan_wrapper ())
  in
  Alcotest.(check (list string)) "scan audit clean" [] (codes ds)

(* Every relational wrapper runs what its grammar derives: executed
   against a relational person0 source, no audit sentence the grammar
   accepts is refused or fails, and each audits clean. person0 declares
   no type map, so translation renames nothing, not even the attributes
   the indexed grammar names. *)
let test_audit_relational_against_source () =
  let src =
    Source.create ~id:"r0" ~address:(addr "r0")
      (Source.Relational (Datagen.person_db ~seed:0 ~name:"person0" ~n:8))
  in
  List.iter
    (fun w ->
      let ds =
        Check.audit_wrapper ~source:src ~indexed:(fun _ -> true)
          ~extent:"person0" ~attrs:person_attrs w
      in
      let executed =
        List.filter
          (fun d ->
            String.starts_with ~prefix:"the grammar derives this sentence"
              d.Check.d_message)
          ds
      in
      Alcotest.(check (list string))
        (Wrapper.name w ^ ": runs every accepted sentence")
        [] (codes executed);
      Alcotest.(check (list string)) (Wrapper.name w ^ ": audit clean") []
        (codes ds))
    [
      Wrapper.sql_wrapper ();
      Wrapper.scan_wrapper ();
      Wrapper.select_wrapper ();
      Wrapper.select_wrapper ~comparisons:[ "=" ] ();
      Wrapper.project_wrapper ();
      Wrapper.indexed_wrapper ~eq:[ "id" ] ~range:[ "salary" ] ();
    ]

(* An extent whose type map renames an attribute the indexed grammar
   names: the translated lookup names the source's field, which the
   grammar does not advertise, so translation leaves the grammar. *)
let test_audit_renamed_indexed_attribute () =
  let ds =
    Check.audit_wrapper
      ~map:(Typemap.make [ ("paie", "salary") ])
      ~indexed:(fun _ -> true) ~extent:"person0" ~attrs:person_attrs
      (Wrapper.indexed_wrapper ~eq:[ "salary" ] ())
  in
  check_has "DISCO-W002" ds;
  Alcotest.(check bool) "names the renamed field" true
    (List.exists
       (fun d ->
         String.equal d.Check.d_code "DISCO-W002"
         && contains d.Check.d_message "paie")
       ds)

let test_audit_kv_overclaims () =
  (* the key-value grammar advertises select(ATTRIBUTE = CONST, ...) for
     any attribute, but the wrapper only serves lookups on "key" *)
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl "alpha"
    (V.Struct [ ("key", V.String "alpha"); ("value", V.String "v") ]);
  let src = Source.create ~id:"kv" ~address:(addr "kv") (Source.Key_value tbl) in
  let ds =
    Check.audit_wrapper ~source:src ~extent:"kv0"
      ~attrs:[ ("key", Otype.TString); ("value", Otype.TString) ]
      (Wrapper.kv_wrapper ())
  in
  check_has "DISCO-W002" ds

(* -- W005: shards behind different grammars -- *)

let sharded_schema =
  {|
  r0 := Repository(host="h0", name="db", address="1");
  r1 := Repository(host="h1", name="db", address="2");
  w0 := WrapperSelect();
  interface Person (extent person) {
    attribute Short id;
    attribute String name;
    attribute Short salary;
  }
  extent people of Person wrapper w0 sharded by id range (100) across r0 r1;
|}

(* audit_shards with the two shards of [people] served by [w_a] and [w_b] *)
let audit_two_shards w_a w_b =
  let reg = Registry.create () in
  Odl_parser.load reg sharded_schema;
  let serving =
    match Registry.shard_children reg "people" with
    | [ a; b ] -> [ (a.Registry.me_name, w_a); (b.Registry.me_name, w_b) ]
    | _ -> Alcotest.fail "expected two shards"
  in
  Check.audit_shards
    (Check.of_registry ~wrapper_of:(fun ext -> List.assoc_opt ext serving) reg)

let test_w005_equal_grammars_warmed_memo () =
  let w_a = Wrapper.select_wrapper () and w_b = Wrapper.select_wrapper () in
  (* warm only one memo: equal grammars must still read as equal *)
  let probe =
    Expr.Select (get0, Expr.Cmp (Expr.Eq, Expr.Attr [ "id" ], const_i 1))
  in
  Alcotest.(check bool) "select accepted" true (Wrapper.accepts w_a probe);
  Alcotest.(check bool)
    "grammars equal" true
    (Grammar.equal (Wrapper.functionality w_a) (Wrapper.functionality w_b));
  let ds = audit_two_shards w_a w_b in
  Alcotest.(check bool)
    ("no W005 in " ^ String.concat "," (codes ds))
    false
    (List.mem "DISCO-W005" (codes ds))

let test_w005_heterogeneous_grammars () =
  let ds =
    audit_two_shards (Wrapper.select_wrapper ()) (Wrapper.sql_wrapper ())
  in
  check_has "DISCO-W005" ds

(* -- capability-grammar edge cases -- *)

let test_grammar_empty_production () =
  let g = Grammar.parse "a :- b c\nb :-\nc :- get OPEN SOURCE CLOSE" in
  Alcotest.(check bool) "nullable prefix" true (Grammar.accepts g (Expr.Get "s"));
  let g0 = Grammar.parse "a :-" in
  Alcotest.(check bool) "empty sentence" true (Grammar.derives g0 [])

let test_grammar_distinct_over_union () =
  let g =
    Grammar.parse
      "a :- distinct OPEN u CLOSE\n\
       u :- union OPEN g COMMA g CLOSE\n\
       g :- get OPEN SOURCE CLOSE"
  in
  Alcotest.(check bool)
    "distinct over union accepted" true
    (Grammar.accepts g (Expr.Distinct (Expr.Union [ Expr.Get "s"; Expr.Get "t" ])));
  Alcotest.(check bool)
    "bare union rejected" false
    (Grammar.accepts g (Expr.Union [ Expr.Get "s"; Expr.Get "t" ]))

let test_grammar_unknown_rhs_rejected () =
  try
    ignore (Grammar.parse "a :- foo");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument msg ->
    Alcotest.(check bool) "names the symbol" true (contains msg "foo")

(* -- JSON rendering: stable (file, code, path, message) ordering -- *)

let test_json_ordering () =
  let d code path =
    { Check.d_code = code; d_severity = Check.Error; d_path = path; d_message = "m" }
  in
  let j =
    Check.json_of_diags
      [
        ("b.oql", d "DISCO-E002" "q");
        ("a.oql", d "DISCO-E001" "q");
        ("a.oql", d "DISCO-E001" "p");
      ]
  in
  Alcotest.(check bool) "a before b" true (index_of j "a.oql" < index_of j "b.oql");
  Alcotest.(check bool)
    "path p before path q" true
    (index_of j "\"path\":\"p\"" < index_of j "\"path\":\"q\"");
  Alcotest.(check bool) "escaped fields" true (contains j "\"severity\":\"error\"")

let () =
  Alcotest.run "check"
    [
      ( "golden",
        [
          Alcotest.test_case "clean tree" `Quick test_clean_tree;
          Alcotest.test_case "E001 unknown collection" `Quick
            test_e001_unknown_collection;
          Alcotest.test_case "E002 unresolved attribute" `Quick
            test_e002_unresolved_attribute;
          Alcotest.test_case "E003 type mismatch" `Quick test_e003_type_mismatch;
          Alcotest.test_case "E004 non-constant membership" `Quick
            test_e004_nonconstant_membership;
          Alcotest.test_case "E005 grammar refusal" `Quick
            test_e005_grammar_refusal;
          Alcotest.test_case "E005 wrapper span" `Quick test_e005_wrapper_span;
          Alcotest.test_case "E006 not decompilable" `Quick
            test_e006_not_decompilable;
          Alcotest.test_case "E007 unknown repository" `Quick
            test_e007_unknown_repository;
          Alcotest.test_case "E008 empty join keys" `Quick
            test_e008_empty_join_keys;
          Alcotest.test_case "E009 binding overlap" `Quick
            test_e009_binding_overlap;
          Alcotest.test_case "E010 unresolvable wrapper" `Quick
            test_e010_unresolvable_wrapper;
          Alcotest.test_case "W001 union drift" `Quick test_w001_union_drift;
          Alcotest.test_case "W003 round-trip drift" `Quick
            test_w003_roundtrip_drift;
        ] );
      ( "gates",
        [
          Alcotest.test_case "optimizer Enforce raises" `Quick
            test_optimizer_enforce_raises;
          Alcotest.test_case "optimizer Warn counts" `Quick
            test_optimizer_warn_counts;
          Alcotest.test_case "optimizer verifies only the chosen plan" `Quick
            test_optimizer_verifies_the_choice;
          Alcotest.test_case "gate reports on every execution" `Quick
            test_gate_accounting_per_execution;
          Alcotest.test_case "runtime Enforce refuses before execution" `Quick
            test_runtime_enforce_refuses;
          Alcotest.test_case "mediator Enforce clean corpus" `Quick
            test_mediator_enforce_clean;
          QCheck_alcotest.to_alcotest prop_enforce_random_federations;
        ] );
      ( "audit",
        [
          Alcotest.test_case "sql wrapper audit clean" `Quick
            test_audit_sql_clean;
          Alcotest.test_case "scan wrapper audit clean" `Quick
            test_audit_scan_clean;
          Alcotest.test_case "relational wrappers run what they accept" `Quick
            test_audit_relational_against_source;
          Alcotest.test_case "renamed indexed attribute leaves the grammar"
            `Quick test_audit_renamed_indexed_attribute;
          Alcotest.test_case "kv wrapper over-claims" `Quick
            test_audit_kv_overclaims;
          Alcotest.test_case "W005 equal grammars, one memo warmed" `Quick
            test_w005_equal_grammars_warmed_memo;
          Alcotest.test_case "W005 heterogeneous shard grammars" `Quick
            test_w005_heterogeneous_grammars;
        ] );
      ( "grammar",
        [
          Alcotest.test_case "empty productions" `Quick
            test_grammar_empty_production;
          Alcotest.test_case "distinct over union" `Quick
            test_grammar_distinct_over_union;
          Alcotest.test_case "unknown rhs rejected" `Quick
            test_grammar_unknown_rhs_rejected;
        ] );
      ("json", [ Alcotest.test_case "stable ordering" `Quick test_json_ordering ]);
    ]
