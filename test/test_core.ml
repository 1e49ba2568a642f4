(* End-to-end tests of the Disco mediator: the paper's running examples
   (Sections 1.2-2.3), partial evaluation (Section 4), the four
   unavailable-data semantics, plan caching, wrapper fallback, views,
   maps, subtyping, catalogs, and mediator composition (Figure 1). *)

module V = Disco_value.Value
module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Clock = Disco_source.Clock
module Datagen = Disco_source.Datagen
module Database = Disco_relation.Database
module Wrapper = Disco_wrapper.Wrapper
module Catalog = Disco_catalog.Catalog
module Mediator = Disco_core.Mediator
module Maintenance = Disco_core.Maintenance
module Composition = Disco_core.Composition
module Plan = Disco_physical.Plan

let qopts ?(timeout_ms = 1000.0) ?(semantics = Mediator.Partial_answers)
    ?(type_check = false) ?(static_check = false) () =
  { Mediator.Query_opts.timeout_ms; semantics; type_check; static_check }

let check_value = Alcotest.testable V.pp V.equal

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let addr host = Source.address ~host ~db_name:"db" ~ip:"123.45.6.7" ()

(* The paper's two-source world: r0 holds Mary/200, r1 holds Sam/50. *)
let person_row id name salary = [| V.Int id; V.String name; V.Int salary |]

let paper_source ~id ~host rows =
  let db = Database.create ~name:"db" in
  ignore (Datagen.table_of db ~name:("person" ^ string_of_int id) Datagen.person_schema rows);
  Source.create ~id:(Fmt.str "src%d" id) ~address:(addr host)
    ~latency:{ Source.base_ms = 5.0; per_row_ms = 0.0; jitter = 0.0 }
    (Source.Relational db)

let paper_odl =
  {|
  r0 := Repository(host="rodin", name="db", address="123.45.6.7");
  r1 := Repository(host="umiacs", name="db", address="123.45.6.8");
  w0 := WrapperPostgres();
  interface Person (extent person) {
    attribute String name;
    attribute Short salary; }
  extent person0 of Person wrapper w0 repository r0;
  extent person1 of Person wrapper w0 repository r1;
|}

let paper_mediator () =
  let m = Mediator.create ~name:"m0" () in
  Mediator.register_source m ~name:"r0"
    (paper_source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ]);
  Mediator.register_source m ~name:"r1"
    (paper_source ~id:1 ~host:"umiacs" [ person_row 1 "Sam" 50 ]);
  Mediator.load_odl m paper_odl;
  m

let complete outcome =
  match outcome.Mediator.answer with
  | Mediator.Complete v -> v
  | Mediator.Partial _ as p ->
      Alcotest.fail ("unexpected partial: " ^ Mediator.answer_oql p)
  | Mediator.Unavailable repos ->
      Alcotest.fail ("unavailable: " ^ String.concat "," repos)

(* -- the paper's Section 1.2 example -- *)

let test_paper_intro_query () =
  let m = paper_mediator () in
  let v =
    complete
      (Mediator.query m "select x.name from x in person where x.salary > 10")
  in
  Alcotest.check check_value "Bag(Mary, Sam)"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    v

let test_explicit_extents () =
  let m = paper_mediator () in
  let v =
    complete
      (Mediator.query m
         "select x.name from x in union(person0, person1) where x.salary > 10")
  in
  Alcotest.check check_value "explicit union"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    v;
  let v0 =
    complete (Mediator.query m "select x.name from x in person0 where x.salary > 10")
  in
  Alcotest.check check_value "single extent" (V.bag [ V.String "Mary" ]) v0

(* Section 1.2: "the addition of a new data source ... simply requires the
   addition of a new extent ... the query itself does not change". *)
let test_add_source_same_query () =
  let m = paper_mediator () in
  let q = "select x.name from x in person where x.salary > 10" in
  ignore (complete (Mediator.query m q));
  Mediator.register_source m ~name:"r2"
    (paper_source ~id:2 ~host:"lip6" [ person_row 9 "Zoe" 75 ]);
  Mediator.load_odl m
    {|r2 := Repository(host="lip6", name="db", address="123.45.6.9");
      extent person2 of Person wrapper w0 repository r2;|};
  let v = complete (Mediator.query m q) in
  Alcotest.check check_value "three sources now"
    (V.bag [ V.String "Mary"; V.String "Sam"; V.String "Zoe" ])
    v

(* -- Section 1.3 / 4: partial evaluation -- *)

let test_partial_answer_paper_form () =
  let m = paper_mediator () in
  (* r0 does not respond *)
  (match Mediator.find_source m "r0" with
  | Some src -> Source.set_schedule src (Schedule.down_during [ (0.0, 500.0) ])
  | None -> Alcotest.fail "no r0");
  let outcome =
    Mediator.query ~opts:(qopts ~timeout_ms:100.0 ()) m
      "select x.name from x in person where x.salary > 10"
  in
  match outcome.Mediator.answer with
  | Mediator.Partial { unavailable; _ } as p ->
      let oql = Mediator.answer_oql p in
      Alcotest.(check (list string)) "r0 unavailable" [ "r0" ] unavailable;
      (* the paper's exact answer shape: union(select..., Bag("Sam")) *)
      Alcotest.(check string) "paper partial answer"
        {|union(select x.name from x in person0 where x.salary > 10, Bag("Sam"))|}
        oql;
      (* Section 4: when r0 becomes available, resubmitting yields the
         answer to the original query *)
      Clock.advance (Mediator.clock m) 600.0;
      let v = complete (Mediator.resubmit m outcome.Mediator.answer) in
      Alcotest.check check_value "resubmission"
        (V.bag [ V.String "Mary"; V.String "Sam" ])
        v
  | _ -> Alcotest.fail "expected a partial answer"

let test_semantics_variants () =
  let make_down () =
    let m = paper_mediator () in
    (match Mediator.find_source m "r0" with
    | Some src -> Source.set_schedule src Schedule.always_down
    | None -> ());
    m
  in
  let q = "select x.name from x in person where x.salary > 10" in
  (* Wait_all: no answer *)
  let m = make_down () in
  (match (Mediator.query ~opts:(qopts ~semantics:Mediator.Wait_all ~timeout_ms:50.0 ()) m q).Mediator.answer with
  | Mediator.Unavailable [ "r0" ] -> ()
  | _ -> Alcotest.fail "expected Unavailable");
  (* Null_sources: complete answer over available data *)
  let m = make_down () in
  (match (Mediator.query ~opts:(qopts ~semantics:Mediator.Null_sources ~timeout_ms:50.0 ()) m q).Mediator.answer with
  | Mediator.Complete v ->
      Alcotest.check check_value "null semantics" (V.bag [ V.String "Sam" ]) v
  | _ -> Alcotest.fail "expected Complete under null semantics");
  (* Skip_sources: same data, but no timeout wait *)
  let m = make_down () in
  let t0 = Clock.now (Mediator.clock m) in
  (match (Mediator.query ~opts:(qopts ~semantics:Mediator.Skip_sources ~timeout_ms:5000.0 ()) m q).Mediator.answer with
  | Mediator.Complete v ->
      Alcotest.check check_value "skip semantics" (V.bag [ V.String "Sam" ]) v;
      let elapsed = Clock.now (Mediator.clock m) -. t0 in
      Alcotest.(check bool) "no deadline wait" true (elapsed < 100.0)
  | _ -> Alcotest.fail "expected Complete under skip semantics")

(* -- Section 2.2.2: maps -- *)

let test_type_map_end_to_end () =
  let m = paper_mediator () in
  Mediator.load_odl m
    {|
    interface PersonPrime {
      attribute String n;
      attribute Short s; }
    extent personprime0 of PersonPrime wrapper w0 repository r0
      map ((person0=personprime0),(name=n),(salary=s));
  |};
  let v =
    complete (Mediator.query m "select x.n from x in personprime0 where x.s > 10")
  in
  Alcotest.check check_value "mapped query" (V.bag [ V.String "Mary" ]) v

(* Section 6.2's closing example: yearly mediator salaries over a
   weekly-paid source, via a value-transform map. *)
let test_value_transform_map () =
  let m = Mediator.create ~name:"vt" () in
  let db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of db ~name:"weekly0" Datagen.person_schema
       [ person_row 1 "Mary" 10; person_row 2 "Sam" 5 ]);
  Mediator.register_source m ~name:"r0"
    (Source.create ~id:"payroll" ~address:(addr "site") (Source.Relational db));
  Mediator.load_odl m
    {|r0 := Repository(host="site", name="db", address="0");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short yearly; }
      extent person0 of Person wrapper w0 repository r0
        map ((weekly0=person0),(salary*52=yearly));|};
  (* predicates compare in mediator (yearly) units, pushed to the source *)
  let o =
    Mediator.query m "select x.name from x in person where x.yearly > 400"
  in
  Alcotest.check check_value "filter in yearly units"
    (V.bag [ V.String "Mary" ])
    (complete o);
  Alcotest.(check int) "filter ran at the source" 1
    o.Mediator.stats.Disco_runtime.Runtime.tuples_shipped;
  (* raw tuples come back converted *)
  let v = complete (Mediator.query m "select x.yearly from x in person") in
  Alcotest.check check_value "values converted"
    (V.bag [ V.Int 260; V.Int 520 ])
    v;
  (* computed heads convert too *)
  let v2 =
    complete
      (Mediator.query m
         {|select struct(n: x.name, monthly: x.yearly / 12) from x in person where x.name = "Mary"|})
  in
  Alcotest.check check_value "arithmetic over converted field"
    (V.bag [ V.strct [ ("n", V.String "Mary"); ("monthly", V.Int 43) ] ])
    v2

(* Join pushdown into ONE repository whose two relations both need maps:
   the merged submit must translate each extent through its own map. *)
let test_same_repo_join_with_maps () =
  let m = Mediator.create ~name:"jm" () in
  let db = Database.create ~name:"db" in
  let emp_schema =
    Disco_relation.Schema.make
      [ ("nom", Disco_relation.Schema.TString);
        ("svc", Disco_relation.Schema.TString) ]
  in
  let mgr_schema =
    Disco_relation.Schema.make
      [ ("chef", Disco_relation.Schema.TString);
        ("service", Disco_relation.Schema.TString) ]
  in
  ignore
    (Datagen.table_of db ~name:"employes" emp_schema
       [ [| V.String "Ana"; V.String "it" |];
         [| V.String "Bob"; V.String "hr" |] ]);
  ignore
    (Datagen.table_of db ~name:"chefs" mgr_schema
       [ [| V.String "Max"; V.String "it" |] ]);
  Mediator.register_source m ~name:"r0"
    (Source.create ~id:"site" ~address:(addr "site") (Source.Relational db));
  Mediator.load_odl m
    {|r0 := Repository(host="site", name="db", address="0");
      w0 := WrapperPostgres();
      interface Employee {
        attribute String name;
        attribute String dept; }
      interface Manager {
        attribute String name;
        attribute String dept; }
      extent employee0 of Employee wrapper w0 repository r0
        map ((employes=employee0),(nom=name),(svc=dept));
      extent manager0 of Manager wrapper w0 repository r0
        map ((chefs=manager0),(chef=name),(service=dept));|};
  let o =
    Mediator.query m
      "select struct(who: e.name, boss: b.name) from e in employee0, b in        manager0 where e.dept = b.dept"
  in
  Alcotest.check check_value "join through two maps"
    (V.bag [ V.strct [ ("who", V.String "Ana"); ("boss", V.String "Max") ] ])
    (complete o);
  (* the join was pushed: one exec, only the joined row shipped *)
  Alcotest.(check int) "one exec (merged submit)" 1
    o.Mediator.stats.Disco_runtime.Runtime.execs_issued;
  Alcotest.(check int) "one tuple shipped" 1
    o.Mediator.stats.Disco_runtime.Runtime.tuples_shipped

(* Maps work across source kinds: a key-value store whose French field
   names map onto the mediator type, with the indexed lookup preserved. *)
let test_kv_with_map () =
  let m = Mediator.create ~name:"kvm" () in
  let tbl = Hashtbl.create 8 in
  let kv =
    Source.create ~id:"cache" ~address:(addr "cache") (Source.Key_value tbl)
  in
  Source.kv_put kv "mary"
    (V.strct [ ("key", V.String "mary"); ("paie", V.Int 200) ]);
  Source.kv_put kv "sam"
    (V.strct [ ("key", V.String "sam"); ("paie", V.Int 50) ]);
  Mediator.register_source m ~name:"rk" kv;
  Mediator.load_odl m
    {|rk := Repository(host="cache", name="kv", address="0");
      wk := WrapperKV();
      interface Entry (extent entries) {
        attribute String key;
        attribute Short salary; }
      extent entries0 of Entry wrapper wk repository rk
        map ((entries0=entries0),(paie=salary));|};
  (* the indexed lookup still reaches the store *)
  let o =
    Mediator.query m {|select e.salary from e in entries where e.key = "mary"|}
  in
  Alcotest.check check_value "lookup through map" (V.bag [ V.Int 200 ])
    (complete o);
  Alcotest.(check int) "index served one row" 1
    o.Mediator.stats.Disco_runtime.Runtime.tuples_shipped;
  (* scans rename the value fields *)
  let v = complete (Mediator.query m "select e.salary from e in entries") in
  Alcotest.check check_value "scan renamed" (V.bag [ V.Int 50; V.Int 200 ]) v

(* -- Section 2.2.1: subtyping and star -- *)

let student_odl =
  {|
  r2 := Repository(host="ens", name="db", address="123.45.6.10");
  interface Student : Person { }
  extent student0 of Student wrapper w0 repository r2;
|}

let add_students m =
  let db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of db ~name:"student0" Datagen.person_schema
       [ person_row 7 "Stu" 42 ]);
  Mediator.register_source m ~name:"r2"
    (Source.create ~id:"src2" ~address:(addr "ens")
       ~latency:{ Source.base_ms = 5.0; per_row_ms = 0.0; jitter = 0.0 }
       (Source.Relational db));
  Mediator.load_odl m student_odl

let test_subtype_star () =
  let m = paper_mediator () in
  add_students m;
  (* person does NOT include student extents *)
  let v = complete (Mediator.query m "select x.name from x in person") in
  Alcotest.check check_value "person excludes subtypes"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    v;
  (* person* does *)
  let v' = complete (Mediator.query m "select x.name from x in person*") in
  Alcotest.check check_value "person* includes subtypes"
    (V.bag [ V.String "Mary"; V.String "Sam"; V.String "Stu" ])
    v'

(* -- Section 2.1: metaextent queries -- *)

let test_metaextent_query () =
  let m = paper_mediator () in
  let v =
    complete
      (Mediator.query m
         {|select x.name from x in metaextent where x.interface = Person|})
  in
  Alcotest.check check_value "metaextent"
    (V.bag [ V.String "person0"; V.String "person1" ])
    v

let test_meta_collections () =
  let m = paper_mediator () in
  let v =
    complete
      (Mediator.query m
         "select r.host from r in repositories order by r.host")
  in
  Alcotest.check check_value "repository hosts"
    (V.List [ V.String "rodin"; V.String "umiacs" ])
    v;
  let w = complete (Mediator.query m "select w.constructor from w in wrappers") in
  Alcotest.check check_value "wrapper constructors"
    (V.bag [ V.String "WrapperPostgres" ])
    w

let test_order_by_through_mediator () =
  let m = paper_mediator () in
  let v =
    complete
      (Mediator.query m
         "select x.name from x in person order by x.salary desc")
  in
  Alcotest.check check_value "ordered result"
    (V.List [ V.String "Mary"; V.String "Sam" ])
    v

let test_like_operator () =
  let m = paper_mediator () in
  (* like pushes into the SQL wrapper (full_relational includes it) *)
  let v =
    complete
      (Mediator.query m {|select x.name from x in person where x.name like "M%"|})
  in
  Alcotest.check check_value "like" (V.bag [ V.String "Mary" ]) v;
  let o =
    Mediator.query m {|select x.name from x in person0 where x.name like "%a%"|}
  in
  (match o.Mediator.plan with
  | Some plan ->
      (* the filter ran at the source: only the match shipped *)
      Alcotest.(check int) "pushed like ships matches only" 1
        o.Mediator.stats.Disco_runtime.Runtime.tuples_shipped;
      ignore plan
  | None -> Alcotest.fail "expected compiled path");
  (* underscore wildcard *)
  let v2 =
    complete
      (Mediator.query m {|select x.name from x in person where x.name like "S_m"|})
  in
  Alcotest.check check_value "underscore" (V.bag [ V.String "Sam" ]) v2

let test_like_not_in_weak_wrapper_grammar () =
  let weak = Disco_wrapper.Grammar.select_pushdown () in
  let like_sel =
    Disco_algebra.Expr.Select
      ( Disco_algebra.Expr.Get "t",
        Disco_algebra.Expr.Cmp
          ( Disco_algebra.Expr.Like,
            Disco_algebra.Expr.Attr [ "name" ],
            Disco_algebra.Expr.Const (V.String "M%") ) )
  in
  Alcotest.(check bool) "default select wrapper refuses like" false
    (Disco_wrapper.Grammar.accepts weak like_sel);
  let with_like =
    Disco_wrapper.Grammar.select_pushdown
      ~comparisons:[ "="; "like" ] ()
  in
  Alcotest.(check bool) "like-capable grammar accepts" true
    (Disco_wrapper.Grammar.accepts with_like like_sel)

(* -- Section 2.2.3 / 2.3: views -- *)

let test_views_double_multiple () =
  let m = paper_mediator () in
  (* make the two persons share an id so double is non-empty *)
  Mediator.load_odl m
    {|
    define double as
      select struct(name: x.name, salary: x.salary + y.salary)
      from x in person0 and y in person1
      where x.id = y.id;
    define multiple as
      select struct(name: x.name,
                    salary: sum(select z.salary from z in person where x.id = z.id))
      from x in person*;
  |};
  let v = complete (Mediator.query m "select d from d in double") in
  Alcotest.check check_value "double reconciles"
    (V.bag [ V.strct [ ("name", V.String "Mary"); ("salary", V.Int 250) ] ])
    v;
  (* multiple: correlated aggregate (hybrid path) over person* *)
  let v' = complete (Mediator.query m "select r.salary from r in multiple") in
  Alcotest.check check_value "multiple sums by id"
    (V.bag [ V.Int 250; V.Int 250 ])
    v'

let test_view_over_view_and_cycles () =
  let m = paper_mediator () in
  Mediator.load_odl m
    {|
    define rich as select p from p in person where p.salary > 100;
    define richnames as select r.name from r in rich;
  |};
  let v = complete (Mediator.query m "richnames") in
  Alcotest.check check_value "view over view" (V.bag [ V.String "Mary" ]) v;
  Mediator.load_odl m
    {|
    define a1 as select x from x in b1;
    define b1 as select y from y in a1;
  |};
  try
    ignore (Mediator.query m "a1");
    Alcotest.fail "expected cycle error"
  with Mediator.Mediator_error msg ->
    Alcotest.(check bool) "cycle reported" true (contains msg "cyclic")

(* -- Section 2.3: dissimilar structures -- *)

let test_personnew_reconciliation () =
  let m = paper_mediator () in
  let db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of db ~name:"persontwo0" Datagen.person_two_schema
       [ [| V.Int 5; V.String "Pat"; V.Int 30; V.Int 12 |] ]);
  Mediator.register_source m ~name:"r5"
    (Source.create ~id:"src5" ~address:(addr "inria")
       (Source.Relational db));
  Mediator.load_odl m
    {|
    r5 := Repository(host="inria", name="db", address="123.45.6.11");
    interface PersonTwo {
      attribute String name;
      attribute Short regular;
      attribute Short consult; }
    extent persontwo0 of PersonTwo wrapper w0 repository r5;
    define personnew as
      union(select struct(name: x.name, salary: x.salary) from x in person,
            select struct(name: x.name, salary: x.regular + x.consult)
            from x in persontwo0);
  |};
  let v = complete (Mediator.query m "select p.salary from p in personnew where p.name = \"Pat\"") in
  Alcotest.check check_value "split pay reconciled" (V.bag [ V.Int 42 ]) v

(* -- replication extension -- *)

let test_replica_failover () =
  let m = Mediator.create ~name:"mr" () in
  (* primary r0 and replica r9 hold the same data *)
  Mediator.register_source m ~name:"r0"
    (paper_source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ]);
  let replica_db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of replica_db ~name:"person0" Datagen.person_schema
       [ person_row 1 "Mary" 200 ]);
  Mediator.register_source m ~name:"r9"
    (Source.create ~id:"mirror" ~address:(addr "mirror")
       ~latency:{ Source.base_ms = 20.0; per_row_ms = 0.0; jitter = 0.0 }
       (Source.Relational replica_db));
  Mediator.load_odl m
    {|r0 := Repository(host="rodin", name="db", address="1");
      r9 := Repository(host="mirror", name="db", address="9");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0 replica r9;|};
  let q = "select x.name from x in person where x.salary > 10" in
  (* primary up: normal *)
  Alcotest.check check_value "primary serves" (V.bag [ V.String "Mary" ])
    (complete (Mediator.query m q));
  (* primary down: the replica answers, still a complete answer *)
  (match Mediator.find_source m "r0" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  Alcotest.check check_value "replica serves" (V.bag [ V.String "Mary" ])
    (complete (Mediator.query ~opts:(qopts ~timeout_ms:100.0 ()) m q));
  (* both down: back to a partial answer *)
  (match Mediator.find_source m "r9" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  match (Mediator.query ~opts:(qopts ~timeout_ms:50.0 ()) m q).Mediator.answer with
  | Mediator.Partial { unavailable = [ "r0" ]; _ } -> ()
  | _ -> Alcotest.fail "expected partial once all copies are down"

let test_replica_requires_attached_source () =
  let m = paper_mediator () in
  Mediator.load_odl m
    {|r9 := Repository(host="ghost", name="db", address="9");
      extent person9 of Person wrapper w0 repository r0 replica r9;|};
  try
    ignore (Mediator.query m "select x from x in person9");
    Alcotest.fail "expected error about unattached replica"
  with Mediator.Mediator_error msg ->
    Alcotest.(check bool) "mentions replica" true (contains msg "replica")

(* -- hybrid fragment pushdown -- *)

let test_hybrid_fragment_pushdown () =
  (* an aggregate is outside the algebra, but its inner select is a closed
     fragment: the filter must still run at the source *)
  let m = Mediator.create ~name:"hf" () in
  let rows = List.init 500 (fun i -> person_row i (Fmt.str "p%d" i) i) in
  Mediator.register_source m ~name:"r0" (paper_source ~id:0 ~host:"h" rows);
  Mediator.load_odl m
    {|r0 := Repository(host="h", name="db", address="0");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0;|};
  let o =
    Mediator.query m "sum(select x.salary from x in person where x.salary > 450)"
  in
  (match o.Mediator.answer with
  | Mediator.Complete (V.Int total) ->
      Alcotest.(check int) "sum of 451..499" (49 * (451 + 499) / 2) total
  | _ -> Alcotest.fail "expected a sum");
  Alcotest.(check int) "only matching tuples shipped" 49
    o.Mediator.stats.Disco_runtime.Runtime.tuples_shipped;
  (* correlated aggregates still work (fragments must skip open
     subqueries) *)
  let o2 =
    Mediator.query m
      "select struct(n: x.name, peers: count(select y from y in person where        y.salary = x.salary)) from x in person where x.salary > 497"
  in
  match o2.Mediator.answer with
  | Mediator.Complete v -> Alcotest.(check int) "two rows" 2 (V.cardinal v)
  | _ -> Alcotest.fail "expected complete"

let test_hybrid_fragment_partial () =
  let m = paper_mediator () in
  (match Mediator.find_source m "r1" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  (* the aggregate query's fragment over person1 blocks: partial answer *)
  let o =
    Mediator.query ~opts:(qopts ~timeout_ms:50.0 ()) m
      "sum(select x.salary from x in person where x.salary > 10)"
  in
  match o.Mediator.answer with
  | Mediator.Partial { unavailable; _ } ->
      Alcotest.(check (list string)) "r1 blocked" [ "r1" ] unavailable;
      (* recovery: the resubmitted text gives the true sum *)
      (match Mediator.find_source m "r1" with
      | Some src -> Source.set_schedule src Schedule.always_up
      | None -> ());
      (match (Mediator.resubmit m o.Mediator.answer).Mediator.answer with
      | Mediator.Complete (V.Int 250) -> ()
      | Mediator.Complete v -> Alcotest.fail (V.to_string v)
      | _ -> Alcotest.fail "resubmission failed")
  | _ -> Alcotest.fail "expected partial"

(* -- semijoin reduction (future-work extension, Sections 3.2 / 6.2) -- *)

(* A tiny "managers" source and a large "employees" source at
   different sites; transfer costs dominate the large side, so once the
   join's costs are learned the optimizer reduces it with a semijoin. *)
let semijoin_mediator () =
  let m = Mediator.create ~name:"sj" () in
  let small_db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of small_db ~name:"vip0" Datagen.person_schema
       (List.init 5 (fun i -> person_row (i * 400) (Fmt.str "vip%d" i) 999)));
  let big_db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of big_db ~name:"staff0" Datagen.person_schema
       (Datagen.person_rows ~seed:77 ~n:5000));
  Mediator.register_source m ~name:"r0"
    (Source.create ~id:"small" ~address:(addr "hq")
       ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.05; jitter = 0.0 }
       (Source.Relational small_db));
  Mediator.register_source m ~name:"r1"
    (Source.create ~id:"big" ~address:(addr "plant")
       ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.05; jitter = 0.0 }
       (Source.Relational big_db));
  Mediator.load_odl m
    {|r0 := Repository(host="hq", name="db", address="0");
      r1 := Repository(host="plant", name="db", address="1");
      w0 := WrapperPostgres();
      interface Person {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent vip0 of Person wrapper w0 repository r0;
      extent staff0 of Person wrapper w0 repository r1;|};
  m

let semijoin_query =
  "select struct(a: x.name, b: y.name) from x in vip0, y in staff0 where x.id \
   = y.id"

let test_semijoin_reduction () =
  let m = semijoin_mediator () in
  let q = semijoin_query in
  (* run 1: no cost information, maximal pushdown ships everything *)
  let o1 = Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m q in
  let shipped1 = o1.Mediator.stats.Disco_runtime.Runtime.tuples_shipped in
  Alcotest.(check bool) "first run ships the big extent" true (shipped1 >= 5000);
  (* run 2: learned costs make the semijoin plan win *)
  Mediator.clear_plan_cache m;
  let o2 = Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m q in
  let shipped2 = o2.Mediator.stats.Disco_runtime.Runtime.tuples_shipped in
  (match o2.Mediator.plan with
  | Some plan ->
      Alcotest.(check bool)
        (Fmt.str "semijoin chosen: %s" (Disco_physical.Plan.to_string plan))
        true
        (Disco_physical.Plan.semi_joins plan > 0)
  | None -> Alcotest.fail "expected a compiled plan");
  Alcotest.(check bool)
    (Fmt.str "reduced shipping: %d -> %d" shipped1 shipped2)
    true
    (shipped2 < shipped1 / 10);
  (* and the answers agree *)
  Alcotest.check check_value "same answer" (complete o1) (complete o2)

(* [explain] reads the plan cache: once the join has run, it shows the
   cached plan [query] goes on to run, not the semijoin plan a fresh
   optimization would now pick. *)
let test_explain_shows_cached_plan () =
  let m = semijoin_mediator () in
  let opts = qopts ~timeout_ms:10_000.0 () in
  ignore (Mediator.query ~opts m semijoin_query);
  let text = Mediator.explain m semijoin_query in
  match (Mediator.query ~opts m semijoin_query).Mediator.plan with
  | Some plan ->
      Alcotest.(check int) "no semijoin" 0 (Plan.semi_joins plan);
      Alcotest.(check bool)
        ("explain prints the executed plan: " ^ text)
        true
        (String.ends_with ~suffix:("\n" ^ Plan.to_string plan) text)
  | None -> Alcotest.fail "expected a compiled plan"

let test_semijoin_partial_degrades () =
  (* if the reduced side is down, the residual query must be the plain
     join over the original expressions *)
  let m = paper_mediator () in
  let cost = Mediator.cost_model m in
  ignore cost;
  (* force a semijoin plan by learning costs first *)
  let q =
    "select struct(a: x.name, b: y.name) from x in person0, y in person1      where x.salary = y.salary"
  in
  ignore (Mediator.query m q);
  Mediator.clear_plan_cache m;
  (match Mediator.find_source m "r1" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  let o = Mediator.query ~opts:(qopts ~timeout_ms:50.0 ()) m q in
  (match o.Mediator.answer with
  | Mediator.Partial _ ->
      (* resubmittable after recovery *)
      (match Mediator.find_source m "r1" with
      | Some src -> Source.set_schedule src Schedule.always_up
      | None -> ());
      let v = complete (Mediator.resubmit m o.Mediator.answer) in
      ignore v
  | Mediator.Complete _ -> () (* optimizer may not have picked semijoin *)
  | Mediator.Unavailable _ -> Alcotest.fail "unexpected wait-all");
  ()

let test_skip_respects_replicas () =
  let m = Mediator.create ~name:"sr" () in
  Mediator.register_source m ~name:"r0"
    (paper_source ~id:0 ~host:"a" [ person_row 1 "Mary" 200 ]);
  Mediator.register_source m ~name:"r9"
    (paper_source ~id:0 ~host:"b" [ person_row 1 "Mary" 200 ]);
  Mediator.load_odl m
    {|r0 := Repository(host="a", name="db", address="0");
      r9 := Repository(host="b", name="db", address="9");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0 replica r9;|};
  (match Mediator.find_source m "r0" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  (* primary down but replica up: skip semantics must NOT drop the data *)
  (match
     (Mediator.query ~opts:(qopts ~semantics:Mediator.Skip_sources ()) m
        "select x.name from x in person")
       .Mediator.answer
   with
  | Mediator.Complete v ->
      Alcotest.check check_value "replica kept the extent alive"
        (V.bag [ V.String "Mary" ]) v
  | _ -> Alcotest.fail "expected complete");
  (match Mediator.find_source m "r9" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  match
    (Mediator.query ~opts:(qopts ~semantics:Mediator.Skip_sources ()) m
       "select x.name from x in person")
      .Mediator.answer
  with
  | Mediator.Complete v ->
      Alcotest.check check_value "all copies down: skipped" (V.bag []) v
  | _ -> Alcotest.fail "expected complete empty"

let test_order_by_partial () =
  let m = paper_mediator () in
  (match Mediator.find_source m "r0" with
  | Some src -> Source.set_schedule src (Schedule.down_during [ (0.0, 500.0) ])
  | None -> ());
  let o =
    Mediator.query ~opts:(qopts ~timeout_ms:50.0 ()) m
      "select x.name from x in person order by x.salary desc"
  in
  match o.Mediator.answer with
  | Mediator.Partial _ ->
      Clock.advance (Mediator.clock m) 600.0;
      (match (Mediator.resubmit m o.Mediator.answer).Mediator.answer with
      | Mediator.Complete v ->
          Alcotest.check check_value "ordered after recovery"
            (V.List [ V.String "Mary"; V.String "Sam" ])
            v
      | _ -> Alcotest.fail "resubmission failed")
  | _ -> Alcotest.fail "expected partial"

let test_wait_all_hybrid () =
  let m = paper_mediator () in
  (match Mediator.find_source m "r0" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  match
    (Mediator.query ~opts:(qopts ~semantics:Mediator.Wait_all ~timeout_ms:50.0 ()) m
       "count(select x from x in person where x.salary > 10)")
      .Mediator.answer
  with
  | Mediator.Unavailable repos ->
      Alcotest.(check (list string)) "r0 reported" [ "r0" ] repos
  | _ -> Alcotest.fail "expected Unavailable on the hybrid path"

let test_null_semantics_hybrid () =
  let m = paper_mediator () in
  (match Mediator.find_source m "r0" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  match
    (Mediator.query ~opts:(qopts ~semantics:Mediator.Null_sources ~timeout_ms:50.0 ()) m
       "sum(select x.salary from x in person)")
      .Mediator.answer
  with
  | Mediator.Complete (V.Int 50) -> ()
  | Mediator.Complete v -> Alcotest.fail (V.to_string v)
  | _ -> Alcotest.fail "expected complete under null semantics"

(* -- plan caching -- *)

let test_source_stats () =
  let m = paper_mediator () in
  ignore (Mediator.query m "select x.name from x in person");
  (match Mediator.source_stats m with
  | [ ("r0", s0); ("r1", s1) ] ->
      Alcotest.(check int) "r0 answered" 1 s0.Source.calls_answered;
      Alcotest.(check int) "r1 answered" 1 s1.Source.calls_answered;
      Alcotest.(check int) "r0 rows" 1 s0.Source.rows_shipped
  | other -> Alcotest.fail (Fmt.str "%d entries" (List.length other)));
  ()

let test_plan_cache () =
  let m = paper_mediator () in
  let q = "select x.name from x in person where x.salary > 10" in
  let o1 = Mediator.query m q in
  Alcotest.(check bool) "first run plans" false o1.Mediator.from_cache;
  let o2 = Mediator.query m q in
  Alcotest.(check bool) "second run cached" true o2.Mediator.from_cache;
  (* adding an extent invalidates: the same query text now sees 3 sources *)
  Mediator.register_source m ~name:"r2"
    (paper_source ~id:2 ~host:"lip6" [ person_row 3 "Zoe" 80 ]);
  Mediator.load_odl m
    {|r2 := Repository(host="lip6", name="db", address="x");
      extent person2 of Person wrapper w0 repository r2;|};
  let o3 = Mediator.query m q in
  Alcotest.(check bool) "invalidated" false o3.Mediator.from_cache;
  Alcotest.check check_value "new source visible"
    (V.bag [ V.String "Mary"; V.String "Sam"; V.String "Zoe" ])
    (complete o3)

(* -- plan-cache keys --

   A whole query is cached under its text as received (plus the
   [static_check] flag); a hybrid fragment and a [Skip_sources] query
   under their printed expansion. Each test below fails if the key
   ignores the case it covers. *)

let plan_cache_counts m =
  let p = Mediator.plan_cache_stats m in
  (p.Mediator.p_hits, p.Mediator.p_misses)

let test_key_load_odl_replans () =
  let m = paper_mediator () in
  (* attached before anything is cached: only the ODL change remains *)
  Mediator.register_source m ~name:"r2"
    (paper_source ~id:2 ~host:"lip6" [ person_row 3 "Zoe" 80 ]);
  let q = "select x.name from x in person where x.salary > 10" in
  ignore (Mediator.query m q);
  Alcotest.(check bool) "cached" true (Mediator.query m q).Mediator.from_cache;
  Mediator.load_odl m
    {|r2 := Repository(host="lip6", name="db", address="x");
      extent person2 of Person wrapper w0 repository r2;|};
  let o = Mediator.query m q in
  Alcotest.(check bool) "replanned after load_odl" false o.Mediator.from_cache;
  Alcotest.check check_value "new extent visible"
    (V.bag [ V.String "Mary"; V.String "Sam"; V.String "Zoe" ])
    (complete o)

let test_key_static_check () =
  let m = paper_mediator () in
  (* ill-typed (Person declares no id), yet the sources' tables have one *)
  let q = "select x.id from x in person" in
  Alcotest.check check_value "runs unchecked"
    (V.bag [ V.Int 1; V.Int 1 ])
    (complete (Mediator.query m q));
  Alcotest.(check bool)
    "cached unchecked" true (Mediator.query m q).Mediator.from_cache;
  match Mediator.query ~opts:(qopts ~static_check:true ()) m q with
  | _ -> Alcotest.fail "expected the static type error"
  | exception Mediator.Mediator_error msg ->
      Alcotest.(check bool) ("type error: " ^ msg) true (contains msg "type error")

let test_key_skip_sources_tracks_outage () =
  let m = paper_mediator () in
  let r1 = Option.get (Mediator.find_source m "r1") in
  let opts = qopts ~semantics:Mediator.Skip_sources () in
  let q = "select x.name from x in person where x.salary > 10" in
  Source.set_schedule r1 Schedule.always_down;
  Alcotest.check check_value "r1 skipped" (V.bag [ V.String "Mary" ])
    (complete (Mediator.query ~opts m q));
  Source.set_schedule r1 Schedule.always_up;
  let up = Mediator.query ~opts m q in
  Alcotest.(check bool) "replanned once r1 is up" false up.Mediator.from_cache;
  Alcotest.check check_value "r1 answers again"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    (complete up);
  Source.set_schedule r1 Schedule.always_down;
  Alcotest.(check bool)
    "the outage plan is still cached" true
    (Mediator.query ~opts m q).Mediator.from_cache

let test_key_text_vs_fragment () =
  let m = paper_mediator () in
  let inner = "select x.salary from x in person where x.salary > 10" in
  ignore (Mediator.query m ("sum(" ^ inner ^ ")"));
  Alcotest.(check (pair int int)) "the fragment missed" (0, 1) (plan_cache_counts m);
  (* the fragment's printed form, sent as a whole query *)
  let printed =
    match
      Disco_core.Pipeline.front
        (Disco_core.Pipeline.create (Mediator.registry m))
        inner
    with
    | Ok expanded -> Disco_oql.Ast.to_string expanded
    | Error _ -> Alcotest.fail "inner query does not expand"
  in
  let o = Mediator.query m printed in
  Alcotest.(check bool) ("no collision on " ^ printed) false o.Mediator.from_cache;
  Alcotest.(check (pair int int)) "a second miss" (0, 2) (plan_cache_counts m)

let test_key_explain_and_query_share () =
  let m = paper_mediator () in
  let q1 = "select x.name from x in person where x.salary > 10" in
  let q2 = "select x.name from x in person where x.salary > 100" in
  ignore (Mediator.explain m q1);
  Alcotest.(check bool)
    "query after explain hits" true (Mediator.query m q1).Mediator.from_cache;
  ignore (Mediator.query m q2);
  ignore (Mediator.explain m q2);
  Alcotest.(check (pair int int))
    "explain after query hits" (2, 2) (plan_cache_counts m)

let test_key_repeated_hybrid () =
  let m = paper_mediator () in
  let q = "sum(select x.salary from x in person where x.salary > 10)" in
  let reference =
    let person =
      V.bag
        [
          V.strct [ ("name", V.String "Mary"); ("salary", V.Int 200) ];
          V.strct [ ("name", V.String "Sam"); ("salary", V.Int 50) ];
        ]
    in
    Disco_oql.Eval.eval_string
      (Disco_oql.Eval.env
         ~resolve:(function "person" -> Some person | _ -> None)
         ())
      q
  in
  for i = 1 to 3 do
    Alcotest.check check_value
      (Fmt.str "run %d equals Eval" i)
      reference
      (complete (Mediator.query m q))
  done;
  Alcotest.(check int) "only the fragment is cached" 1 (Mediator.plan_cache_size m);
  Alcotest.(check (pair int int)) "fragment: one miss, then hits" (2, 1)
    (plan_cache_counts m)

(* Each closed fragment of a hybrid query runs once: a partial fragment
   is replaced by its own residual, so the source that answered is not
   asked again, and a bare extent is planned and run like any other
   fragment. *)
let test_hybrid_fragment_runs_once () =
  let m = paper_mediator () in
  let timeout_ms = 50.0 in
  let set_schedule repo schedule =
    match Mediator.find_source m repo with
    | Some src -> Source.set_schedule src schedule
    | None -> Alcotest.fail ("no source " ^ repo)
  in
  set_schedule "r1" Schedule.always_down;
  let o =
    Mediator.query ~opts:(qopts ~timeout_ms ()) m
      "sum(select x.salary from x in person where x.salary > 10)"
  in
  let stats = o.Mediator.stats in
  Alcotest.(check int) "execs issued" 2 stats.Disco_runtime.Runtime.execs_issued;
  Alcotest.(check int) "execs blocked" 1 stats.Disco_runtime.Runtime.execs_blocked;
  Alcotest.(check (float 1e-9)) "one deadline" timeout_ms
    stats.Disco_runtime.Runtime.elapsed_ms;
  (match Mediator.find_source m "r0" with
  | Some src ->
      Alcotest.(check int) "r0 answered once" 1
        (Source.stats src).Source.calls_answered
  | None -> Alcotest.fail "no source r0");
  (match o.Mediator.answer with
  | Mediator.Partial _ as p ->
      let oql = Mediator.answer_oql p in
      Alcotest.(check bool) "residual names person1" true (contains oql "person1");
      Alcotest.(check bool) "residual does not name person0" false
        (contains oql "person0")
  | _ -> Alcotest.fail "expected partial");
  set_schedule "r1" Schedule.always_up;
  Alcotest.check check_value "resubmission is complete" (V.Int 250)
    (complete (Mediator.resubmit m o.Mediator.answer));
  (* bare extents are fragments: each is planned (one miss apiece) *)
  let q = "count(person0) + count(person1)" in
  let one_row = V.bag [ V.strct [ ("name", V.String "x") ] ] in
  let reference =
    Disco_oql.Eval.eval_string
      (Disco_oql.Eval.env ~resolve:(fun _ -> Some one_row) ())
      q
  in
  let _, misses = plan_cache_counts m in
  Alcotest.check check_value "bare extents equal Eval" reference
    (complete (Mediator.query m q));
  Alcotest.(check int) "one plan per bare extent" (misses + 2)
    (snd (plan_cache_counts m))

(* The hybrid fragment search, pinned: every subquery that
   [Expand.map_closed_subqueries] hands to its callback, in order. A
   closed node is tried before its children; a node that names a
   variable bound by an enclosing [from] or quantifier is not tried, and
   once the callback rewrites a node its subtree is left alone. *)
let test_hybrid_fragment_search_order () =
  let parse = Disco_oql.Parser.parse in
  let ast = Alcotest.testable Disco_oql.Ast.pp Disco_oql.Ast.equal in
  let check name ?(rewrite = []) ?result oql ~tried =
    let seen = ref [] in
    let f ~free:_ q =
      seen := q :: !seen;
      if List.exists (Disco_oql.Ast.equal q) (List.map parse rewrite) then
        Some (Disco_oql.Ast.Const (V.Int 0))
      else None
    in
    let got = Disco_core.Expand.map_closed_subqueries f (parse oql) in
    Alcotest.(check (list ast)) (name ^ ": tried") (List.map parse tried)
      (List.rev !seen);
    Alcotest.check ast (name ^ ": result")
      (parse (Option.value result ~default:oql))
      got
  in
  let q =
    "select person0.name from person0 in person1 where person0.salary > 10"
  in
  check "from variable named like an extent" q ~tried:[ q; "person1"; "10" ];
  let q = "exists x in person0 : x.salary > 10 and person1 = person1" in
  check "quantifier variable" q
    ~tried:[ q; "person1 = person1"; "person1"; "person1"; "10"; "person0" ];
  let q =
    "select struct(n: x.name, c: count(select y from y in person1 where y.id \
     = x.id)) from x in person0 where exists z in person1 : z.id = x.id"
  in
  check "correlated subqueries in projection and where" q
    ~tried:[ q; "person0"; "person1"; "person1" ];
  let q =
    "select x.name from x in person0 where x.salary > max(select y.salary \
     from y in person1)"
  in
  check "uncorrelated subquery in where" q
    ~tried:
      [
        q;
        "person0";
        "max(select y.salary from y in person1)";
        "select y.salary from y in person1";
        "person1";
      ];
  let q =
    "select struct(a: x.name, b: 1, c: 2) from x in person0, y in person1 \
     where x.salary > 3 and 4 = x.id order by x.salary + 5, 6 + x.id desc"
  in
  check "projection, where and order by" q
    ~tried:[ q; "person0"; "person1"; "5"; "6"; "4"; "3"; "1"; "2" ];
  let q =
    "select y.name from y in (select x from x in person0 where x.salary > \
     10), z in person1 where y.id = z.id"
  in
  check "nested selects" q
    ~tried:
      [
        q;
        "select x from x in person0 where x.salary > 10";
        "person0";
        "10";
        "person1";
      ];
  let q =
    "flatten(select (select z.name from z in person1 where z.id = x.id) from \
     x in person0)"
  in
  check "nested select in a projection" q
    ~tried:
      [
        q;
        "select (select z.name from z in person1 where z.id = x.id) from x in \
         person0";
        "person0";
        "person1";
      ];
  let q = "count(person0) + count(person1) - 1" in
  check "bare extents" q
    ~tried:
      [
        q;
        "1";
        "count(person0) + count(person1)";
        "count(person1)";
        "person1";
        "count(person0)";
        "person0";
      ];
  let q = "sum(select y.salary from y in person1) + count(person0)" in
  check "a rewritten subtree is left alone" q
    ~rewrite:[ "select y.salary from y in person1" ]
    ~tried:
      [
        q;
        "count(person0)";
        "person0";
        "sum(select y.salary from y in person1)";
        "select y.salary from y in person1";
      ]
    ~result:"sum(0) + count(person0)"

(* -- wrapper capability fallback -- *)

(* A lying wrapper: advertises full capability, refuses everything but
   get. The mediator must fall back and still answer. *)
let liar_mediator ?(config = Mediator.Config.default) rows =
  let lying =
    Wrapper.make ~name:"WrapperLiar"
      ~grammar:Disco_wrapper.Grammar.full_relational
      ~execute:(fun source e ->
        match e with
        | Disco_algebra.Expr.Get _ ->
            Wrapper.execute (Wrapper.scan_wrapper ()) source e
        | _ -> Error (Wrapper.Refused "liar"))
      ()
  in
  let m = Mediator.create ~config ~name:"m1" () in
  Mediator.register_source m ~name:"r0" (paper_source ~id:0 ~host:"rodin" rows);
  Mediator.register_wrapper m ~name:"w0" lying;
  Mediator.load_odl m
    {|
    r0 := Repository(host="rodin", name="db", address="x");
    w0 := WrapperCustom();
    interface Person (extent person) {
      attribute String name;
      attribute Short salary; }
    extent person0 of Person wrapper w0 repository r0;
  |};
  m

let test_runtime_fallback_on_refusal () =
  let m = liar_mediator [ person_row 1 "Mary" 200 ] in
  let o = Mediator.query m "select x.name from x in person where x.salary > 10" in
  Alcotest.(check bool) "fallback used" true o.Mediator.fallback;
  Alcotest.check check_value "still answered" (V.bag [ V.String "Mary" ]) (complete o)

(* A hybrid fragment the wrapper refuses takes the compiled path's
   fallback: replanned without pushdown, counted once, and planned
   through the plan cache like any compiled query. *)
let test_fragment_fallback_on_refusal () =
  let rows =
    [ person_row 1 "Mary" 200; person_row 2 "Sam" 5; person_row 3 "Zoe" 80 ]
  in
  let metrics = Disco_obs.Metrics.create () in
  let traces = ref [] in
  let m =
    liar_mediator
      ~config:
        {
          Mediator.Config.default with
          metrics;
          trace_sink = Some (fun tr -> traces := tr :: !traces);
        }
      rows
  in
  let q = "sum(select x.salary from x in person where x.salary > 10)" in
  let reference =
    let person =
      V.bag
        (List.map
           (fun r -> V.strct [ ("name", r.(1)); ("salary", r.(2)) ])
           rows)
    in
    Disco_oql.Eval.eval_string
      (Disco_oql.Eval.env
         ~resolve:(function "person" -> Some person | _ -> None)
         ())
      q
  in
  let fallbacks () =
    Disco_obs.Metrics.find_counter metrics "mediator.capability_fallback"
  in
  let o = Mediator.query m q in
  Alcotest.check check_value "complete and equal to Eval" reference (complete o);
  Alcotest.(check int) "one capability fallback" 1 (fallbacks ());
  Alcotest.(check bool) "reported on the outcome" true o.Mediator.fallback;
  ignore (Mediator.query m q);
  let rec plan_cache (span : Disco_obs.Trace.span) =
    if span.s_name = "optimize" then List.assoc_opt "plan_cache" span.s_meta
    else List.find_map plan_cache span.s_children
  in
  Alcotest.(check (list (option string)))
    "optimize spans: miss, then hit"
    [ Some "miss"; Some "hit" ]
    (List.rev_map (fun tr -> plan_cache tr.Disco_obs.Trace.t_root) !traces)

(* Registering a wrapper replaces what [can_push] and the verifier
   resolve, so plans cached against the old wrapper must go: a stale plan
   would push the select into a scan-only wrapper, be refused, and fall
   back after a wasted round trip. *)
let test_register_wrapper_drops_cached_plans () =
  let m = Mediator.create ~name:"rw" () in
  Mediator.register_source m ~name:"r0"
    (paper_source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ]);
  Mediator.load_odl m
    {|
    r0 := Repository(host="rodin", name="db", address="x");
    w0 := WrapperPostgres();
    interface Person (extent person) {
      attribute String name;
      attribute Short salary; }
    extent person0 of Person wrapper w0 repository r0;
  |};
  let q = "select x.name from x in person where x.salary > 10" in
  let o1 = Mediator.query m q in
  Alcotest.(check bool) "planned" false o1.Mediator.from_cache;
  Mediator.register_wrapper m ~name:"w0" (Wrapper.scan_wrapper ());
  let o2 = Mediator.query m q in
  Alcotest.(check bool) "replanned" false o2.Mediator.from_cache;
  Alcotest.(check bool) "no fallback" false o2.Mediator.fallback;
  let plan =
    match o2.Mediator.plan with
    | Some p -> Plan.to_string p
    | None -> Alcotest.fail "no plan"
  in
  Alcotest.(check bool)
    ("select kept local: " ^ plan)
    true
    (contains plan "mkselect(" && contains plan "exec(r0, get(person0))");
  Alcotest.check check_value "answer" (V.bag [ V.String "Mary" ]) (complete o2)

(* -- a cached plan carries its prepared execs: what invalidates them --

   Each test runs one text twice (a miss, then a hit), applies a change
   between that hit and a third run, and expects the third run to be
   replanned and to answer as a fresh mediator with the change applied. *)

let after_two_hits ~build ~change q =
  let m = build () in
  ignore (Mediator.query m q);
  Alcotest.(check bool) "second run is a plan-cache hit" true
    (Mediator.query m q).Mediator.from_cache;
  change m;
  let after = Mediator.query m q in
  let fresh =
    let f = build () in
    change f;
    Mediator.query f q
  in
  Alcotest.(check bool) "replanned after the change" false
    after.Mediator.from_cache;
  Alcotest.check check_value "answers as a fresh mediator" (complete fresh)
    (complete after);
  Alcotest.(check int) "execs as a fresh mediator"
    fresh.Mediator.stats.Disco_runtime.Runtime.execs_issued
    after.Mediator.stats.Disco_runtime.Runtime.execs_issued;
  complete after

let invalidation_query = "select x.name from x in person where x.salary > 10"

let test_prepared_register_source () =
  let v =
    after_two_hits ~build:paper_mediator
      ~change:(fun m ->
        Mediator.register_source m ~name:"r0"
          (paper_source ~id:0 ~host:"rodin"
             [ person_row 1 "Ann" 300; person_row 2 "Bob" 400 ]))
      invalidation_query
  in
  Alcotest.check check_value "the replacement source's rows"
    (V.bag [ V.String "Ann"; V.String "Bob"; V.String "Sam" ])
    v

let test_prepared_register_wrapper () =
  (* answers every expression with one fixed tuple, so an exec still
     bound to the old wrapper would show *)
  let fixed =
    Wrapper.make ~name:"WrapperFixed"
      ~grammar:(Wrapper.functionality (Wrapper.scan_wrapper ()))
      ~execute:(fun _ _ ->
        Ok
          ( V.bag
              [
                V.strct [ ("name", V.String "Fixed"); ("salary", V.Int 999) ];
              ],
            1 ))
      ()
  in
  let v =
    after_two_hits ~build:paper_mediator
      ~change:(fun m -> Mediator.register_wrapper m ~name:"w0" fixed)
      invalidation_query
  in
  Alcotest.check check_value "the new wrapper's answers"
    (V.bag [ V.String "Fixed"; V.String "Fixed" ])
    v

let test_prepared_declare_index () =
  ignore
    (after_two_hits ~build:paper_mediator
       ~change:(fun m ->
         Mediator.declare_index m ~repo:"r0" ~table:"person0" ~column:"salary"
           ~kind:`Sorted)
       invalidation_query)

let test_prepared_load_odl_map () =
  (* a third Person extent whose source names the fields differently:
     its execs need a renamer that is not the identity *)
  let v =
    after_two_hits ~build:paper_mediator
      ~change:(fun m ->
        let db = Database.create ~name:"db" in
        let schema =
          Disco_relation.Schema.make
            [
              ("nom", Disco_relation.Schema.TString);
              ("paie", Disco_relation.Schema.TInt);
            ]
        in
        ignore
          (Datagen.table_of db ~name:"staff" schema
             [ [| V.String "Zoe"; V.Int 70 |]; [| V.String "Yan"; V.Int 5 |] ]);
        Mediator.register_source m ~name:"r2"
          (Source.create ~id:"src2" ~address:(addr "h2") (Source.Relational db));
        Mediator.load_odl m
          {|r2 := Repository(host="h2", name="db", address="x");
            extent person2 of Person wrapper w0 repository r2
              map ((staff=person2),(nom=name),(paie=salary));|})
      invalidation_query
  in
  Alcotest.check check_value "renamed rows included"
    (V.bag [ V.String "Mary"; V.String "Sam"; V.String "Zoe" ])
    v

(* [type_check] is per query, not part of the plan key: one cached entry
   serves both settings, each with its own behaviour. *)
let test_prepared_type_check_toggle () =
  let m = Mediator.create ~name:"m" () in
  let db = Database.create ~name:"db" in
  let schema =
    Disco_relation.Schema.make
      [
        ("name", Disco_relation.Schema.TString);
        ("salary", Disco_relation.Schema.TInt);
        ("extra", Disco_relation.Schema.TInt);
      ]
  in
  ignore
    (Datagen.table_of db ~name:"person0" schema
       [ [| V.String "X"; V.Int 1; V.Int 2 |] ]);
  Mediator.register_source m ~name:"r0"
    (Source.create ~id:"s" ~address:(addr "h") (Source.Relational db));
  Mediator.load_odl m
    {|r0 := Repository(host="h", name="db", address="x");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0;|};
  let q = "select x from x in person0" in
  let unchecked () = Mediator.query ~opts:(qopts ()) m q in
  let checked_fails label =
    match Mediator.query ~opts:(qopts ~type_check:true ()) m q with
    | _ -> Alcotest.failf "%s: expected a type mismatch" label
    | exception
        (Disco_runtime.Runtime.Runtime_error msg | Mediator.Mediator_error msg)
      ->
        Alcotest.(check bool) (label ^ ": mentions mismatch") true
          (contains msg "mismatch")
  in
  let o = unchecked () in
  Alcotest.(check int) "unchecked: one tuple" 1 (V.cardinal (complete o));
  let o = unchecked () in
  Alcotest.(check bool) "unchecked: a hit" true o.Mediator.from_cache;
  checked_fails "checked after unchecked hits";
  let o = unchecked () in
  Alcotest.(check bool) "unchecked again: a hit" true o.Mediator.from_cache;
  Alcotest.(check int) "unchecked again: one tuple" 1 (V.cardinal (complete o));
  checked_fails "checked again"

(* A custom wrapper registered via the API: the optimizer must push what
   its grammar allows (project) and keep the rest (select) local. *)
let test_custom_wrapper_capability () =
  let custom =
    Wrapper.make ~name:"WrapperCustomProject"
      ~grammar:Disco_wrapper.Grammar.project_no_compose
      ~execute:(fun source e ->
        Wrapper.execute (Wrapper.project_wrapper ()) source e)
      ()
  in
  let m = Mediator.create ~name:"cw" () in
  let rows = List.init 50 (fun i -> person_row i (Fmt.str "p%d" i) i) in
  Mediator.register_source m ~name:"r0" (paper_source ~id:0 ~host:"h" rows);
  Mediator.register_wrapper m ~name:"w0" custom;
  Mediator.load_odl m
    {|r0 := Repository(host="h", name="db", address="0");
      w0 := WrapperCustomProject();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0;|};
  (* pure projection: pushed, ships all 50 single-column tuples *)
  let o1 = Mediator.query m "select x.name from x in person" in
  Alcotest.(check int) "projection pushed" 50
    o1.Mediator.stats.Disco_runtime.Runtime.tuples_shipped;
  (match o1.Mediator.plan with
  | Some plan -> (
      match Plan.all_source_exprs plan with
      | [ ("r0", Disco_algebra.Expr.Project (Disco_algebra.Expr.Get "person0", [ "name" ])) ] ->
          ()
      | _ -> Alcotest.fail ("project not pushed: " ^ Plan.to_string plan))
  | None -> Alcotest.fail "expected compiled plan");
  (* a filter cannot push: the select runs on the mediator over a scan *)
  let o2 = Mediator.query m "select x.name from x in person where x.salary > 48" in
  Alcotest.(check int) "one row answer" 1
    (V.cardinal (complete o2));
  Alcotest.(check int) "scan shipped everything" 50
    o2.Mediator.stats.Disco_runtime.Runtime.tuples_shipped

(* -- pushdown shape: scan wrapper ships everything, sql wrapper filters
   at the source -- *)

let test_pushdown_tuples_shipped () =
  let run wrapper_ctor =
    let m = Mediator.create ~name:"m" () in
    let rows = List.init 100 (fun i -> person_row i (Fmt.str "p%d" i) i) in
    Mediator.register_source m ~name:"r0" (paper_source ~id:0 ~host:"h" rows);
    Mediator.load_odl m
      (Fmt.str
         {|r0 := Repository(host="h", name="db", address="x");
           w0 := %s();
           interface Person (extent person) {
             attribute Short id;
             attribute String name;
             attribute Short salary; }
           extent person0 of Person wrapper w0 repository r0;|}
         wrapper_ctor);
    let o = Mediator.query m "select x.name from x in person where x.salary > 90" in
    (V.cardinal (complete o), o.Mediator.stats.Disco_runtime.Runtime.tuples_shipped)
  in
  let n_sql, shipped_sql = run "WrapperPostgres" in
  let n_scan, shipped_scan = run "WrapperScan" in
  Alcotest.(check int) "same answer size" n_sql n_scan;
  Alcotest.(check int) "sql ships only matches" 9 shipped_sql;
  Alcotest.(check int) "scan ships everything" 100 shipped_scan

(* -- run-time type check -- *)

let test_type_check_detects_mismatch () =
  let m = Mediator.create ~name:"m" () in
  (* source stores a relation whose fields do not match Person *)
  let db = Database.create ~name:"db" in
  let schema =
    Disco_relation.Schema.make
      [ ("nom", Disco_relation.Schema.TString); ("paie", Disco_relation.Schema.TInt) ]
  in
  ignore (Datagen.table_of db ~name:"person0" schema [ [| V.String "X"; V.Int 1 |] ]);
  Mediator.register_source m ~name:"r0"
    (Source.create ~id:"s" ~address:(addr "h") (Source.Relational db));
  Mediator.load_odl m
    {|r0 := Repository(host="h", name="db", address="x");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0;|};
  try
    ignore (Mediator.query ~opts:(qopts ~type_check:true ()) m "select x from x in person0");
    Alcotest.fail "expected type mismatch"
  with Disco_runtime.Runtime.Runtime_error msg | Mediator.Mediator_error msg ->
    Alcotest.(check bool) "mentions mismatch" true (contains msg "mismatch")

(* -- maintenance models (E3 sanity) -- *)

let test_maintenance_models () =
  let d10 = Maintenance.disco ~n:10 and d50 = Maintenance.disco ~n:50 in
  Alcotest.(check int) "disco query constant" d10.Maintenance.query_size
    d50.Maintenance.query_size;
  Alcotest.(check int) "disco one statement" 1 d50.Maintenance.statements;
  let u10 = Maintenance.explicit_union ~n:10
  and u50 = Maintenance.explicit_union ~n:50 in
  Alcotest.(check bool) "union query grows" true
    (u50.Maintenance.query_size > u10.Maintenance.query_size);
  let g50 = Maintenance.global_schema ~n:50 in
  Alcotest.(check int) "global schema touches all" 50
    g50.Maintenance.redefined_entities;
  (* the generated texts actually parse *)
  ignore (Disco_oql.Parser.parse (Maintenance.explicit_union_query ~n:20));
  ignore (Disco_oql.Parser.parse (Maintenance.disco_query ~n:20))

(* -- catalog and composition (Figure 1) -- *)

let test_catalog () =
  let m = paper_mediator () in
  let c = Catalog.create ~name:"c0" in
  Mediator.register_in_catalog m c;
  (match Catalog.lookup c Catalog.Mediator "m0" with
  | Some e -> Alcotest.(check string) "owner" "m0" e.Catalog.e_owner
  | None -> Alcotest.fail "mediator not registered");
  let peer = Catalog.create ~name:"c1" in
  Catalog.add_peer peer c;
  (match Catalog.lookup peer Catalog.Repository "r0" with
  | Some _ -> ()
  | None -> Alcotest.fail "peer lookup failed");
  let counts = Catalog.overview peer in
  Alcotest.(check bool) "overview sees repositories" true
    (List.assoc_opt Catalog.Repository counts = Some 2)

let test_mediator_composition () =
  (* child mediator owns the two person sources; parent re-exports the
     implicit extent through a mediator-wrapper (A -> M -> M -> W -> D). *)
  let child = paper_mediator () in
  let parent = Mediator.create ~config:{ Mediator.Config.default with clock = Some (Mediator.clock child) } ~name:"parent" () in
  let src, wrap = Composition.as_source child in
  Mediator.register_source parent ~name:"rm" src;
  Mediator.register_wrapper parent ~name:"wm" wrap;
  Mediator.load_odl parent
    {|
    rm := Repository(host="child", name="mediator", address="mediator://");
    wm := WrapperMediator();
    interface Person (extent people) {
      attribute String name;
      attribute Short salary; }
    extent person of Person wrapper wm repository rm;
  |};
  let v =
    complete
      (Mediator.query parent "select x.name from x in people where x.salary > 10")
  in
  Alcotest.check check_value "through two mediators"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    v

(* -- explain -- *)

let test_explain () =
  let m = paper_mediator () in
  let text = Mediator.explain m "select x.name from x in person where x.salary > 10" in
  Alcotest.(check bool) "shows exec" true (contains text "exec");
  let hybrid = Mediator.explain m "sum(select x.salary from x in person)" in
  Alcotest.(check bool) "hybrid notice" true (contains hybrid "hybrid")

(* With no recorded costs every exec estimates at time 0 / data 1; a
   keyed join across two sources is then implemented as a hash join. *)
let test_cold_keyed_join_is_hash_join () =
  let m = paper_mediator () in
  let q =
    "select struct(a: x.name, b: y.name) from x in person0, y in person1 \
     where x.id = y.id"
  in
  let text = Mediator.explain m q in
  Alcotest.(check bool) ("hash join in: " ^ text) true
    (contains text
       "hashjoin(exec(r0, map(struct(x: @elem), get(person0))), exec(r1, \
        map(struct(y: @elem), get(person1))))");
  Alcotest.check check_value "joined on id"
    (V.bag [ V.strct [ ("a", V.String "Mary"); ("b", V.String "Sam") ] ])
    (complete (Mediator.query m q))

(* -- hybrid partial answers -- *)

let test_hybrid_partial_answer () =
  let m = paper_mediator () in
  (match Mediator.find_source m "r1" with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ());
  (* correlated aggregate: not algebra-compilable, hybrid path *)
  let o =
    Mediator.query ~opts:(qopts ~timeout_ms:50.0 ()) m
      "select struct(n: x.name, t: sum(select z.salary from z in person0 \
       where z.id = x.id)) from x in person"
  in
  match o.Mediator.answer with
  | Mediator.Partial { unavailable; _ } as p ->
      let oql = Mediator.answer_oql p in
      Alcotest.(check (list string)) "r1 down" [ "r1" ] unavailable;
      Alcotest.(check bool) "mentions person1" true (contains oql "person1");
      (* materialized person0 is inlined as data *)
      Alcotest.(check bool) "person0 inlined" true (contains oql "Mary");
      (* recovery: resubmit gives the full answer *)
      (match Mediator.find_source m "r1" with
      | Some src -> Source.set_schedule src Schedule.always_up
      | None -> ());
      let v = complete (Mediator.resubmit m o.Mediator.answer) in
      Alcotest.(check int) "two rows" 2 (V.cardinal v)
  | _ -> Alcotest.fail "expected hybrid partial"

(* -- end-to-end property: the full engine (compile, pushdown, SQL,
   wrappers, runtime) agrees with the reference evaluator -- *)

let prop_engine_matches_reference =
  let gen =
    QCheck.Gen.(
      let* threshold = int_range 0 300 in
      let* shape = int_range 0 6 in
      return
        (match shape with
        | 0 -> Fmt.str "select x.name from x in person where x.salary > %d" threshold
        | 1 -> Fmt.str "select struct(n: x.name, s: x.salary * 2) from x in person where x.salary <= %d" threshold
        | 2 -> Fmt.str "select distinct x.salary from x in person where x.salary != %d" threshold
        | 3 -> "select struct(a: x.name, b: y.name) from x in person0, y in person1 where x.id = y.id"
        | 4 -> Fmt.str "count(select p from p in person where p.salary < %d)" threshold
        (* single extent: the distinct is pushed whole into SQL *)
        | 5 -> Fmt.str "select distinct x.salary from x in person0 where x.salary != %d" threshold
        | _ -> Fmt.str "sum(select p.salary from p in person where p.salary >= %d)" threshold))
  in
  QCheck.Test.make ~name:"engine agrees with the reference evaluator"
    ~count:100
    (QCheck.make ~print:Fun.id gen)
    (fun q ->
      let m = Mediator.create ~name:"prop" () in
      Mediator.register_source m ~name:"r0"
        (paper_source ~id:0 ~host:"a"
           (Datagen.person_rows ~seed:11 ~n:25));
      Mediator.register_source m ~name:"r1"
        (paper_source ~id:1 ~host:"b"
           (Datagen.person_rows ~seed:12 ~n:25));
      Mediator.load_odl m paper_odl;
      let engine =
        match (Mediator.query m q).Mediator.answer with
        | Mediator.Complete v -> v
        | _ -> QCheck.assume_fail ()
      in
      let table name =
        match Mediator.find_source m (if name = "person0" then "r0" else "r1") with
        | Some src -> (
            match Source.kind src with
            | Source.Relational db ->
                Option.map Disco_relation.Table.to_bag
                  (Database.find_table db name)
            | _ -> None)
        | None -> None
      in
      let resolve = function
        | "person0" -> table "person0"
        | "person1" -> table "person1"
        | "person" -> (
            match (table "person0", table "person1") with
            | Some a, Some b -> Some (V.bag_union a b)
            | _ -> None)
        | _ -> None
      in
      let reference =
        Disco_oql.Eval.eval_string (Disco_oql.Eval.env ~resolve ()) q
      in
      V.equal engine reference)

let test_validate_views () =
  let m = paper_mediator () in
  Mediator.load_odl m
    {|define good as select p.name from p in person;
      define bad as select p.age from p in person;|};
  let errors = Mediator.validate_views m in
  Alcotest.(check int) "one bad view" 1 (List.length errors);
  match errors with
  | [ ("bad", msg) ] ->
      Alcotest.(check bool) "mentions the attribute" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected the bad view flagged"

(* -- scale stress: 64 sources, mixed availability -- *)

(* A long hybrid query costs time linear in its size: the fragment
   search computes each node's free names once, and a compile rejection
   names the offending construct rather than printing its subtree. A deep
   nested select compiles in linear time too: the dependent-binding check
   reads each [from] collection's free names off one bottom-up pass. The
   bound is generous: each query runs in well under a second. *)
let test_long_hybrid_queries () =
  let chain ~n term = String.concat " + " (List.init n (fun _ -> term)) in
  (* count(select x0 from x0 in (select x1 from x1 in (... (person0)))) *)
  let nested ~n =
    let b = Buffer.create (n * 32) in
    Buffer.add_string b "count(";
    for i = 0 to n - 1 do
      Printf.bprintf b "select x%d from x%d in (" i i
    done;
    Buffer.add_string b "person0";
    Buffer.add_string b (String.make (n + 1) ')');
    Buffer.contents b
  in
  let check ?(m = paper_mediator ()) name q ~answer ~execs =
    let t0 = Unix.gettimeofday () in
    let o = Mediator.query m q in
    let wall_s = Unix.gettimeofday () -. t0 in
    Alcotest.check check_value (name ^ ": answer") answer (complete o);
    Alcotest.(check int) (name ^ ": execs") execs
      o.Mediator.stats.Disco_runtime.Runtime.execs_issued;
    Alcotest.(check bool)
      (Fmt.str "%s: %.2f s is within 3 s" name wall_s)
      true (wall_s < 3.0)
  in
  check "32,000-term 1 + ... + 1" (chain ~n:32_000 "1") ~answer:(V.Int 32_000)
    ~execs:0;
  check "4,000-term count(person0) + ..." (chain ~n:4_000 "count(person0)")
    ~answer:(V.Int 4_000) ~execs:4_000;
  let rows = Datagen.person_rows ~seed:1 ~n:10 in
  let m = Mediator.create ~name:"m0" () in
  Mediator.register_source m ~name:"r0" (paper_source ~id:0 ~host:"rodin" rows);
  Mediator.register_source m ~name:"r1"
    (paper_source ~id:1 ~host:"umiacs" [ person_row 1 "Sam" 50 ]);
  Mediator.load_odl m paper_odl;
  let q = nested ~n:8_000 in
  let reference =
    let person0 =
      V.bag
        (List.map
           (fun r -> V.strct [ ("id", r.(0)); ("name", r.(1)); ("salary", r.(2)) ])
           rows)
    in
    Disco_oql.Eval.eval_string
      (Disco_oql.Eval.env
         ~resolve:(function "person0" -> Some person0 | _ -> None)
         ())
      q
  in
  Alcotest.check check_value "Eval counts person0's rows" (V.Int 10) reference;
  check ~m "8,000-level nested select" q ~answer:reference ~execs:1

(* Maximal pushdown sends a join of three extents held by one SQL
   repository to it as one exec; the source runs it on its columnar
   executor (hash probes in FROM order), not as a row-at-a-time product
   of 300^3 tuples. *)
let test_three_way_join_one_exec () =
  let m = Mediator.create ~name:"m3" () in
  let extents = [ ("pa", 1); ("pb", 2); ("pc", 3) ] in
  let db = Database.create ~name:"db" in
  let rows =
    List.map
      (fun (name, seed) ->
        let rows = Datagen.person_rows ~seed ~n:300 in
        ignore (Datagen.table_of db ~name Datagen.person_schema rows);
        (name, rows))
      extents
  in
  Mediator.register_source m ~name:"r0"
    (Source.create ~id:"src0" ~address:(addr "h")
       ~latency:{ Source.base_ms = 5.0; per_row_ms = 0.0; jitter = 0.0 }
       (Source.Relational db));
  Mediator.load_odl m
    {|r0 := Repository(host="h", name="db", address="0");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent pa of Person wrapper w0 repository r0;
      extent pb of Person wrapper w0 repository r0;
      extent pc of Person wrapper w0 repository r0;|};
  let q =
    "select struct(a: x.id, c: z.name) from x in pa, y in pb, z in pc where \
     x.id = y.id and y.id = z.id and x.salary > 100"
  in
  (* The same join with each condition moved into the scan it restricts:
     [Eval] then visits 300 * 300 * 2 tuples instead of 300^3. *)
  let nested =
    "select struct(a: x.id, c: z.name) from x in pa, y in (select y from y \
     in pb where y.id = x.id), z in (select z from z in pc where z.id = \
     y.id) where x.salary > 100"
  in
  let eval ~n q =
    let extent rows =
      V.bag
        (List.filteri
           (fun i _ -> i < n)
           (List.map
              (fun r ->
                V.strct [ ("id", r.(0)); ("name", r.(1)); ("salary", r.(2)) ])
              rows))
    in
    Disco_oql.Eval.eval_string
      (Disco_oql.Eval.env
         ~resolve:(fun name -> Option.map extent (List.assoc_opt name rows))
         ())
      q
  in
  Alcotest.check check_value "the two forms agree on 40-row prefixes"
    (eval ~n:40 q) (eval ~n:40 nested);
  let reference = eval ~n:300 nested in
  let t0 = Unix.gettimeofday () in
  let o = Mediator.query m q in
  let wall_s = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "the answer has rows" true (V.cardinal reference > 100);
  Alcotest.check check_value "answer = Eval's" reference (complete o);
  Alcotest.(check int) "one exec" 1
    o.Mediator.stats.Disco_runtime.Runtime.execs_issued;
  Alcotest.(check bool)
    (Fmt.str "%.3f s is within 1 s" wall_s)
    true (wall_s < 1.0)

let test_scale_64_sources () =
  let m = Mediator.create ~name:"big" () in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for i = 0 to 63 do
    Mediator.register_source m ~name:(Fmt.str "r%d" i)
      (paper_source ~id:i ~host:(Fmt.str "h%d" i)
         (Datagen.person_rows ~seed:(3000 + i) ~n:20));
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="h%d", name="db", address="0");
           extent person%d of Person wrapper w0 repository r%d;|}
         i i i i)
  done;
  (* all up: full answer over 64 sources *)
  let q = "select x.name from x in person where x.salary > 400" in
  let reference = complete (Mediator.query m q) in
  Alcotest.(check bool) "non-trivial answer" true (V.cardinal reference > 50);
  (* a third of the fleet goes down: partial, then recovery equivalence *)
  for i = 0 to 63 do
    if i mod 3 = 0 then
      match Mediator.find_source m (Fmt.str "r%d" i) with
      | Some src -> Source.set_schedule src Schedule.always_down
      | None -> ()
  done;
  Mediator.clear_plan_cache m;
  let o = Mediator.query ~opts:(qopts ~timeout_ms:50.0 ()) m q in
  (match o.Mediator.answer with
  | Mediator.Partial { unavailable; _ } ->
      Alcotest.(check int) "22 sources down" 22 (List.length unavailable);
      for i = 0 to 63 do
        match Mediator.find_source m (Fmt.str "r%d" i) with
        | Some src -> Source.set_schedule src Schedule.always_up
        | None -> ()
      done;
      let v = complete (Mediator.resubmit m o.Mediator.answer) in
      Alcotest.check check_value "recovery equals reference" reference v
  | _ -> Alcotest.fail "expected partial");
  ()

(* Allocation guard: a cached plan's execs were prepared when the plan
   was cached (bindings, translations, renamers, cost-model keys), so a
   hit only chooses a live copy, dials, completes and records each one.
   Over 256 five-row sources a hit must allocate at most 2.0 kwords per
   source; re-deriving the execs on every hit took about 3.1. Minor
   words count allocation, not time, so the bound is deterministic. *)
let test_hit_allocation_per_source () =
  let n = 256 in
  let m = Mediator.create ~name:"alloc" () in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for i = 0 to n - 1 do
    let name = Fmt.str "person%d" i in
    let db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of db ~name Datagen.person_schema
         (Datagen.person_rows ~seed:(42 + i) ~n:5));
    Mediator.register_source m ~name:(Fmt.str "r%d" i)
      (Source.create ~id:name ~address:(addr (Fmt.str "site%d" i))
         (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="site%d", name="db", address="0");
           extent person%d of Person wrapper w0 repository r%d;|}
         i i i i)
  done;
  let q = "select x.name from x in person where x.salary > 300 and x.id < 50" in
  (* the first run plans; three more warm the hit path *)
  for _ = 0 to 3 do
    ignore (complete (Mediator.query m q))
  done;
  let hits = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to hits do
    let o = Mediator.query m q in
    if not o.Mediator.from_cache then Alcotest.fail "expected a plan-cache hit"
  done;
  let kwords =
    (Gc.minor_words () -. before) /. float_of_int (hits * n) /. 1000.0
  in
  if kwords > 2.0 then
    Alcotest.failf "a hit allocates %.2f kwords per source (bound 2.0)" kwords

let () =
  Alcotest.run "disco_core"
    [
      ( "paper-examples",
        [
          Alcotest.test_case "Section 1.2 query" `Quick test_paper_intro_query;
          Alcotest.test_case "explicit extents" `Quick test_explicit_extents;
          Alcotest.test_case "add source, same query" `Quick
            test_add_source_same_query;
          Alcotest.test_case "metaextent" `Quick test_metaextent_query;
          Alcotest.test_case "repositories/wrappers collections" `Quick
            test_meta_collections;
          Alcotest.test_case "order by through mediator" `Quick
            test_order_by_through_mediator;
          Alcotest.test_case "like operator" `Quick test_like_operator;
          Alcotest.test_case "like capability" `Quick
            test_like_not_in_weak_wrapper_grammar;
        ] );
      ( "partial-evaluation",
        [
          Alcotest.test_case "paper partial answer form" `Quick
            test_partial_answer_paper_form;
          Alcotest.test_case "semantics variants" `Quick test_semantics_variants;
          Alcotest.test_case "hybrid partial answer" `Quick
            test_hybrid_partial_answer;
          Alcotest.test_case "skip respects replicas" `Quick
            test_skip_respects_replicas;
          Alcotest.test_case "order by partial" `Quick test_order_by_partial;
          Alcotest.test_case "null semantics on hybrid" `Quick
            test_null_semantics_hybrid;
          Alcotest.test_case "wait-all on hybrid" `Quick test_wait_all_hybrid;
        ] );
      ( "modeling",
        [
          Alcotest.test_case "type maps" `Quick test_type_map_end_to_end;
          Alcotest.test_case "value-transform maps" `Quick
            test_value_transform_map;
          Alcotest.test_case "same-repo join with maps" `Quick
            test_same_repo_join_with_maps;
          Alcotest.test_case "kv source with map" `Quick test_kv_with_map;
          Alcotest.test_case "subtyping and star" `Quick test_subtype_star;
          Alcotest.test_case "views double/multiple" `Quick
            test_views_double_multiple;
          Alcotest.test_case "views over views, cycles" `Quick
            test_view_over_view_and_cycles;
          Alcotest.test_case "personnew reconciliation" `Quick
            test_personnew_reconciliation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "hybrid fragment pushdown" `Quick
            test_hybrid_fragment_pushdown;
          Alcotest.test_case "hybrid fragment partial" `Quick
            test_hybrid_fragment_partial;
          Alcotest.test_case "hybrid fragment runs once" `Quick
            test_hybrid_fragment_runs_once;
          Alcotest.test_case "hybrid fragment search order" `Quick
            test_hybrid_fragment_search_order;
          Alcotest.test_case "semijoin reduction" `Quick test_semijoin_reduction;
          Alcotest.test_case "explain shows the cached plan" `Quick
            test_explain_shows_cached_plan;
          Alcotest.test_case "semijoin degrades on outage" `Quick
            test_semijoin_partial_degrades;
          Alcotest.test_case "replica failover" `Quick test_replica_failover;
          Alcotest.test_case "replica needs a source" `Quick
            test_replica_requires_attached_source;
          Alcotest.test_case "plan cache" `Quick test_plan_cache;
          Alcotest.test_case "plan key: load_odl replans" `Quick
            test_key_load_odl_replans;
          Alcotest.test_case "plan key: static_check" `Quick
            test_key_static_check;
          Alcotest.test_case "plan key: skip_sources outage" `Quick
            test_key_skip_sources_tracks_outage;
          Alcotest.test_case "plan key: text vs fragment" `Quick
            test_key_text_vs_fragment;
          Alcotest.test_case "plan key: explain and query share" `Quick
            test_key_explain_and_query_share;
          Alcotest.test_case "plan key: repeated hybrid" `Quick
            test_key_repeated_hybrid;
          Alcotest.test_case "per-source stats" `Quick test_source_stats;
          Alcotest.test_case "fallback on wrapper refusal" `Quick
            test_runtime_fallback_on_refusal;
          Alcotest.test_case "fragment fallback on wrapper refusal" `Quick
            test_fragment_fallback_on_refusal;
          Alcotest.test_case "register_wrapper drops cached plans" `Quick
            test_register_wrapper_drops_cached_plans;
          Alcotest.test_case "prepared: register_source" `Quick
            test_prepared_register_source;
          Alcotest.test_case "prepared: register_wrapper" `Quick
            test_prepared_register_wrapper;
          Alcotest.test_case "prepared: declare_index" `Quick
            test_prepared_declare_index;
          Alcotest.test_case "prepared: load_odl adds a field map" `Quick
            test_prepared_load_odl_map;
          Alcotest.test_case "prepared: type_check toggled" `Quick
            test_prepared_type_check_toggle;
          Alcotest.test_case "pushdown tuples shipped" `Quick
            test_pushdown_tuples_shipped;
          Alcotest.test_case "custom wrapper capability" `Quick
            test_custom_wrapper_capability;
          Alcotest.test_case "run-time type check" `Quick
            test_type_check_detects_mismatch;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "cold keyed join is a hash join" `Quick
            test_cold_keyed_join_is_hash_join;
        ] );
      ( "system",
        [
          QCheck_alcotest.to_alcotest prop_engine_matches_reference;
          Alcotest.test_case "view validation" `Quick test_validate_views;
          Alcotest.test_case "maintenance models" `Quick test_maintenance_models;
          Alcotest.test_case "catalog" `Quick test_catalog;
          Alcotest.test_case "mediator composition" `Quick
            test_mediator_composition;
          Alcotest.test_case "scale: 64 sources" `Slow test_scale_64_sources;
          Alcotest.test_case "hit allocation per source" `Quick
            test_hit_allocation_per_source;
          Alcotest.test_case "long hybrid queries are linear" `Quick
            test_long_hybrid_queries;
          Alcotest.test_case "three-way join at one source is one exec"
            `Quick test_three_way_join_one_exec;
        ] );
    ]
