(* Failure-injection tests: outage patterns, mid-run transitions, wrapper
   misbehaviour, map errors — the system must degrade to partial answers
   or clean mediator errors, never crash or return wrong data.

   The central property (paper Section 4) is tested with qcheck over
   random outage subsets: for ANY subset of sources down, the partial
   answer resubmitted after recovery equals the full answer. *)

module V = Disco_value.Value
module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Clock = Disco_source.Clock
module Datagen = Disco_source.Datagen
module Database = Disco_relation.Database
module Wrapper = Disco_wrapper.Wrapper
module Grammar = Disco_wrapper.Grammar
module Expr = Disco_algebra.Expr
module Mediator = Disco_core.Mediator

let qopts ?(timeout_ms = 1000.0) ?(semantics = Mediator.Partial_answers)
    ?(type_check = false) ?(static_check = false) () =
  { Mediator.Query_opts.timeout_ms; semantics; type_check; static_check }

let _check_value = Alcotest.testable V.pp V.equal

let federation ?(n = 6) ?(rows = 8) () =
  let m = Mediator.create ~name:"fail" () in
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
         (Datagen.person_rows ~seed:(500 + i) ~n:rows));
    Mediator.register_source m ~name:(Fmt.str "r%d" i)
      (Source.create ~id:name
         ~address:(Source.address ~host:name ~db_name:"db" ~ip:"0" ())
         ~latency:{ Source.base_ms = 5.0; per_row_ms = 0.0; jitter = 0.0 }
         (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="%s", name="db", address="0");
           extent %s of Person wrapper w0 repository r%d;|}
         i name name i)
  done;
  m

let q = "select x.name from x in person where x.salary > 100"

let set_down m i =
  match Mediator.find_source m (Fmt.str "r%d" i) with
  | Some src -> Source.set_schedule src Schedule.always_down
  | None -> ()

let set_up m i =
  match Mediator.find_source m (Fmt.str "r%d" i) with
  | Some src -> Source.set_schedule src Schedule.always_up
  | None -> ()

(* -- property: resubmission equivalence over random outage subsets -- *)

let prop_resubmission_equivalence =
  QCheck.Test.make ~name:"partial answers resubmit to the full answer"
    ~count:120
    QCheck.(
      pair (int_bound 63)
        (oneofl
           [
             q;
             "select struct(n: x.name, s: x.salary) from x in person where \
              x.salary < 250";
             "count(person)" (* hybrid path *);
             "select distinct x.name from x in person";
             "sum(select x.salary from x in person where x.salary > 100)";
             "count(person0) + count(person5)";
             "select struct(n: x.name, c: count(select y from y in person \
              where y.salary = x.salary)) from x in person where x.salary > \
              400";
           ]))
    (fun (mask, query) ->
      let m = federation () in
      let reference =
        match (Mediator.query m query).Mediator.answer with
        | Mediator.Complete v -> v
        | _ -> QCheck.assume_fail ()
      in
      Mediator.clear_plan_cache m;
      for i = 0 to 5 do
        if mask land (1 lsl i) <> 0 then set_down m i
      done;
      let o = Mediator.query ~opts:(qopts ~timeout_ms:50.0 ()) m query in
      for i = 0 to 5 do
        set_up m i
      done;
      match o.Mediator.answer with
      | Mediator.Complete v ->
          (* no source the query needed was down *)
          V.equal v reference
      | Mediator.Unavailable _ -> false
      | Mediator.Partial _ as partial -> (
          match (Mediator.resubmit m partial).Mediator.answer with
          | Mediator.Complete v -> V.equal v reference
          | _ -> false))

(* -- mid-run transitions -- *)

let test_source_recovers_between_queries () =
  let m = federation ~n:3 () in
  (match Mediator.find_source m "r1" with
  | Some src -> Source.set_schedule src (Schedule.down_during [ (0.0, 100.0) ])
  | None -> ());
  let o1 = Mediator.query ~opts:(qopts ~timeout_ms:20.0 ()) m q in
  (match o1.Mediator.answer with
  | Mediator.Partial { unavailable = [ "r1" ]; _ } -> ()
  | _ -> Alcotest.fail "expected r1 partial");
  (* the deadline advanced the clock; advance beyond recovery *)
  Clock.advance (Mediator.clock m) 200.0;
  match (Mediator.query m q).Mediator.answer with
  | Mediator.Complete _ -> ()
  | _ -> Alcotest.fail "expected recovery"

let test_flapping_source () =
  let m = federation ~n:2 () in
  (match Mediator.find_source m "r0" with
  | Some src ->
      Source.set_schedule src
        (Schedule.flaky ~seed:3 ~period:50.0 ~availability:0.5)
  | None -> ());
  (* many queries against a flapping source: always an answer, never a
     crash, and partials always resubmittable text *)
  for _ = 1 to 40 do
    let o = Mediator.query ~opts:(qopts ~timeout_ms:25.0 ()) m q in
    (match o.Mediator.answer with
    | Mediator.Complete _ -> ()
    | Mediator.Partial _ as p ->
        ignore (Disco_oql.Parser.parse (Mediator.answer_oql p))
    | Mediator.Unavailable _ -> Alcotest.fail "unexpected wait-all result");
    Clock.advance (Mediator.clock m) 50.0
  done

(* -- wrapper misbehaviour -- *)

let test_wrapper_raises () =
  (* a wrapper whose execute raises must not kill the mediator: the
     runtime reports it and the mediator falls back, then errors
     cleanly *)
  let bomb =
    Wrapper.make ~name:"WrapperBomb" ~grammar:Grammar.full_relational
      ~execute:(fun _ _ -> Error (Wrapper.Native_error "boom"))
      ()
  in
  let m = federation ~n:1 () in
  Mediator.register_wrapper m ~name:"w0" bomb;
  Mediator.clear_plan_cache m;
  try
    ignore (Mediator.query m q);
    Alcotest.fail "expected a runtime error"
  with Disco_runtime.Runtime.Runtime_error msg ->
    Alcotest.(check bool) "mentions boom" true
      (String.length msg > 0)

let test_wrapper_returns_garbage_shape () =
  (* wrapper returns a non-collection: the runtime's rename passes it
     through and local execution raises a clean error *)
  let weird =
    Wrapper.make ~name:"WrapperWeird" ~grammar:Grammar.get_only
      ~execute:(fun _ _ -> Ok (V.Int 42, 1))
      ()
  in
  let m = federation ~n:1 () in
  Mediator.register_wrapper m ~name:"w0" weird;
  Mediator.clear_plan_cache m;
  match Mediator.query m q with
  | exception Disco_physical.Plan.Physical_error _ -> ()
  | exception Disco_value.Value.Type_error _ -> ()
  | exception Mediator.Mediator_error _ -> ()
  | exception Disco_algebra.Expr.Algebra_error _ -> ()
  | _ -> Alcotest.fail "garbage shape silently accepted"

(* -- schema / map errors -- *)

let test_map_to_missing_source_field () =
  (* the map sends salary to a column the source does not have: the SQL
     wrapper reports it, the mediator falls back, then errors cleanly *)
  let m = federation ~n:1 () in
  Mediator.load_odl m
    {|
    interface PersonPrime {
      attribute String n;
      attribute Short s; }
    extent pp0 of PersonPrime wrapper w0 repository r0
      map ((person0=pp0),(nosuch=n),(missing=s));
  |};
  match Mediator.query m "select x.n from x in pp0 where x.s > 0" with
  | exception Disco_runtime.Runtime.Runtime_error _ -> ()
  | exception Mediator.Mediator_error _ -> ()
  | o -> (
      match o.Mediator.answer with
      | Mediator.Complete _ -> Alcotest.fail "should not succeed"
      | _ -> ())

let test_query_unknown_extent () =
  let m = federation ~n:1 () in
  try
    ignore (Mediator.query m "select x from x in martians");
    Alcotest.fail "expected error"
  with Mediator.Mediator_error msg ->
    Alcotest.(check bool) "names the unknown" true
      (String.length msg > 0)

let test_source_without_attachment () =
  let m = Mediator.create ~name:"na" () in
  Mediator.load_odl m
    {|r0 := Repository(host="h", name="d", address="0");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0;|};
  try
    ignore (Mediator.query m q);
    Alcotest.fail "expected error about missing source"
  with Mediator.Mediator_error msg ->
    Alcotest.(check bool) "mentions repository" true
      (String.length msg > 0)

(* -- data changes between partial answer and resubmission -- *)

let test_stale_hint () =
  let m = federation ~n:2 () in
  set_down m 1;
  let o = Mediator.query ~opts:(qopts ~timeout_ms:20.0 ()) m q in
  (match o.Mediator.answer with
  | Mediator.Partial _ as p ->
      Alcotest.(check (list string)) "nothing stale yet" []
        (Mediator.stale_hint m p)
  | _ -> Alcotest.fail "expected partial");
  (* mutate the answered source, then ask again for the hint *)
  (match Mediator.find_source m "r0" with
  | Some src -> (
      match Source.kind src with
      | Source.Relational db ->
          let t = Database.get_table db "person0" in
          Disco_relation.Table.insert t [| V.Int 99; V.String "New"; V.Int 999 |]
      | _ -> ())
  | None -> ());
  Alcotest.(check (list string)) "answered source now stale" [ "r0" ]
    (Mediator.stale_hint m o.Mediator.answer);
  set_up m 1;
  (* re-running the query gives the fresh complete answer including the
     new row *)
  match (Mediator.query m q).Mediator.answer with
  | Mediator.Complete v ->
      Alcotest.(check bool) "new row visible" true
        (List.exists
           (fun x -> V.equal x (V.String "New"))
           (V.elements v))
  | _ -> Alcotest.fail "expected complete after recovery"

(* When a replica answers for a down primary, the staleness check
   watches the replica that answered. *)
let test_stale_hint_replica () =
  let m = Mediator.create ~name:"stale-replica" () in
  let attach repo table ~seed =
    let db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of db ~name:table Datagen.person_schema
         (Datagen.person_rows ~seed ~n:8));
    Mediator.register_source m ~name:repo
      (Source.create ~id:repo
         ~address:(Source.address ~host:repo ~db_name:"db" ~ip:"0" ())
         ~latency:{ Source.base_ms = 5.0; per_row_ms = 0.0; jitter = 0.0 }
         (Source.Relational db));
    db
  in
  ignore (attach "r0" "person0" ~seed:500);
  let replica_db = attach "r0x" "person0" ~seed:500 in
  ignore (attach "r1" "person1" ~seed:501);
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      r0 := Repository(host="r0", name="db", address="0");
      r0x := Repository(host="r0x", name="db", address="0");
      r1 := Repository(host="r1", name="db", address="0");
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0 replica r0x;
      extent person1 of Person wrapper w0 repository r1;|};
  set_down m 0;
  set_down m 1;
  let o = Mediator.query ~opts:(qopts ~timeout_ms:100.0 ()) m q in
  (match o.Mediator.answer with
  | Mediator.Partial { unavailable; _ } as p ->
      Alcotest.(check (list string)) "only r1 blocked" [ "r1" ] unavailable;
      Alcotest.(check (list string)) "fresh answer: no hint" []
        (Mediator.stale_hint m p)
  | _ -> Alcotest.fail "expected partial");
  Disco_relation.Table.insert
    (Database.get_table replica_db "person0")
    [| V.Int 99; V.String "New"; V.Int 999 |];
  Alcotest.(check (list string)) "replica change flags the answer" [ "r0x" ]
    (Mediator.stale_hint m o.Mediator.answer)

let test_deep_nesting_robustness () =
  (* a deeply nested query exercises parser/eval recursion *)
  let m = federation ~n:1 () in
  let rec nest k inner =
    if k = 0 then inner
    else nest (k - 1) (Fmt.str "(select t from t in %s)" inner)
  in
  let deep = Fmt.str "count(%s)" (nest 30 "person0") in
  match (Mediator.query m deep).Mediator.answer with
  | Mediator.Complete (V.Int 8) -> ()
  | Mediator.Complete v -> Alcotest.fail (V.to_string v)
  | _ -> Alcotest.fail "expected complete"

let () =
  Alcotest.run "disco_failures"
    [
      ( "outage-patterns",
        [
          QCheck_alcotest.to_alcotest prop_resubmission_equivalence;
          Alcotest.test_case "recovery between queries" `Quick
            test_source_recovers_between_queries;
          Alcotest.test_case "flapping source" `Quick test_flapping_source;
        ] );
      ( "wrapper-misbehaviour",
        [
          Alcotest.test_case "wrapper native failure" `Quick test_wrapper_raises;
          Alcotest.test_case "garbage answer shape" `Quick
            test_wrapper_returns_garbage_shape;
        ] );
      ( "schema-errors",
        [
          Alcotest.test_case "map to missing field" `Quick
            test_map_to_missing_source_field;
          Alcotest.test_case "unknown extent" `Quick test_query_unknown_extent;
          Alcotest.test_case "unattached repository" `Quick
            test_source_without_attachment;
        ] );
      ( "staleness-and-depth",
        [
          Alcotest.test_case "data changes after partial" `Quick test_stale_hint;
          Alcotest.test_case "replica data changes after partial" `Quick
            test_stale_hint_replica;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting_robustness;
        ] );
    ]
