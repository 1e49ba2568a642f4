(* Tests for the lib/cache subsystem: the LRU policy, the semantic
   answer cache (normalization, version invalidation, stale serving),
   the mediator integration (fresh hits, Cached_fallback, bounded plan
   cache), and resubmission convergence. *)

module V = Disco_value.Value
module Expr = Disco_algebra.Expr
module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Clock = Disco_source.Clock
module Datagen = Disco_source.Datagen
module Database = Disco_relation.Database
module Table = Disco_relation.Table
module Lru = Disco_cache.Lru
module Answer_cache = Disco_cache.Answer_cache
module Resubmission = Disco_cache.Resubmission
module Mediator = Disco_core.Mediator

let qopts ?(timeout_ms = 1000.0) ?(semantics = Mediator.Partial_answers)
    ?(type_check = false) ?(static_check = false) () =
  { Mediator.Query_opts.timeout_ms; semantics; type_check; static_check }

let check_value = Alcotest.testable V.pp V.equal

(* -- LRU policy -- *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* touch [a]: it becomes most-recently used, so [b] is now the LRU *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Lru.add c "d" 4;
  Alcotest.(check (option int)) "b evicted" None (Lru.peek c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.peek c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.peek c "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check (list string)) "MRU order"
    [ "d"; "a"; "c" ]
    (List.map fst (Lru.to_list c))

let test_lru_replace_and_clear () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "a" 10;
  Alcotest.(check int) "replace is not insert" 1 (Lru.length c);
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.find c "a");
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  Alcotest.(check int) "eviction counted" 1 (Lru.evictions c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check int) "clear preserves eviction count" 1 (Lru.evictions c);
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Lru.create ~capacity:0 ()))

let test_lru_peek_does_not_touch () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* peek must NOT rescue [a] from eviction *)
  Alcotest.(check (option int)) "peek a" (Some 1) (Lru.peek c "a");
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "a evicted despite peek" None (Lru.peek c "a")

(* -- normalization: equivalent spellings share one slot -- *)

let sel pred = Expr.Select (Expr.Get "person0", pred)
let attr a = Expr.Attr [ a ]
let gt a k = Expr.Cmp (Expr.Gt, attr a, Expr.Const (V.Int k))
let lt a k = Expr.Cmp (Expr.Lt, attr a, Expr.Const (V.Int k))

let test_normalize_commutes () =
  let p1 = Expr.And (gt "salary" 10, lt "id" 5)
  and p2 = Expr.And (lt "id" 5, gt "salary" 10) in
  Alcotest.(check string) "conjunct order is canonical"
    (Answer_cache.key ~repo:"r0" (sel p1))
    (Answer_cache.key ~repo:"r0" (sel p2));
  (* x > 10 and 10 < x are the same predicate *)
  let flipped = Expr.Cmp (Expr.Lt, Expr.Const (V.Int 10), attr "salary") in
  Alcotest.(check string) "> flips to <"
    (Answer_cache.key ~repo:"r0" (sel (gt "salary" 10)))
    (Answer_cache.key ~repo:"r0" (sel flipped));
  (* different repositories never share slots *)
  Alcotest.(check bool) "repo isolates" false
    (Answer_cache.key ~repo:"r0" (sel p1)
    = Answer_cache.key ~repo:"r1" (sel p1))

(* -- version invalidation and stale serving -- *)

let test_version_invalidation () =
  let c = Answer_cache.create () in
  let e = sel (gt "salary" 10) in
  let k0 = Answer_cache.key ~repo:"r0" e in
  let v = V.bag [ V.String "Mary" ] in
  Answer_cache.store c ~key:k0 ~version:1 ~now:100.0 v;
  Alcotest.(check (option check_value)) "fresh at matching version" (Some v)
    (Answer_cache.find_fresh c ~key:k0 ~version:1);
  Alcotest.(check (option check_value)) "version moved: no fresh hit" None
    (Answer_cache.find_fresh c ~key:k0 ~version:2);
  let s = Answer_cache.stats c in
  Alcotest.(check int) "hit counted" 1 s.Answer_cache.hits;
  Alcotest.(check int) "stale counted" 1 s.Answer_cache.stale;
  (* the stale entry is retained for outage fallback... *)
  (match Answer_cache.find_stale c ~key:k0 ~now:150.0 ~max_stale_ms:60.0 with
  | Some (sv, age) ->
      Alcotest.check check_value "stale value served" v sv;
      Alcotest.(check (float 0.001)) "age" 50.0 age
  | None -> Alcotest.fail "expected stale serve");
  (* ...but only within the staleness budget *)
  Alcotest.(check bool) "over budget: refused" true
    (Answer_cache.find_stale c ~key:k0 ~now:200.0 ~max_stale_ms:60.0
    = None);
  let s = Answer_cache.stats c in
  Alcotest.(check int) "one stale serve" 1 s.Answer_cache.stale_served;
  Alcotest.(check (float 0.001)) "max served age" 50.0 s.Answer_cache.stale_ms

let test_invalidate_repo () =
  let c = Answer_cache.create () in
  let e = sel (gt "salary" 10) in
  let k0 = Answer_cache.key ~repo:"r0" e and k1 = Answer_cache.key ~repo:"r1" e in
  Answer_cache.store c ~key:k0 ~version:1 ~now:0.0 (V.bag [ V.Int 1 ]);
  Answer_cache.store c ~key:k1 ~version:1 ~now:0.0 (V.bag [ V.Int 2 ]);
  Answer_cache.invalidate_repo c "r0";
  Alcotest.(check bool) "r0 gone" true
    (Answer_cache.find_fresh c ~key:k0 ~version:1 = None);
  Alcotest.(check bool) "r1 kept" true
    (Answer_cache.find_fresh c ~key:k1 ~version:1 <> None)

(* -- mediator integration -- *)

let addr host = Source.address ~host ~db_name:"db" ~ip:"0.0.0.0" ()
let person_row id name salary = [| V.Int id; V.String name; V.Int salary |]

(* A source whose Database we keep a handle on, to mutate it later. *)
let open_source ~id ~host rows =
  let db = Database.create ~name:"db" in
  let tbl =
    Datagen.table_of db ~name:("person" ^ string_of_int id)
      Datagen.person_schema rows
  in
  ( Source.create ~id:(Fmt.str "src%d" id) ~address:(addr host)
      ~latency:{ Source.base_ms = 5.0; per_row_ms = 0.0; jitter = 0.0 }
      (Source.Relational db),
    tbl )

let cached_mediator ?metrics () =
  let m =
    Mediator.create
      ~config:
        {
          Mediator.Config.default with
          cache = Some (Answer_cache.create ());
          metrics =
            Option.value metrics
              ~default:Mediator.Config.default.Mediator.Config.metrics;
        }
      ~name:"m0" ()
  in
  let s0, t0 = open_source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ] in
  let s1, t1 = open_source ~id:1 ~host:"umiacs" [ person_row 1 "Sam" 50 ] in
  Mediator.register_source m ~name:"r0" s0;
  Mediator.register_source m ~name:"r1" s1;
  Mediator.load_odl m
    {|
    r0 := Repository(host="rodin", name="db", address="0");
    r1 := Repository(host="umiacs", name="db", address="0");
    w0 := WrapperPostgres();
    interface Person (extent person) {
      attribute String name;
      attribute Short salary; }
    extent person0 of Person wrapper w0 repository r0;
    extent person1 of Person wrapper w0 repository r1;
  |};
  (m, s0, s1, t0, t1)

let q = "select x.name from x in person where x.salary > 10"

let complete outcome =
  match outcome.Mediator.answer with
  | Mediator.Complete v -> v
  | Mediator.Partial _ as p ->
      Alcotest.fail ("unexpected partial: " ^ Mediator.answer_oql p)
  | Mediator.Unavailable repos ->
      Alcotest.fail ("unavailable: " ^ String.concat "," repos)

let test_mediator_answer_cache_hits () =
  let m, _, _, _, _ = cached_mediator () in
  let o1 = Mediator.query m q in
  let expected = V.bag [ V.String "Mary"; V.String "Sam" ] in
  Alcotest.check check_value "cold answer" expected (complete o1);
  Alcotest.(check int) "cold run ships tuples" 2
    o1.Mediator.stats.Disco_runtime.Runtime.tuples_shipped;
  let o2 = Mediator.query m q in
  Alcotest.check check_value "warm answer identical" expected (complete o2);
  Alcotest.(check int) "warm run ships nothing" 0
    o2.Mediator.stats.Disco_runtime.Runtime.tuples_shipped;
  Alcotest.(check int) "both execs hit" 2
    o2.Mediator.answer_cache.Mediator.answer_hits;
  (* plan-cache and answer-cache reporting stay distinct *)
  Alcotest.(check bool) "plan also cached" true o2.Mediator.from_cache;
  Alcotest.(check bool) "cold plan was a miss" false o1.Mediator.from_cache

let test_mediator_version_invalidation () =
  let m, _, _, t0, _ = cached_mediator () in
  ignore (complete (Mediator.query m q));
  (* mutate r0's store: its data version moves, the cached fragment for
     r0 must be refetched while r1's fragment still hits *)
  Table.insert t0 (person_row 2 "Zoe" 300);
  let v = complete (Mediator.query m q) in
  Alcotest.check check_value "new row visible"
    (V.bag [ V.String "Mary"; V.String "Zoe"; V.String "Sam" ])
    v;
  let s = Option.get (Mediator.answer_cache_stats m) in
  Alcotest.(check int) "r0's entry went stale" 1 s.Answer_cache.stale;
  Alcotest.(check bool) "r1 still hit" true (s.Answer_cache.hits >= 1)

let test_cached_fallback_serves_stale () =
  let m, s0, _, t0, _ = cached_mediator () in
  ignore (complete (Mediator.query m q));
  (* r0's data changes AND the source goes down: fresh lookup is
     impossible, plain partial evaluation would leave a residual, but
     Cached_fallback serves the stale fragment within budget *)
  Table.insert t0 (person_row 2 "Zoe" 300);
  Source.set_schedule s0 Schedule.always_down;
  let sem = Mediator.Cached_fallback { max_stale_ms = 60_000.0 } in
  let o = Mediator.query ~opts:(qopts ~semantics:sem ()) m q in
  Alcotest.check check_value "stale fragment bridges the outage"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    (complete o);
  Alcotest.(check int) "one stale serve" 1
    o.Mediator.answer_cache.Mediator.stale_hits;
  Alcotest.(check bool) "staleness reported" true
    (o.Mediator.answer_cache.Mediator.stale_ms >= 0.0);
  (* beyond the budget the outage is visible again *)
  Clock.advance_to (Mediator.clock m) 120_000.0;
  let tight = Mediator.Cached_fallback { max_stale_ms = 10.0 } in
  (match (Mediator.query ~opts:(qopts ~semantics:tight ()) m q).Mediator.answer with
  | Mediator.Partial { unavailable; _ } ->
      Alcotest.(check (list string)) "r0 residual" [ "r0" ] unavailable
  | Mediator.Complete _ -> Alcotest.fail "expected partial beyond budget"
  | Mediator.Unavailable _ -> Alcotest.fail "unexpected unavailable")

let test_plan_cache_bounded () =
  let m = Mediator.create ~config:{ Mediator.Config.default with plan_cache_capacity = 2 } ~name:"m1" () in
  let s0, _ = open_source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ] in
  Mediator.register_source m ~name:"r0" s0;
  Mediator.load_odl m
    {|
    r0 := Repository(host="rodin", name="db", address="0");
    w0 := WrapperPostgres();
    interface Person (extent person) {
      attribute String name;
      attribute Short salary; }
    extent person0 of Person wrapper w0 repository r0;
  |};
  for k = 1 to 4 do
    ignore
      (Mediator.query m
         (Fmt.str "select x.name from x in person where x.salary > %d" k))
  done;
  let p = Mediator.plan_cache_stats m in
  Alcotest.(check int) "bounded at capacity" 2 p.Mediator.p_size;
  Alcotest.(check int) "capacity reported" 2 p.Mediator.p_capacity;
  Alcotest.(check int) "all four missed" 4 p.Mediator.p_misses;
  Alcotest.(check int) "evictions counted" 2 p.Mediator.p_evictions;
  (* a repeated query hits *)
  ignore (Mediator.query m "select x.name from x in person where x.salary > 4");
  Alcotest.(check int) "hit counted" 1 (Mediator.plan_cache_stats m).Mediator.p_hits;
  Mediator.clear_plan_cache m;
  let p = Mediator.plan_cache_stats m in
  Alcotest.(check int) "clear empties" 0 p.Mediator.p_size;
  Alcotest.(check int) "clear resets hits" 0 p.Mediator.p_hits;
  Alcotest.(check int) "clear resets misses" 0 p.Mediator.p_misses

(* -- metric counters along the cache paths -- *)

let test_cache_metrics_counters () =
  let module Metrics = Disco_obs.Metrics in
  let reg = Metrics.create () in
  let m, s0, _, t0, _ = cached_mediator ~metrics:reg () in
  (* cold: both execs answered by their sources *)
  ignore (complete (Mediator.query m q));
  Alcotest.(check int) "cold execs from sources" 2
    (Metrics.find_counter reg "exec.origin.source");
  Alcotest.(check int) "cold tuples counted" 2
    (Metrics.find_counter reg "exec.tuples_shipped");
  (* warm: both execs served from the cache, nothing shipped *)
  ignore (complete (Mediator.query m q));
  Alcotest.(check int) "warm execs from cache" 2
    (Metrics.find_counter reg "exec.origin.cache");
  Alcotest.(check int) "no extra tuples" 2
    (Metrics.find_counter reg "exec.tuples_shipped");
  Alcotest.(check int) "plan cache hit counted" 1
    (Metrics.find_counter reg "plan_cache.hit");
  (* stale serve: r0's data moves and the source goes down *)
  Table.insert t0 (person_row 2 "Zoe" 300);
  Source.set_schedule s0 Schedule.always_down;
  let sem = Mediator.Cached_fallback { max_stale_ms = 60_000.0 } in
  ignore (complete (Mediator.query ~opts:(qopts ~semantics:sem ()) m q));
  Alcotest.(check int) "stale serve counted" 1
    (Metrics.find_counter reg "exec.origin.stale");
  Alcotest.(check int) "three queries" 3
    (Metrics.find_counter reg "mediator.queries");
  Alcotest.(check int) "all complete" 3
    (Metrics.find_counter reg "mediator.answers.complete");
  (* the elapsed histogram saw every query *)
  match Metrics.find_histogram reg "query.elapsed_virtual_ms" with
  | Some h -> Alcotest.(check int) "histogram count" 3 h.Metrics.h_count
  | None -> Alcotest.fail "elapsed histogram missing"

(* -- resubmission -- *)

let test_resubmission_converges () =
  let m = Mediator.create ~config:{ Mediator.Config.default with cache = Some (Answer_cache.create ()) } ~name:"m2" () in
  let s0, _ = open_source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ] in
  let s1, _ = open_source ~id:1 ~host:"umiacs" [ person_row 2 "Sam" 50 ] in
  Source.set_schedule s1 (Schedule.down_during [ (0.0, 2000.0) ]);
  Mediator.register_source m ~name:"r0" s0;
  Mediator.register_source m ~name:"r1" s1;
  Mediator.load_odl m
    {|
    r0 := Repository(host="rodin", name="db", address="0");
    r1 := Repository(host="umiacs", name="db", address="0");
    w0 := WrapperPostgres();
    interface Person (extent person) {
      attribute String name;
      attribute Short salary; }
    extent person0 of Person wrapper w0 repository r0;
    extent person1 of Person wrapper w0 repository r1;
  |};
  let o = Mediator.query m q in
  let queue = Resubmission.create ~clock:(Mediator.clock m) () in
  (match Mediator.record_partial queue o with
  | Some id -> Alcotest.(check int) "first id" 0 id
  | None -> Alcotest.fail "expected a partial to record");
  let converged =
    Resubmission.drain queue
      ~source_of:(Mediator.find_source m)
      ~run:(Mediator.resubmission_runner m)
  in
  Alcotest.(check int) "converged" 1 converged;
  Alcotest.(check int) "nothing pending" 0 (List.length (Resubmission.pending queue));
  (match Resubmission.entries queue with
  | [ e ] -> (
      match e.Resubmission.state with
      | Resubmission.Converged rounds ->
          Alcotest.(check bool) "bounded rounds" true (rounds >= 1 && rounds <= 2)
      | Resubmission.Pending -> Alcotest.fail "still pending")
  | _ -> Alcotest.fail "expected one entry");
  Alcotest.(check bool) "clock advanced past recovery" true
    (Clock.now (Mediator.clock m) >= 2000.0);
  (* a complete answer records nothing *)
  let o2 = Mediator.query m q in
  Alcotest.check check_value "complete after recovery"
    (V.bag [ V.String "Mary"; V.String "Sam" ])
    (complete o2);
  Alcotest.(check bool) "complete: nothing recorded" true
    (Mediator.record_partial queue o2 = None)

let test_resubmission_no_recovery () =
  let m = Mediator.create ~name:"m3" () in
  let s0, _ = open_source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ] in
  Source.set_schedule s0 Schedule.always_down;
  Mediator.register_source m ~name:"r0" s0;
  Mediator.load_odl m
    {|
    r0 := Repository(host="rodin", name="db", address="0");
    w0 := WrapperPostgres();
    interface Person (extent person) {
      attribute String name;
      attribute Short salary; }
    extent person0 of Person wrapper w0 repository r0;
  |};
  let o = Mediator.query m q in
  let queue = Resubmission.create ~clock:(Mediator.clock m) () in
  ignore (Mediator.record_partial queue o);
  Alcotest.(check (option (float 0.0))) "no recovery in sight" None
    (Resubmission.next_recovery queue ~source_of:(Mediator.find_source m));
  let converged =
    Resubmission.drain queue
      ~source_of:(Mediator.find_source m)
      ~run:(Mediator.resubmission_runner m)
  in
  Alcotest.(check int) "nothing converged" 0 converged;
  Alcotest.(check int) "still pending" 1
    (List.length (Resubmission.pending queue))

let () =
  Alcotest.run "disco_cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace and clear" `Quick test_lru_replace_and_clear;
          Alcotest.test_case "peek does not touch" `Quick test_lru_peek_does_not_touch;
        ] );
      ( "normalize",
        [ Alcotest.test_case "equivalent spellings" `Quick test_normalize_commutes ] );
      ( "answer-cache",
        [
          Alcotest.test_case "version invalidation" `Quick test_version_invalidation;
          Alcotest.test_case "invalidate repo" `Quick test_invalidate_repo;
        ] );
      ( "mediator",
        [
          Alcotest.test_case "warm hits ship nothing" `Quick
            test_mediator_answer_cache_hits;
          Alcotest.test_case "store mutation invalidates" `Quick
            test_mediator_version_invalidation;
          Alcotest.test_case "cached fallback serves stale" `Quick
            test_cached_fallback_serves_stale;
          Alcotest.test_case "plan cache bounded" `Quick test_plan_cache_bounded;
          Alcotest.test_case "metric counters" `Quick
            test_cache_metrics_counters;
        ] );
      ( "resubmission",
        [
          Alcotest.test_case "converges on recovery" `Quick
            test_resubmission_converges;
          Alcotest.test_case "no recovery stays pending" `Quick
            test_resubmission_no_recovery;
        ] );
    ]
