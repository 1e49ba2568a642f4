(* Tests for the cost model, physical plans, optimizer, and the runtime's
   parallel execution and partial evaluation. *)

module V = Disco_value.Value
module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Clock = Disco_source.Clock
module Datagen = Disco_source.Datagen
module Typemap = Disco_odl.Typemap
module Expr = Disco_algebra.Expr
module Rules = Disco_algebra.Rules
module Cost_model = Disco_cost.Cost_model
module Plan = Disco_physical.Plan
module Optimizer = Disco_optimizer.Optimizer
module Runtime = Disco_runtime.Runtime
module Scheduler = Disco_source.Scheduler
module Wrapper = Disco_wrapper.Wrapper
module Eval = Disco_oql.Eval
module Ast = Disco_oql.Ast

let check_value = Alcotest.testable V.pp V.equal

(* naive substring test for answer-text assertions *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let get0 = Expr.Get "person0"
let gt p = Expr.Cmp (Expr.Gt, Expr.Attr [ "salary" ], Expr.Const (V.Int p))
let bind v e = Expr.Map (e, Expr.Hstruct [ (v, Expr.Attr []) ])

(* -- cost model -- *)

let test_cost_default () =
  let m = Cost_model.create () in
  let est = Cost_model.estimate m ~repo:"r0" get0 in
  Alcotest.(check (float 0.0)) "default time 0" 0.0 est.Cost_model.est_time_ms;
  Alcotest.(check (float 0.0)) "default rows 1" 1.0 est.Cost_model.est_rows;
  Alcotest.(check bool) "basis default" true (est.Cost_model.est_basis = Cost_model.Default)

let test_cost_exact_smoothing () =
  let m = Cost_model.create ~smoothing:0.5 () in
  Cost_model.record m ~repo:"r0" ~expr:get0 ~time_ms:100.0 ~rows:10;
  Cost_model.record m ~repo:"r0" ~expr:get0 ~time_ms:200.0 ~rows:20;
  let est = Cost_model.estimate m ~repo:"r0" get0 in
  (match est.Cost_model.est_basis with
  | Cost_model.Exact 2 -> ()
  | _ -> Alcotest.fail "expected exact basis with 2 records");
  (* most recent (200) weighted 0.5, older (100) 0.25, renormalized:
     (0.5*200 + 0.25*100)/0.75 = 166.67 *)
  Alcotest.(check (float 0.1)) "smoothed time" 166.666 est.Cost_model.est_time_ms;
  (* per-repo isolation *)
  Alcotest.(check bool) "other repo default" true
    ((Cost_model.estimate m ~repo:"r1" get0).Cost_model.est_basis = Cost_model.Default)

let test_cost_close_match () =
  let m = Cost_model.create () in
  let sel c = Expr.Select (get0, gt c) in
  Cost_model.record m ~repo:"r0" ~expr:(sel 10) ~time_ms:50.0 ~rows:5;
  (* same skeleton, different constant *)
  let est = Cost_model.estimate m ~repo:"r0" (sel 99) in
  (match est.Cost_model.est_basis with
  | Cost_model.Close 1 -> ()
  | _ -> Alcotest.fail "expected close basis");
  Alcotest.(check (float 0.001)) "close time" 50.0 est.Cost_model.est_time_ms;
  (* different comparison operator: no close match *)
  let lt = Expr.Select (get0, Expr.Cmp (Expr.Lt, Expr.Attr [ "salary" ], Expr.Const (V.Int 10))) in
  Alcotest.(check bool) "operator mismatch is default" true
    ((Cost_model.estimate m ~repo:"r0" lt).Cost_model.est_basis = Cost_model.Default)

let test_cost_history_bound () =
  let m = Cost_model.create ~history:3 () in
  for i = 1 to 10 do
    Cost_model.record m ~repo:"r0" ~expr:get0 ~time_ms:(float_of_int i) ~rows:i
  done;
  match (Cost_model.estimate m ~repo:"r0" get0).Cost_model.est_basis with
  | Cost_model.Exact 3 -> ()
  | _ -> Alcotest.fail "history not bounded"

let test_cost_batch_calibration () =
  let m = Cost_model.create () in
  Alcotest.(check bool) "no history: no estimate" true
    (Cost_model.estimate_batch m ~repo:"r0" ~size:4 = None);
  (* perfectly linear samples: time = 10 + 2 * size *)
  Cost_model.record_batch m ~repo:"r0" ~size:1 ~time_ms:12.0;
  Cost_model.record_batch m ~repo:"r0" ~size:2 ~time_ms:14.0;
  Cost_model.record_batch m ~repo:"r0" ~size:4 ~time_ms:18.0;
  (match Cost_model.estimate_batch m ~repo:"r0" ~size:8 with
  | Some t -> Alcotest.(check (float 0.01)) "extrapolates the fit" 26.0 t
  | None -> Alcotest.fail "expected a batch estimate");
  Alcotest.(check bool) "other repo has no calibration" true
    (Cost_model.estimate_batch m ~repo:"r1" ~size:2 = None)

let test_cost_indexed_basis () =
  let m = Cost_model.create () in
  let eq_sal = Expr.Select (get0, Expr.Cmp (Expr.Eq, Expr.Attr [ "salary" ], Expr.Const (V.Int 10))) in
  let lt_sal = Expr.Select (get0, gt 10) in
  let eq_id = Expr.Select (get0, Expr.Cmp (Expr.Eq, Expr.Attr [ "id" ], Expr.Const (V.Int 3))) in
  (* without a declaration everything is Default: answers/stats unchanged *)
  Alcotest.(check bool) "no declaration: default" true
    ((Cost_model.estimate m ~repo:"r0" eq_sal).Cost_model.est_basis
    = Cost_model.Default);
  Cost_model.declare_index m ~repo:"r0" ~attr:"salary" ~kind:`Sorted;
  Cost_model.declare_index m ~repo:"r0" ~attr:"id" ~kind:`Hash;
  let basis e = (Cost_model.estimate m ~repo:"r0" e).Cost_model.est_basis in
  Alcotest.(check bool) "sorted serves equality" true (basis eq_sal = Cost_model.Indexed);
  Alcotest.(check bool) "sorted serves ranges" true (basis lt_sal = Cost_model.Indexed);
  Alcotest.(check bool) "hash serves equality" true (basis eq_id = Cost_model.Indexed);
  let lt_id = Expr.Select (get0, Expr.Cmp (Expr.Lt, Expr.Attr [ "id" ], Expr.Const (V.Int 3))) in
  Alcotest.(check bool) "hash does not serve ranges" true (basis lt_id = Cost_model.Default);
  (* observations still outrank the structural hint *)
  Cost_model.record m ~repo:"r0" ~expr:eq_sal ~time_ms:7.0 ~rows:2;
  Alcotest.(check bool) "exact beats indexed" true (basis eq_sal = Cost_model.Exact 1);
  (* per-repo isolation, and clear keeps declarations (DDL, not history) *)
  Alcotest.(check bool) "other repo default" true
    ((Cost_model.estimate m ~repo:"r1" eq_sal).Cost_model.est_basis
    = Cost_model.Default);
  Cost_model.clear m;
  Alcotest.(check bool) "clear keeps declarations" true (basis eq_sal = Cost_model.Indexed);
  Alcotest.(check bool) "advertised attrs" true
    (Cost_model.indexed_attrs m ~repo:"r0" = [ ("id", `Hash); ("salary", `Sorted) ])

(* The exact history keeps at most [exact_bound] keys; a shape whose
   exact key was evicted still estimates from its skeleton. *)
let test_cost_exact_bound () =
  let m = Cost_model.create () in
  let sel c = Expr.Select (get0, gt c) in
  for c = 0 to 99_999 do
    Cost_model.record m ~repo:"r0" ~expr:(sel c) ~time_ms:1.0 ~rows:1
  done;
  Alcotest.(check bool) "at most the bound remains" true
    (Cost_model.recorded_calls m <= Cost_model.exact_bound);
  let basis c = (Cost_model.estimate m ~repo:"r0" (sel c)).Cost_model.est_basis in
  Alcotest.(check bool) "the newest key is exact" true (basis 99_999 = Cost_model.Exact 1);
  Alcotest.(check bool) "an evicted key estimates close" true
    (match basis 0 with Cost_model.Close _ -> true | _ -> false)

(* Every exec records its call, so recording a key already held — once
   its ring has grown — allocates nothing. *)
let test_cost_record_allocates_nothing () =
  let m = Cost_model.create () in
  let k = Cost_model.key ~repo:"r0" (Expr.Select (get0, gt 10)) in
  Cost_model.record_key m k ~time_ms:1.0 ~rows:1;
  Cost_model.record_key m k ~time_ms:1.0 ~rows:1;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Cost_model.record_key m k ~time_ms:2.0 ~rows:3
  done;
  let words = Gc.minor_words () -. before in
  if words > 100.0 then
    Alcotest.failf "10,000 records of one key allocated %.0f words" words

(* -- physical plans -- *)

let test_implement_shapes () =
  let located = Expr.Submit ("r0", Expr.Select (get0, gt 10)) in
  (match Plan.implement located with
  | Plan.Exec ("r0", Expr.Select _) -> ()
  | p -> Alcotest.fail (Plan.to_string p));
  let join =
    Expr.Join (bind "x" get0, bind "y" (Expr.Get "person1"), [ ([ "x"; "id" ], [ "y"; "id" ]) ])
  in
  (match Plan.implement (Rules.normalize join) with
  | exception Plan.Physical_error _ -> () (* unlocated gets *)
  | _ -> Alcotest.fail "expected error on unlocated get");
  let located_join =
    Expr.Join
      ( bind "x" (Expr.Submit ("r0", get0)),
        bind "y" (Expr.Submit ("r1", Expr.Get "person1")),
        [ ([ "x"; "id" ], [ "y"; "id" ]) ] )
  in
  match Plan.implement located_join with
  | Plan.Hash_join _ -> ()
  | p -> Alcotest.fail ("expected hash join: " ^ Plan.to_string p)

let test_plan_logical_roundtrip () =
  let located =
    Expr.Union
      [
        Expr.Map (Expr.Submit ("r0", Expr.Select (get0, gt 10)), Expr.Hscalar (Expr.Attr [ "name" ]));
        Expr.Data (V.bag [ V.String "Sam" ]);
      ]
  in
  let plan = Plan.implement located in
  Alcotest.(check bool) "to_logical inverts implement" true
    (Expr.equal (Plan.to_logical plan) located)

let test_hash_vs_nested_loop () =
  (* both join algorithms agree with the logical semantics *)
  let rows_l =
    V.bag (List.map (fun i -> V.strct [ ("x", V.strct [ ("id", V.Int (i mod 5)); ("a", V.Int i) ]) ]) (List.init 20 Fun.id))
  in
  let rows_r =
    V.bag (List.map (fun i -> V.strct [ ("y", V.strct [ ("id", V.Int (i mod 5)); ("b", V.Int i) ]) ]) (List.init 15 Fun.id))
  in
  let pairs = [ ([ "x"; "id" ], [ "y"; "id" ]) ] in
  let nl = Plan.Nested_loop_join (Plan.Mk_data rows_l, Plan.Mk_data rows_r, pairs) in
  let hj = Plan.Hash_join (Plan.Mk_data rows_l, Plan.Mk_data rows_r, pairs) in
  Alcotest.check check_value "hash = nested loop" (Plan.run_local nl) (Plan.run_local hj);
  let logical = Expr.Join (Expr.Data rows_l, Expr.Data rows_r, pairs) in
  Alcotest.check check_value "hash = logical"
    (Expr.eval ~resolve:(fun _ -> None) logical)
    (Plan.run_local hj)

let test_semijoin_variants () =
  let j =
    Plan.Hash_join
      ( Plan.Exec ("r0", get0),
        Plan.Exec ("r1", Expr.Get "person1"),
        [ ([ "x"; "id" ], [ "y"; "id" ]) ] )
  in
  (* semijoins are generated only with informed costs *)
  Alcotest.(check int) "no semijoin without statistics" 0
    (List.length (Plan.semijoin_variants ~informed:(fun _ _ -> false) j));
  let semis = Plan.semijoin_variants ~informed:(fun _ _ -> true) j in
  Alcotest.(check int) "two directions when informed" 2 (List.length semis);
  Alcotest.(check bool) "both are semijoins" true
    (List.for_all (function Plan.Semi_join _ -> true | _ -> false) semis)

let test_hash_build_side () =
  let bag n = V.bag (List.init n (fun i -> V.strct [ ("id", V.Int i) ])) in
  Alcotest.(check bool) "smaller right builds right" true
    (Plan.hash_build_side ~left:(bag 10) ~right:(bag 3) = `Right);
  Alcotest.(check bool) "smaller left flips the build" true
    (Plan.hash_build_side ~left:(bag 3) ~right:(bag 10) = `Left);
  Alcotest.(check bool) "ties keep the historical right build" true
    (Plan.hash_build_side ~left:(bag 5) ~right:(bag 5) = `Right);
  (* the flipped build changes the table side, not the answer (and the
     merged struct still keeps left fields first) *)
  let mk side n =
    V.bag
      (List.init n (fun i ->
           V.strct [ (side, V.strct [ ("id", V.Int (i mod 4)); ("v", V.Int i) ]) ]))
  in
  let pairs = [ ([ "x"; "id" ], [ "y"; "id" ]) ] in
  let check_agrees l r =
    let nl = Plan.Nested_loop_join (Plan.Mk_data l, Plan.Mk_data r, pairs) in
    let hj = Plan.Hash_join (Plan.Mk_data l, Plan.Mk_data r, pairs) in
    Alcotest.check check_value "hash join agrees whichever side builds"
      (Plan.run_local nl) (Plan.run_local hj)
  in
  check_agrees (mk "x" 12) (mk "y" 3);
  check_agrees (mk "x" 3) (mk "y" 12)

let test_run_local_requires_substitution () =
  Alcotest.check_raises "exec must be substituted"
    (Plan.Physical_error "exec(r0) not substituted before local execution")
    (fun () -> ignore (Plan.run_local (Plan.Exec ("r0", get0))))

(* -- optimizer -- *)

let test_optimizer_default_pushes_down () =
  (* Paper Section 3.3: with no cost information the optimizer chooses
     maximal pushdown. *)
  let located = Expr.Select (Expr.Submit ("r0", get0), gt 10) in
  let cost = Cost_model.create () in
  let choice = Optimizer.optimize ~can_push:Rules.push_all ~cost located in
  (match choice.Optimizer.plan with
  | Plan.Exec ("r0", Expr.Select _) -> ()
  | p -> Alcotest.fail ("expected pushed plan: " ^ Plan.to_string p));
  Alcotest.(check bool) "several alternatives" true (choice.Optimizer.alternatives >= 2)

let test_optimizer_respects_capability () =
  let located = Expr.Select (Expr.Submit ("r0", get0), gt 10) in
  let cost = Cost_model.create () in
  let choice = Optimizer.optimize ~can_push:Rules.push_none ~cost located in
  match choice.Optimizer.plan with
  | Plan.Mk_select (Plan.Exec ("r0", Expr.Get "person0"), _) -> ()
  | p -> Alcotest.fail ("expected mediator-side select: " ^ Plan.to_string p)

let test_optimizer_learns () =
  (* After recording that the pushed select is expensive and the raw scan
     cheap and small, the optimizer switches plans. *)
  let located = Expr.Select (Expr.Submit ("r0", get0), gt 10) in
  let cost = Cost_model.create () in
  let pushed = Expr.Select (get0, gt 10) in
  Cost_model.record cost ~repo:"r0" ~expr:pushed ~time_ms:5000.0 ~rows:900;
  Cost_model.record cost ~repo:"r0" ~expr:get0 ~time_ms:1.0 ~rows:10;
  let choice = Optimizer.optimize ~can_push:Rules.push_all ~cost located in
  match choice.Optimizer.plan with
  | Plan.Mk_select (Plan.Exec _, _) -> ()
  | p -> Alcotest.fail ("expected scan + local select: " ^ Plan.to_string p)

(* Paper Section 3.3 with an empty store, over a union whose branches
   differ in capability: the branch that takes the select gets it, and
   those that do not keep it at the mediator. With two branches that
   cannot take it, counting mediator ops would pick the select left over
   the whole union (5 ops against 6). *)
let test_optimizer_pushes_into_union_branches () =
  let located =
    Expr.Select
      ( Expr.Union
          (List.init 3 (fun i -> Expr.Submit (Fmt.str "r%d" i, Expr.Get (Fmt.str "person%d" i)))),
        gt 10 )
  in
  let can_push ~repo _ = String.equal repo "r0" in
  let choice = Optimizer.optimize ~can_push ~cost:(Cost_model.create ()) located in
  Alcotest.(check string) "each branch as far as it goes"
    "mkunion(exec(r0, select(salary > 10, get(person0))), mkselect(salary > 10, \
     exec(r1, get(person1))), mkselect(salary > 10, exec(r2, get(person2))))"
    (Plan.to_string choice.Optimizer.plan)

(* A recorded bare scan prices a pushed select it has no history for:
   the scan's time, its rows scaled by the default selectivity, and
   informed — so the pushed select beats the scan plus a mediator-side
   select, as it does with an empty store. *)
let test_optimizer_prices_from_recorded_scan () =
  let located = Expr.Select (Expr.Submit ("r0", get0), gt 10) in
  let cost = Cost_model.create () in
  Cost_model.record cost ~repo:"r0" ~expr:get0 ~time_ms:20.0 ~rows:200;
  let plan = Plan.Exec ("r0", Expr.Select (get0, gt 10)) in
  let est = Plan.estimate cost plan in
  Alcotest.(check int) "informed" 0 est.Plan.defaulted_execs;
  Alcotest.(check (float 1e-9)) "the scan's time" 20.0 est.Plan.time_ms;
  Alcotest.(check (float 1e-9)) "the scan's rows, selected"
    (200.0 *. Plan.default_params.Plan.default_selectivity)
    est.Plan.rows;
  let choice = Optimizer.optimize ~can_push:Rules.push_all ~cost located in
  Alcotest.(check string) "the select stays pushed"
    "exec(r0, select(salary > 10, get(person0)))"
    (Plan.to_string choice.Optimizer.plan)

let test_optimizer_dedups_candidates () =
  let metrics = Disco_obs.Metrics.create () in
  let located = Expr.Select (Expr.Submit ("r0", get0), gt 10) in
  let cost = Cost_model.create () in
  let choice =
    Optimizer.optimize ~metrics ~can_push:Rules.push_all ~cost located
  in
  let hist name =
    match Disco_obs.Metrics.find_histogram metrics name with
    | Some h -> h.Disco_obs.Metrics.h_sum
    | None -> Alcotest.fail ("missing histogram " ^ name)
  in
  Alcotest.(check bool) "dedup drops the candidate count" true
    (hist "optimizer.candidates" < hist "optimizer.candidates_raw");
  Alcotest.(check int) "alternatives reflect the deduped count"
    (int_of_float (hist "optimizer.candidates"))
    choice.Optimizer.alternatives

(* -- runtime -- *)

let addr = Source.address ~host:"h" ~db_name:"db" ~ip:"0.0.0.0" ()

let make_env ?(latency = { Source.base_ms = 10.0; per_row_ms = 0.0; jitter = 0.0 })
    ?(schedules = []) ?(replicas = []) ?retry ?breaker ?metrics () =
  let clock = Clock.create () in
  let cost = Cost_model.create () in
  let mk i =
    let db = Datagen.person_db ~seed:i ~name:(Fmt.str "person%d" i) ~n:20 in
    let schedule =
      Option.value (List.assoc_opt i schedules) ~default:Schedule.always_up
    in
    let source =
      Source.create ~id:(Fmt.str "src%d" i) ~address:addr ~latency ~schedule
        (Source.Relational db)
    in
    {
      Runtime.b_extent = Fmt.str "person%d" i;
      b_repo = Fmt.str "r%d" i;
      b_source = source;
      b_replicas = Option.value (List.assoc_opt i replicas) ~default:[];
      b_wrapper = Wrapper.sql_wrapper ();
      b_map = Typemap.identity;
      b_check = None;
    }
  in
  let bindings = List.map mk [ 0; 1 ] in
  ( Runtime.env
      (Runtime.Config.make ?retry ?breaker ?metrics ~clock ~cost ())
      bindings,
    clock,
    cost )

let paper_plan =
  (* union(project(name, submit(r0, select(get person0))),
            project(name, submit(r1, select(get person1)))) *)
  let part i =
    Expr.Map
      ( Expr.Submit (Fmt.str "r%d" i, Expr.Select (Expr.Get (Fmt.str "person%d" i), gt 10)),
        Expr.Hscalar (Expr.Attr [ "name" ]) )
  in
  Plan.implement (Expr.Union [ part 0; part 1 ])

let test_runtime_complete () =
  let env, clock, cost = make_env () in
  let answer, stats = Runtime.execute env paper_plan in
  (match answer with
  | Runtime.Complete v -> Alcotest.(check bool) "non-empty" true (V.cardinal v > 0)
  | Runtime.Partial _ -> Alcotest.fail "expected complete");
  Alcotest.(check int) "both answered" 2 stats.Runtime.execs_answered;
  (* parallel issue: elapsed is ~one latency, not two *)
  Alcotest.(check bool) "parallel" true (stats.Runtime.elapsed_ms < 15.0);
  Alcotest.(check bool) "clock advanced" true (Clock.now clock >= 10.0);
  Alcotest.(check bool) "costs recorded" true (Cost_model.recorded_calls cost = 2)

let test_runtime_partial_and_resubmit () =
  let env, clock, _ = make_env ~schedules:[ (0, Schedule.down_during [ (0.0, 500.0) ]) ] () in
  let answer, stats = Runtime.execute ~timeout_ms:100.0 env paper_plan in
  Alcotest.(check int) "one blocked" 1 stats.Runtime.execs_blocked;
  (match answer with
  | Runtime.Partial { query; unavailable; _ } ->
      Alcotest.(check (list string)) "r0 down" [ "r0" ] unavailable;
      (* deadline consumed *)
      Alcotest.(check (float 0.001)) "waited to deadline" 100.0 stats.Runtime.elapsed_ms;
      (* the partial answer must mention person0 and contain data *)
      let text = Ast.to_string query in
      Alcotest.(check bool) "mentions person0" true
        (contains text "person0");
      (* once the source recovers, resubmitting the partial answer over
         the same (semantic) collections equals the full answer *)
      Clock.advance clock 600.0;
      let answer2, _ = Runtime.execute env paper_plan in
      let full = match answer2 with
        | Runtime.Complete v -> v
        | Runtime.Partial _ -> Alcotest.fail "expected recovery"
      in
      (* evaluate the partial answer text against the same data *)
      let resolve name =
        List.find_map
          (fun b ->
            if String.equal b.Runtime.b_extent name then
              match Source.kind b.Runtime.b_source with
              | Source.Relational db ->
                  Option.map Disco_relation.Table.to_bag
                    (Disco_relation.Database.find_table db name)
              | _ -> None
            else None)
          [] (* bindings are private; re-derive below *)
      in
      ignore resolve;
      let resolve name =
        let i = if name = "person0" then 0 else 1 in
        let db = Datagen.person_db ~seed:i ~name ~n:20 in
        Option.map Disco_relation.Table.to_bag
          (Disco_relation.Database.find_table db name)
      in
      let v = Eval.eval (Eval.env ~resolve ()) query in
      Alcotest.check check_value "resubmission equals full answer" full v
  | Runtime.Complete _ -> Alcotest.fail "expected partial")

let test_runtime_all_blocked () =
  let env, _, _ =
    make_env
      ~schedules:
        [ (0, Schedule.always_down); (1, Schedule.always_down) ]
      ()
  in
  let answer, stats = Runtime.execute ~timeout_ms:50.0 env paper_plan in
  Alcotest.(check int) "none answered" 0 stats.Runtime.execs_answered;
  match answer with
  | Runtime.Partial { query; unavailable; _ } ->
      Alcotest.(check int) "both unavailable" 2 (List.length unavailable);
      (* the answer should be (equivalent to) the original query *)
      let text = Ast.to_string query in
      Alcotest.(check bool) "still a query over both" true
        (contains text "person0"
        && contains text "person1")
  | Runtime.Complete _ -> Alcotest.fail "expected partial"

let test_runtime_fold_ready () =
  (* The available side is folded to data in the partial answer, matching
     the paper's union(query, data) form. *)
  let env, _, _ = make_env ~schedules:[ (0, Schedule.always_down) ] () in
  let answer, _ = Runtime.execute ~timeout_ms:50.0 env paper_plan in
  match answer with
  | Runtime.Partial { query; _ } -> (
      match query with
      | Ast.Call ("union", [ Ast.Select _; Ast.Const (V.Bag _) ]) -> ()
      | q -> Alcotest.fail ("expected union(select, Bag): " ^ Ast.to_string q))
  | Runtime.Complete _ -> Alcotest.fail "expected partial"

let test_runtime_wrapper_refusal () =
  (* a scan-only wrapper receiving a pushed select: runtime error *)
  let clock = Clock.create () in
  let cost = Cost_model.create () in
  let db = Datagen.person_db ~seed:0 ~name:"person0" ~n:5 in
  let source = Source.create ~id:"s" ~address:addr (Source.Relational db) in
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
  let env = Runtime.env (Runtime.Config.make ~clock ~cost ()) [ binding ] in
  let plan = Plan.Exec ("r0", Expr.Select (get0, gt 10)) in
  try
    ignore (Runtime.execute env plan);
    Alcotest.fail "expected Runtime_error"
  with Runtime.Runtime_error _ -> ()

let test_runtime_type_check () =
  let clock = Clock.create () in
  let cost = Cost_model.create () in
  let db = Datagen.person_db ~seed:0 ~name:"person0" ~n:3 in
  let source = Source.create ~id:"s" ~address:addr (Source.Relational db) in
  let reject_all _ = false in
  let binding =
    {
      Runtime.b_extent = "person0";
      b_repo = "r0";
      b_source = source;
      b_replicas = [];
      b_wrapper = Wrapper.sql_wrapper ();
      b_map = Typemap.identity;
      b_check = Some reject_all;
    }
  in
  let env = Runtime.env (Runtime.Config.make ~clock ~cost ()) [ binding ] in
  try
    ignore (Runtime.execute env (Plan.Exec ("r0", get0)));
    Alcotest.fail "expected type mismatch"
  with Runtime.Runtime_error m ->
    Alcotest.(check bool) "mentions type" true (contains m "type mismatch")

(* -- retry scheduler, hedging, breaker (DESIGN.md Section 4g) -- *)

let nominal_latency = { Source.base_ms = 10.0; per_row_ms = 0.0; jitter = 0.0 }

let person_source ?schedule ~id ~seed () =
  let db = Datagen.person_db ~seed ~name:"person0" ~n:20 in
  Source.create ~id ~address:addr ~latency:nominal_latency ?schedule
    (Source.Relational db)

let counter metrics name = Disco_obs.Metrics.find_counter metrics name

let test_retry_recovers () =
  (* r0 is down until t=300 under a 1000 ms deadline: without retries the
     answer is partial; with the default policy the re-poll at t=350 finds
     the source back up and the answer completes *)
  let schedules = [ (0, Schedule.down_during [ (0.0, 300.0) ]) ] in
  let env_off, _, _ = make_env ~schedules () in
  (match Runtime.execute env_off paper_plan with
  | Runtime.Partial _, _ -> ()
  | Runtime.Complete _, _ -> Alcotest.fail "one-shot issue should block");
  let metrics = Disco_obs.Metrics.create () in
  let env, _, _ = make_env ~schedules ~retry:(Runtime.Retry.make ()) ~metrics () in
  let answer, stats = Runtime.execute env paper_plan in
  (match answer with
  | Runtime.Complete v -> Alcotest.(check bool) "non-empty" true (V.cardinal v > 0)
  | Runtime.Partial _ -> Alcotest.fail "retry should recover the answer");
  Alcotest.(check int) "nothing blocked" 0 stats.Runtime.execs_blocked;
  Alcotest.(check int) "both answered" 2 stats.Runtime.execs_answered;
  (* re-polls at 50, 150, 350; recovery at 300 means the third lands *)
  Alcotest.(check (float 0.001)) "answered at re-poll + latency" 360.0
    stats.Runtime.elapsed_ms;
  Alcotest.(check int) "three re-polls" 3 (counter metrics "runtime.retry.attempts");
  Alcotest.(check int) "one recovery" 1 (counter metrics "runtime.retry.recovered");
  (* each re-poll is a wire round-trip on top of the two initial issues *)
  Alcotest.(check int) "round trips include re-polls" 5 stats.Runtime.round_trips

let test_retry_exhausts () =
  (* a source that never comes back: the scheduler spends its attempts and
     the exec finalizes as blocked at the deadline, exactly like one-shot *)
  let metrics = Disco_obs.Metrics.create () in
  let env, _, _ =
    make_env
      ~schedules:[ (0, Schedule.always_down) ]
      ~retry:(Runtime.Retry.make ~max_attempts:2 ())
      ~metrics ()
  in
  let answer, stats = Runtime.execute env paper_plan in
  (match answer with
  | Runtime.Partial { unavailable; _ } ->
      Alcotest.(check (list string)) "r0 residual" [ "r0" ] unavailable
  | Runtime.Complete _ -> Alcotest.fail "expected partial");
  Alcotest.(check int) "one blocked" 1 stats.Runtime.execs_blocked;
  Alcotest.(check (float 0.001)) "deadline consumed" 1000.0 stats.Runtime.elapsed_ms;
  Alcotest.(check int) "both re-polls spent" 2
    (counter metrics "runtime.retry.attempts");
  Alcotest.(check int) "nothing recovered" 0
    (counter metrics "runtime.retry.recovered")

let test_retry_hedge () =
  (* the primary is alive but degraded 20x (200 ms); with a 30 ms hedge
     delay the replica is dialed at t=30 and answers at t=40, far ahead of
     the primary's completion *)
  let slow = Schedule.slow_during [ (0.0, 1e9) ] ~factor:20.0 in
  let replica = person_source ~id:"src0b" ~seed:0 () in
  let metrics = Disco_obs.Metrics.create () in
  let env, _, _ =
    make_env
      ~schedules:[ (0, slow) ]
      ~replicas:[ (0, [ ("r0b", replica) ]) ]
      ~retry:(Runtime.Retry.make ~hedge_ms:30.0 ())
      ~metrics ()
  in
  let answer, stats = Runtime.execute env paper_plan in
  (match answer with
  | Runtime.Complete v -> Alcotest.(check bool) "non-empty" true (V.cardinal v > 0)
  | Runtime.Partial _ -> Alcotest.fail "expected complete");
  Alcotest.(check (float 0.001)) "replica's finish wins" 40.0
    stats.Runtime.elapsed_ms;
  Alcotest.(check int) "one hedge issued" 1 (counter metrics "runtime.hedge.issued");
  Alcotest.(check int) "the hedge won" 1 (counter metrics "runtime.hedge.won");
  (* the hedged answer must equal what the slow primary would have sent *)
  let env_slow, _, _ = make_env ~schedules:[ (0, slow) ] () in
  match (answer, Runtime.execute env_slow paper_plan) with
  | Runtime.Complete hedged, (Runtime.Complete direct, _) ->
      Alcotest.check check_value "same rows either way" direct hedged
  | _ -> Alcotest.fail "expected complete answers"

let test_retry_breaker () =
  (* two consecutive refusals trip src0's breaker; with a cooldown longer
     than the deadline every later re-poll is skipped, not issued *)
  let breaker = Runtime.Breaker.create () in
  let metrics = Disco_obs.Metrics.create () in
  let retry =
    Runtime.Retry.make ~max_attempts:6 ~breaker_threshold:2
      ~breaker_cooldown_ms:5000.0 ()
  in
  let env, _, _ =
    make_env ~schedules:[ (0, Schedule.always_down) ] ~retry ~breaker ~metrics ()
  in
  let answer, _ = Runtime.execute env paper_plan in
  (match answer with
  | Runtime.Partial { unavailable; _ } ->
      Alcotest.(check (list string)) "still residual" [ "r0" ] unavailable
  | Runtime.Complete _ -> Alcotest.fail "expected partial");
  (* the initial issue failed (fails=1), the re-poll at t=50 failed and
     opened the breaker (fails=2); no further call reaches the source *)
  Alcotest.(check int) "only the pre-open re-poll issued" 1
    (counter metrics "runtime.retry.attempts");
  Alcotest.(check int) "breaker opened once" 1
    (counter metrics "runtime.breaker.open");
  match Runtime.Breaker.snapshot breaker with
  | [ ("src0", fails, Some since) ] ->
      Alcotest.(check int) "consecutive failures" 2 fails;
      Alcotest.(check (float 0.001)) "opened at the failing re-poll" 50.0 since
  | s ->
      Alcotest.fail
        (Fmt.str "unexpected breaker snapshot (%d entries)" (List.length s))

let test_failover_records_replica_version () =
  (* regression: when the replica answers for a down primary, the partial
     answer's version vector must carry the replica's repo and version —
     recording the primary's would make the staleness check watch the
     wrong database *)
  let clock = Clock.create () in
  let cost = Cost_model.create () in
  let primary = person_source ~id:"p0" ~seed:0 ~schedule:Schedule.always_down () in
  let replica = person_source ~id:"p0x" ~seed:7 () in
  let replica_db =
    match Source.kind replica with
    | Source.Relational db -> db
    | _ -> assert false
  in
  (* make the two versions numerically distinct so a swapped recording
     cannot pass by coincidence *)
  (match Disco_relation.Database.find_table replica_db "person0" with
  | Some t ->
      Disco_relation.Table.insert t [| V.Int 990; V.String "zz"; V.Int 40 |]
  | None -> Alcotest.fail "replica table missing");
  Alcotest.(check bool) "versions differ" true
    (Source.data_version primary <> Source.data_version replica);
  let bindings =
    [
      {
        Runtime.b_extent = "person0";
        b_repo = "r0";
        b_source = primary;
        b_replicas = [ ("r0x", replica) ];
        b_wrapper = Wrapper.sql_wrapper ();
        b_map = Typemap.identity;
        b_check = None;
      };
      {
        Runtime.b_extent = "person1";
        b_repo = "r1";
        b_source = person_source ~id:"p1" ~seed:1 ~schedule:Schedule.always_down ();
        b_replicas = [];
        b_wrapper = Wrapper.sql_wrapper ();
        b_map = Typemap.identity;
        b_check = None;
      };
    ]
  in
  let env = Runtime.env (Runtime.Config.make ~clock ~cost ()) bindings in
  let answer, stats = Runtime.execute ~timeout_ms:100.0 env paper_plan in
  Alcotest.(check int) "replica answered" 1 stats.Runtime.execs_answered;
  match answer with
  | Runtime.Partial { unavailable; versions; _ } ->
      Alcotest.(check (list string)) "r1 residual" [ "r1" ] unavailable;
      Alcotest.(check (list (pair string int)))
        "the answering replica's repo and version recorded"
        [ ("r0x", Source.data_version replica) ]
        versions
  | Runtime.Complete _ -> Alcotest.fail "expected partial"

(* One round whose blocked execs drain together: five execs on four
   sources (two share rA and its breaker), recovering at attempts 1, 2
   (through a hedge) and 4, or never.  With threshold 3 and a 250 ms
   cooldown, rA's breaker opens at t=50 between its two execs' re-polls
   and re-opens at t=350 after a failed half-open probe.  rB's primary
   always times out, and its replica rBx, up from t=160, wins the hedge
   dialed at t=180.  Pins every exec's outcome, the attempt history of
   each exec leaf, the counters and the final clock, so any reordering
   of the drain shows. *)
let test_retry_drain_pinned () =
  let clock = Clock.create () in
  let cost = Cost_model.create () in
  let metrics = Disco_obs.Metrics.create () in
  let source id schedule tables =
    let db = Disco_relation.Database.create ~name:id in
    List.iter
      (fun (name, seed) ->
        ignore
          (Datagen.table_of db ~name Datagen.person_schema
             (Datagen.person_rows ~seed ~n:10)))
      tables;
    Source.create ~id ~address:addr ~latency:nominal_latency ~schedule
      (Source.Relational db)
  in
  let src_a = source "srcA" (Schedule.down_during [ (0.0, 400.0) ]) [ ("pa0", 0); ("pa1", 1) ] in
  let src_b = source "srcB" (Schedule.slow_during [ (0.0, 1e9) ] ~factor:300.0) [ ("pb0", 2) ] in
  let src_bx = source "srcBx" (Schedule.down_during [ (0.0, 160.0) ]) [ ("pb0", 2) ] in
  let src_c = source "srcC" (Schedule.down_during [ (0.0, 30.0) ]) [ ("pc0", 3) ] in
  let src_d = source "srcD" Schedule.always_down [ ("pd0", 4) ] in
  let binding extent repo src replicas =
    {
      Runtime.b_extent = extent;
      b_repo = repo;
      b_source = src;
      b_replicas = replicas;
      b_wrapper = Wrapper.sql_wrapper ();
      b_map = Typemap.identity;
      b_check = None;
    }
  in
  let bindings =
    [
      binding "pa0" "rA" src_a [];
      binding "pa1" "rA" src_a [];
      binding "pb0" "rB" src_b [ ("rBx", src_bx) ];
      binding "pc0" "rC" src_c [];
      binding "pd0" "rD" src_d [];
    ]
  in
  let retry =
    Runtime.Retry.make ~hedge_ms:30.0 ~breaker_threshold:3
      ~breaker_cooldown_ms:250.0 ()
  in
  let tr = Disco_obs.Trace.make ~query:"drain" ~now:0.0 in
  let env =
    Runtime.env
      (Runtime.Config.make ~trace:tr ~metrics ~retry ~clock ~cost ())
      bindings
  in
  let part (repo, extent) =
    Expr.Map
      ( Expr.Submit (repo, Expr.Select (Expr.Get extent, gt 10)),
        Expr.Hscalar (Expr.Attr [ "name" ]) )
  in
  let plan =
    Plan.implement
      (Expr.Union
         (List.map part
            [ ("rA", "pa0"); ("rA", "pa1"); ("rB", "pb0"); ("rC", "pc0"); ("rD", "pd0") ]))
  in
  let answer, stats = Runtime.execute ~timeout_ms:2000.0 env plan in
  (match answer with
  | Runtime.Partial { unavailable; versions; _ } ->
      Alcotest.(check (list string)) "only rD unanswered" [ "rD" ] unavailable;
      Alcotest.(check (list string))
        "answering repositories" [ "rA"; "rBx"; "rC" ]
        (List.sort_uniq String.compare (List.map fst versions))
  | Runtime.Complete _ -> Alcotest.fail "expected partial");
  Alcotest.(check int) "execs issued" 5 stats.Runtime.execs_issued;
  Alcotest.(check int) "execs answered" 4 stats.Runtime.execs_answered;
  Alcotest.(check int) "execs blocked" 1 stats.Runtime.execs_blocked;
  Alcotest.(check int) "round trips" 16 stats.Runtime.round_trips;
  Alcotest.(check (float 0.0)) "elapsed" 2000.0 stats.Runtime.elapsed_ms;
  Alcotest.(check (float 0.0)) "final clock" 2000.0 (Clock.now clock);
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (counter metrics name))
    [
      ("runtime.retry.attempts", 11);
      ("runtime.retry.recovered", 4);
      ("runtime.breaker.open", 5);
      ("runtime.hedge.issued", 1);
      ("runtime.hedge.won", 1);
    ];
  let expected =
    String.concat ""
      [
        "{\"query\":\"drain\",\"root\":";
        "{\"name\":\"query\",\"start_ms\":0.0,\"elapsed_ms\":2000.0,\"children\":[";
        "{\"name\":\"exec\",\"start_ms\":50.0,\"elapsed_ms\":10.0,";
        "\"exec\":{\"repo\":\"rC\",\"wrapper\":\"WrapperSql\",\"expr\":\"select(salary > 10, get(pc0))\",\"origin\":\"source\",\"start_ms\":50.0,\"elapsed_ms\":10.0,\"tuples\":10,\"rows\":10,\"predicted_ms\":0.0,\"predicted_rows\":1.0},\"children\":[";
        "{\"name\":\"retry\",\"start_ms\":50.0,\"elapsed_ms\":10.0,\"meta\":{\"attempt\":\"1\",\"outcome\":\"recovered\"}}]},";
        "{\"name\":\"exec\",\"start_ms\":150.0,\"elapsed_ms\":40.0,";
        "\"exec\":{\"repo\":\"rB\",\"wrapper\":\"WrapperSql\",\"expr\":\"select(salary > 10, get(pb0))\",\"origin\":\"failover\",\"failover_repo\":\"rBx\",\"start_ms\":150.0,\"elapsed_ms\":40.0,\"tuples\":10,\"rows\":10,\"predicted_ms\":0.0,\"predicted_rows\":1.0},\"children\":[";
        "{\"name\":\"retry\",\"start_ms\":50.0,\"elapsed_ms\":3000.0,\"meta\":{\"attempt\":\"1\",\"outcome\":\"timed-out\"}},";
        "{\"name\":\"retry\",\"start_ms\":150.0,\"elapsed_ms\":40.0,\"meta\":{\"attempt\":\"2\",\"outcome\":\"recovered\"}}]},";
        "{\"name\":\"exec\",\"start_ms\":750.0,\"elapsed_ms\":10.0,";
        "\"exec\":{\"repo\":\"rA\",\"wrapper\":\"WrapperSql\",\"expr\":\"select(salary > 10, get(pa0))\",\"origin\":\"source\",\"start_ms\":750.0,\"elapsed_ms\":10.0,\"tuples\":10,\"rows\":10,\"predicted_ms\":0.0,\"predicted_rows\":1.0},\"children\":[";
        "{\"name\":\"retry\",\"start_ms\":50.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"1\",\"outcome\":\"unavailable\"}},";
        "{\"name\":\"retry\",\"start_ms\":150.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"2\",\"outcome\":\"breaker-open\"}},";
        "{\"name\":\"retry\",\"start_ms\":350.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"3\",\"outcome\":\"unavailable\"}},";
        "{\"name\":\"retry\",\"start_ms\":750.0,\"elapsed_ms\":10.0,\"meta\":{\"attempt\":\"4\",\"outcome\":\"recovered\"}}]},";
        "{\"name\":\"exec\",\"start_ms\":750.0,\"elapsed_ms\":10.0,";
        "\"exec\":{\"repo\":\"rA\",\"wrapper\":\"WrapperSql\",\"expr\":\"select(salary > 10, get(pa1))\",\"origin\":\"source\",\"start_ms\":750.0,\"elapsed_ms\":10.0,\"tuples\":10,\"rows\":10,\"predicted_ms\":0.0,\"predicted_rows\":1.0},\"children\":[";
        "{\"name\":\"retry\",\"start_ms\":50.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"1\",\"outcome\":\"unavailable\"}},";
        "{\"name\":\"retry\",\"start_ms\":150.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"2\",\"outcome\":\"breaker-open\"}},";
        "{\"name\":\"retry\",\"start_ms\":350.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"3\",\"outcome\":\"breaker-open\"}},";
        "{\"name\":\"retry\",\"start_ms\":750.0,\"elapsed_ms\":10.0,\"meta\":{\"attempt\":\"4\",\"outcome\":\"recovered\"}}]},";
        "{\"name\":\"exec\",\"start_ms\":0.0,\"elapsed_ms\":2000.0,";
        "\"exec\":{\"repo\":\"rD\",\"wrapper\":\"WrapperSql\",\"expr\":\"select(salary > 10, get(pd0))\",\"origin\":\"blocked\",\"start_ms\":0.0,\"elapsed_ms\":2000.0,\"tuples\":0,\"rows\":0,\"predicted_ms\":0.0,\"predicted_rows\":1.0},\"children\":[";
        "{\"name\":\"retry\",\"start_ms\":50.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"1\",\"outcome\":\"unavailable\"}},";
        "{\"name\":\"retry\",\"start_ms\":150.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"2\",\"outcome\":\"unavailable\"}},";
        "{\"name\":\"retry\",\"start_ms\":350.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"3\",\"outcome\":\"breaker-open\"}},";
        "{\"name\":\"retry\",\"start_ms\":750.0,\"elapsed_ms\":0.0,\"meta\":{\"attempt\":\"4\",\"outcome\":\"unavailable\"}}]}]}}";
      ]
  in
  Alcotest.(check string) "exec leaves and attempt histories" expected
    (Disco_obs.Trace.to_json (Disco_obs.Trace.finish tr ~now:(Clock.now clock)))

(* -- batched transport (DESIGN.md Section 4e) -- *)

(* [n_extents] Person extents all bound to ONE repository/source, so a
   round over them exercises per-source grouping. *)
let make_shared_env ?metrics ~batch ~n_extents () =
  let clock = Clock.create () in
  let cost = Cost_model.create () in
  let db = Disco_relation.Database.create ~name:"db" in
  let source =
    Source.create ~id:"shared" ~address:addr
      ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.0; jitter = 0.0 }
      (Source.Relational db)
  in
  let bindings =
    List.init n_extents (fun i ->
        ignore
          (Datagen.table_of db ~name:(Fmt.str "person%d" i)
             Datagen.person_schema
             (Datagen.person_rows ~seed:i ~n:10));
        {
          Runtime.b_extent = Fmt.str "person%d" i;
          b_repo = "r0";
          b_source = source;
          b_replicas = [];
          b_wrapper = Wrapper.sql_wrapper ();
          b_map = Typemap.identity;
          b_check = None;
        })
  in
  (Runtime.env (Runtime.Config.make ?metrics ~batch ~clock ~cost ()) bindings, clock, cost)

let shared_plan n =
  Plan.implement
    (Expr.Union
       (List.init n (fun i ->
            Expr.Map
              ( Expr.Submit
                  ( "r0",
                    Expr.Select (Expr.Get (Fmt.str "person%d" i), gt 10) ),
                Expr.Hscalar (Expr.Attr [ "name" ]) ))))

let test_runtime_batched_round_trips () =
  let run batch =
    let env, _, _ = make_shared_env ~batch ~n_extents:4 () in
    Runtime.execute env (shared_plan 4)
  in
  let a_b, s_b = run true and a_u, s_u = run false in
  (match (a_b, a_u) with
  | Runtime.Complete vb, Runtime.Complete vu ->
      Alcotest.check check_value "batched answer = unbatched" vu vb
  | _ -> Alcotest.fail "expected complete answers");
  Alcotest.(check int) "unbatched: one round-trip per exec" 4
    s_u.Runtime.round_trips;
  Alcotest.(check int) "batched: one round-trip per source" 1
    s_b.Runtime.round_trips;
  Alcotest.(check int) "same execs issued" s_u.Runtime.execs_issued
    s_b.Runtime.execs_issued;
  Alcotest.(check int) "same tuples shipped" s_u.Runtime.tuples_shipped
    s_b.Runtime.tuples_shipped;
  Alcotest.(check bool) "batched not slower" true
    (s_b.Runtime.elapsed_ms <= s_u.Runtime.elapsed_ms)

let test_runtime_dedup_shared_scan () =
  (* the same (repo, expr) appears more than once in one plan: computed
     once, substituted everywhere, with or without batching.  A duplicate
     may be one shared value, a separately built equal value, or the
     other side of a self-join. *)
  let names_of () =
    Expr.Map
      ( Expr.Submit
          ("r0", Expr.Select (Expr.Get (Fmt.str "person%d" 0), gt 10)),
        Expr.Hscalar (Expr.Attr [ "name" ]) )
  in
  let part = names_of () and twin = names_of () in
  Alcotest.(check bool) "twins are equal but not shared" true
    (Expr.equal part twin && part != twin);
  let self_join =
    Expr.Map
      ( Expr.Join
          ( bind "x" (Expr.Submit ("r0", get0)),
            bind "y" (Expr.Submit ("r0", Expr.Get (Fmt.str "person%d" 0))),
            [ ([ "x"; "id" ], [ "y"; "id" ]) ] ),
        Expr.Hstruct
          [ ("a", Expr.Attr [ "x"; "name" ]); ("b", Expr.Attr [ "y"; "name" ]) ]
      )
  in
  let names = "select x.name from x in person0 where x.salary > 10" in
  let resolve name =
    let db = Disco_relation.Database.create ~name:"db" in
    Some
      (Disco_relation.Table.to_bag
         (Datagen.table_of db ~name Datagen.person_schema
            (Datagen.person_rows ~seed:0 ~n:10)))
  in
  let eval oql = Eval.eval_string (Eval.env ~resolve ()) oql in
  (* (case, plan, the same query in OQL, duplicate occurrences) *)
  let cases =
    [
      ("shared", Expr.Union [ part; part ], Fmt.str "union(%s, %s)" names names, 1);
      ( "shared and twins",
        Expr.Union [ part; part; twin; names_of () ],
        Fmt.str "union(%s, %s, %s, %s)" names names names names,
        3 );
      ( "self-join",
        self_join,
        "select struct(a: x.name, b: y.name) from x in person0, y in person0 \
         where x.id = y.id",
        1 );
    ]
  in
  List.iter
    (fun (case, logical, oql, dups) ->
      let plan = Plan.implement logical in
      let expected = eval oql in
      Alcotest.(check bool) (case ^ ": non-empty") true (V.cardinal expected > 0);
      List.iter
        (fun batch ->
          let label what = Fmt.str "%s, batch=%b: %s" case batch what in
          let metrics = Disco_obs.Metrics.create () in
          let env, _, _ = make_shared_env ~metrics ~batch ~n_extents:1 () in
          let answer, stats = Runtime.execute env plan in
          (match answer with
          | Runtime.Complete v ->
              Alcotest.check check_value
                (label "shared answer substituted everywhere") expected v
          | Runtime.Partial _ -> Alcotest.fail (label "expected complete"));
          Alcotest.(check int)
            (label "the unique exec issued once") 1 stats.Runtime.execs_issued;
          Alcotest.(check int)
            (label "dedup hits counted") dups
            (Disco_obs.Metrics.find_counter metrics "runtime.batch.dedup_hits");
          Alcotest.(check int) (label "one round-trip") 1 stats.Runtime.round_trips)
        [ true; false ])
    cases

(* -- scheduler equivalence -- *)

(* An env built over an explicit [Scheduler.of_clock] must reproduce the
   default clock-only configuration bit-for-bit: same answer, same
   stats, same final clock reading. The virtual scheduler is the pinned
   deterministic path; this is the contract that lets serve mode swap in
   a wall scheduler without touching any simulation result. *)
let test_scheduler_equivalence () =
  let run use_sched =
    let clock = Clock.create () in
    let cost = Cost_model.create () in
    let mk i =
      let db = Datagen.person_db ~seed:i ~name:(Fmt.str "person%d" i) ~n:20 in
      let source =
        Source.create ~id:(Fmt.str "src%d" i) ~address:addr
          ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.05; jitter = 0.25 }
          (Source.Relational db)
      in
      {
        Runtime.b_extent = Fmt.str "person%d" i;
        b_repo = Fmt.str "r%d" i;
        b_source = source;
        b_replicas = [];
        b_wrapper = Wrapper.sql_wrapper ();
        b_map = Typemap.identity;
        b_check = None;
      }
    in
    let bindings = List.map mk [ 0; 1 ] in
    let sched = if use_sched then Some (Scheduler.of_clock clock) else None in
    let env =
      Runtime.env (Runtime.Config.make ?sched ~clock ~cost ()) bindings
    in
    let answer, stats = Runtime.execute env paper_plan in
    (answer, stats, Clock.now clock)
  in
  let a0, s0, t0 = run false in
  let a1, s1, t1 = run true in
  (match (a0, a1) with
  | Runtime.Complete v0, Runtime.Complete v1 ->
      Alcotest.check check_value "identical answers" v0 v1
  | _ -> Alcotest.fail "expected complete answers");
  Alcotest.(check (float 0.0))
    "identical elapsed" s0.Runtime.elapsed_ms s1.Runtime.elapsed_ms;
  Alcotest.(check int) "identical round trips" s0.Runtime.round_trips
    s1.Runtime.round_trips;
  Alcotest.(check int) "identical execs" s0.Runtime.execs_answered
    s1.Runtime.execs_answered;
  Alcotest.(check (float 0.0)) "identical final clock reading" t0 t1

let test_runtime_map_namespace () =
  (* extent with a type map: query in mediator names, source stores
     different names, answers come back in mediator names *)
  let clock = Clock.create () in
  let cost = Cost_model.create () in
  let db = Disco_relation.Database.create ~name:"db" in
  ignore
    (Datagen.table_of db ~name:"person0" Datagen.person_schema
       (Datagen.person_rows ~seed:1 ~n:10));
  let source = Source.create ~id:"s" ~address:addr (Source.Relational db) in
  let map =
    Typemap.make
      ~collection:("person0", "personprime0")
      [ ("name", "n"); ("salary", "s") ]
  in
  let binding =
    {
      Runtime.b_extent = "personprime0";
      b_repo = "r0";
      b_source = source;
      b_replicas = [];
      b_wrapper = Wrapper.sql_wrapper ();
      b_map = map;
      b_check = None;
    }
  in
  let env = Runtime.env (Runtime.Config.make ~clock ~cost ()) [ binding ] in
  let plan =
    Plan.Exec
      ( "r0",
        Expr.Select
          ( Expr.Get "personprime0",
            Expr.Cmp (Expr.Gt, Expr.Attr [ "s" ], Expr.Const (V.Int 10)) ) )
  in
  match Runtime.execute env plan with
  | Runtime.Complete v, _ ->
      Alcotest.(check bool) "rows returned" true (V.cardinal v > 0);
      List.iter
        (fun p ->
          match p with
          | V.Struct [ ("id", _); ("n", _); ("s", sal) ] ->
              Alcotest.(check bool) "filter applied at source" true
                (V.to_int sal > 10)
          | _ -> Alcotest.fail ("bad mediator-ns struct: " ^ V.to_string p))
        (V.elements v)
  | Runtime.Partial _, _ -> Alcotest.fail "expected complete"

let () =
  Alcotest.run "disco_runtime"
    [
      ( "cost",
        [
          Alcotest.test_case "default 0/1" `Quick test_cost_default;
          Alcotest.test_case "exact smoothing" `Quick test_cost_exact_smoothing;
          Alcotest.test_case "close match" `Quick test_cost_close_match;
          Alcotest.test_case "history bound" `Quick test_cost_history_bound;
          Alcotest.test_case "batch calibration" `Quick
            test_cost_batch_calibration;
          Alcotest.test_case "indexed basis" `Quick test_cost_indexed_basis;
          Alcotest.test_case "exact history bound" `Quick test_cost_exact_bound;
          Alcotest.test_case "recording allocates nothing" `Quick
            test_cost_record_allocates_nothing;
        ] );
      ( "plan",
        [
          Alcotest.test_case "implementation rules" `Quick test_implement_shapes;
          Alcotest.test_case "logical roundtrip" `Quick test_plan_logical_roundtrip;
          Alcotest.test_case "hash vs nested loop" `Quick test_hash_vs_nested_loop;
          Alcotest.test_case "semijoin variants" `Quick test_semijoin_variants;
          Alcotest.test_case "hash build side" `Quick test_hash_build_side;
          Alcotest.test_case "exec substitution required" `Quick
            test_run_local_requires_substitution;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "default costs push down" `Quick
            test_optimizer_default_pushes_down;
          Alcotest.test_case "capability respected" `Quick
            test_optimizer_respects_capability;
          Alcotest.test_case "learning flips the plan" `Quick test_optimizer_learns;
          Alcotest.test_case "pushes into union branches" `Quick
            test_optimizer_pushes_into_union_branches;
          Alcotest.test_case "prices from a recorded scan" `Quick
            test_optimizer_prices_from_recorded_scan;
          Alcotest.test_case "candidate dedup" `Quick
            test_optimizer_dedups_candidates;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "complete answer" `Quick test_runtime_complete;
          Alcotest.test_case "partial + resubmit" `Quick
            test_runtime_partial_and_resubmit;
          Alcotest.test_case "all blocked" `Quick test_runtime_all_blocked;
          Alcotest.test_case "available side folded" `Quick test_runtime_fold_ready;
          Alcotest.test_case "wrapper refusal" `Quick test_runtime_wrapper_refusal;
          Alcotest.test_case "run-time type check" `Quick test_runtime_type_check;
          Alcotest.test_case "type maps end to end" `Quick test_runtime_map_namespace;
          Alcotest.test_case "scheduler equivalence" `Quick
            test_scheduler_equivalence;
        ] );
      ( "retry",
        [
          Alcotest.test_case "re-poll recovers" `Quick test_retry_recovers;
          Alcotest.test_case "attempts exhaust" `Quick test_retry_exhausts;
          Alcotest.test_case "replica hedging" `Quick test_retry_hedge;
          Alcotest.test_case "circuit breaker" `Quick test_retry_breaker;
          Alcotest.test_case "failover records replica version" `Quick
            test_failover_records_replica_version;
          Alcotest.test_case "one round's drain pinned" `Quick
            test_retry_drain_pinned;
        ] );
      ( "batching",
        [
          Alcotest.test_case "grouped round-trips" `Quick
            test_runtime_batched_round_trips;
          Alcotest.test_case "shared-scan dedup" `Quick
            test_runtime_dedup_shared_scan;
        ] );
    ]
