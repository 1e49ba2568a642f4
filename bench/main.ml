(* The Disco experiment harness.

   The paper (INRIA RR-2704 / ICDCS'96) is a design paper: its two figures
   are architecture diagrams and it reports no measurements. Each
   experiment below (E1-E6, E8-E14, E16-E18, the soak harness, plus
   ablations A1-A3, indexed in DESIGN.md and EXPERIMENTS.md) quantifies
   one of the paper's load-bearing claims, printing a table. The
   mediator's per-layer wall-clock cost is measured by benchmark/
   (disco_bench), not here.

   Every mediator built here carries a shared trace sink, so each
   experiment additionally emits one machine-readable JSON line with its
   per-phase virtual-time breakdown and metric counters.

   Run everything:            dune exec bench/main.exe
   One experiment:            dune exec bench/main.exe -- --experiment e4
   Scale trial counts:        dune exec bench/main.exe -- --trials 20 *)

module V = Disco_value.Value
module Shard = Disco_shard.Shard
module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Clock = Disco_source.Clock
module Datagen = Disco_source.Datagen
module Database = Disco_relation.Database
module Typemap = Disco_odl.Typemap
module Oql = Disco_oql.Parser
module Eval = Disco_oql.Eval
module Expr = Disco_algebra.Expr
module Compile = Disco_algebra.Compile
module Rules = Disco_algebra.Rules
module Wrapper = Disco_wrapper.Wrapper
module Cost_model = Disco_cost.Cost_model
module Plan = Disco_physical.Plan
module Optimizer = Disco_optimizer.Optimizer
module Runtime = Disco_runtime.Runtime
module Mediator = Disco_core.Mediator
module Answer_cache = Disco_cache.Answer_cache
module Resubmission = Disco_cache.Resubmission
module Maintenance = Disco_core.Maintenance
module Composition = Disco_core.Composition
module Trace = Disco_obs.Trace
module Metrics = Disco_obs.Metrics
module Registry = Disco_odl.Registry
module Odl_parser = Disco_odl.Odl_parser
module Check = Disco_check.Check
module Analysis = Disco_analysis.Analysis

let header title = Fmt.pr "@.======== %s ========@." title

let table ~columns rows =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length c) rows)
      columns
  in
  let print_row cells =
    let padded =
      List.map2 (fun w c -> c ^ String.make (w - String.length c) ' ') widths cells
    in
    Fmt.pr "| %s |@." (String.concat " | " padded)
  in
  print_row columns;
  Fmt.pr "|%s|@."
    (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter print_row rows

(* -- machine-readable timing -- *)

(* Every mediator below shares one trace sink.  It folds each finished
   trace into a per-phase (count, total virtual ms) table; the driver
   prints the table as one JSON line after each experiment and resets. *)
let phase_acc : (string, int * float) Hashtbl.t = Hashtbl.create 16
let traces_seen = ref 0
let bench_metrics = Metrics.create ()

let bench_sink (tr : Trace.trace) =
  incr traces_seen;
  let rec walk (s : Trace.span) =
    let count, total =
      Option.value (Hashtbl.find_opt phase_acc s.Trace.s_name) ~default:(0, 0.0)
    in
    Hashtbl.replace phase_acc s.Trace.s_name (count + 1, total +. s.Trace.s_elapsed_ms);
    List.iter walk s.Trace.s_children
  in
  walk tr.Trace.t_root

let reset_observations () =
  Hashtbl.reset phase_acc;
  traces_seen := 0;
  Metrics.reset bench_metrics

(* One JSON record per experiment, accumulated across the run and written
   to BENCH_RESULTS.json at exit (CI uploads the file as an artifact). *)
let bench_results : string list ref = ref []

let capture_results name =
  let phase_count p =
    match Hashtbl.find_opt phase_acc p with Some (c, _) -> c | None -> 0
  in
  let virtual_ms =
    match Metrics.find_histogram bench_metrics "query.elapsed_virtual_ms" with
    | Some h ->
        Fmt.str "{\"count\":%d,\"sum\":%.1f,\"min\":%.1f,\"max\":%.1f}"
          h.Metrics.h_count h.Metrics.h_sum h.Metrics.h_min h.Metrics.h_max
    | None -> "null"
  in
  bench_results :=
    Fmt.str
      "{\"experiment\":%S,\"trials\":%d,\"queries\":%d,\"virtual_ms\":%s,\"execs\":%d,\"tuples_shipped\":%d,\"batch_rounds\":%d,\"batch_dedup_hits\":%d,\"retry_attempts\":%d,\"retry_recovered\":%d,\"hedge_issued\":%d,\"hedge_won\":%d,\"breaker_open\":%d,\"shard_pruned\":%d,\"shard_scanned\":%d,\"shard_rounds\":%d}"
      name !traces_seen
      (Metrics.find_counter bench_metrics "mediator.queries")
      virtual_ms (phase_count "exec")
      (Metrics.find_counter bench_metrics "exec.tuples_shipped")
      (Metrics.find_counter bench_metrics "runtime.batch.rounds")
      (Metrics.find_counter bench_metrics "runtime.batch.dedup_hits")
      (Metrics.find_counter bench_metrics "runtime.retry.attempts")
      (Metrics.find_counter bench_metrics "runtime.retry.recovered")
      (Metrics.find_counter bench_metrics "runtime.hedge.issued")
      (Metrics.find_counter bench_metrics "runtime.hedge.won")
      (Metrics.find_counter bench_metrics "runtime.breaker.open")
      (Metrics.find_counter bench_metrics "shard.pruned")
      (Metrics.find_counter bench_metrics "shard.scanned")
      (Metrics.find_counter bench_metrics "shard.rounds")
    :: !bench_results

let write_results_file () =
  let oc = open_out "BENCH_RESULTS.json" in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.rev !bench_results));
  output_string oc "\n]\n";
  close_out oc;
  Fmt.pr "@.wrote BENCH_RESULTS.json (%d experiments)@."
    (List.length !bench_results)

let emit_summary name =
  let phases =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) phase_acc []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (phase, (count, total)) ->
           Fmt.str "%S:{\"count\":%d,\"total_ms\":%.1f}" phase count total)
    |> String.concat ","
  in
  Fmt.pr "@.TRACE_SUMMARY {\"experiment\":%S,\"traces\":%d,\"phases\":{%s},\"metrics\":%s}@."
    name !traces_seen phases
    (Metrics.to_json bench_metrics);
  capture_results name

(* Mediators used by the experiments all route traces and metrics into
   the shared observers above. *)
let mk_mediator ?clock ?cost ?cache ?(batch = true) ?retry ~name () =
  Mediator.create
    ~config:
      {
        Mediator.Config.default with
        clock;
        cost;
        cache;
        batch;
        retry;
        trace_sink = Some bench_sink;
        metrics = bench_metrics;
      }
    ~name ()

let qopts ?(timeout_ms = 1000.0) ?(semantics = Mediator.Partial_answers) () =
  { Mediator.Query_opts.default with timeout_ms; semantics }

(* --trials N scales the statistical experiments (e1/e10/e11). *)
let trials_override = ref None
let trials ~default = Option.value !trials_override ~default

(* -- shared builders -- *)

let person_source ?(latency = { Source.base_ms = 10.0; per_row_ms = 0.01; jitter = 0.0 })
    ?schedule ~index ~rows () =
  let name = Fmt.str "person%d" index in
  let db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of db ~name Datagen.person_schema
       (Datagen.person_rows ~seed:(1000 + index) ~n:rows));
  Source.create ~id:name
    ~address:(Source.address ~host:(Fmt.str "site%d" index) ~db_name:"db" ~ip:"0.0.0.0" ())
    ~latency ?schedule (Source.Relational db)

(* A mediator federating [n] person sources under one Person type. *)
let person_federation ?latency ?(rows = 5) ?(wrapper = "WrapperPostgres")
    ?(schedule_of = fun _ -> Schedule.always_up) ?cache n =
  let m = mk_mediator ~name:(Fmt.str "fed%d" n) ?cache () in
  Mediator.load_odl m
    (Fmt.str
       {|w0 := %s();
         interface Person (extent person) {
           attribute Short id;
           attribute String name;
           attribute Short salary; }|}
       wrapper);
  for i = 0 to n - 1 do
    Mediator.register_source m ~name:(Fmt.str "r%d" i)
      (person_source ?latency ~index:i ~rows ~schedule:(schedule_of i) ());
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="site%d", name="db", address="0.0.0.0");
           extent person%d of Person wrapper w0 repository r%d;|}
         i i i i)
  done;
  m

let paper_query = "select x.name from x in person where x.salary > 10"

(* ==================================================================== *)
(* E1 - availability of answers vs number of sources (Section 1)        *)
(* ==================================================================== *)

let e1 () =
  header "E1: answer availability vs number of sources (Section 1)";
  Fmt.pr
    "claim: under wait-all semantics P(complete) = p^n collapses as n grows;@.";
  Fmt.pr "       Disco's partial answers still deliver the available fraction.@.@.";
  let trials = trials ~default:200 in
  let rows = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun n ->
          let m =
            person_federation
              ~schedule_of:(fun i ->
                Schedule.flaky ~seed:(7919 * (i + 1)) ~period:1000.0
                  ~availability:p)
              n
          in
          let complete = ref 0 and partial_fraction = ref 0.0 in
          for trial = 0 to trials - 1 do
            (* jump to the next availability period so draws are fresh *)
            Clock.advance_to (Mediator.clock m) (float_of_int trial *. 1000.0);
            let o = Mediator.query ~opts:(qopts ~timeout_ms:400.0 ()) m paper_query in
            match o.Mediator.answer with
            | Mediator.Complete _ -> incr complete
            | Mediator.Partial { unavailable; _ } ->
                let up = n - List.length unavailable in
                partial_fraction :=
                  !partial_fraction +. (float_of_int up /. float_of_int n)
            | Mediator.Unavailable _ -> ()
          done;
          let complete_rate = float_of_int !complete /. float_of_int trials in
          let predicted = p ** float_of_int n in
          let avg_fraction =
            (float_of_int !complete +. !partial_fraction) /. float_of_int trials
          in
          rows :=
            [
              Fmt.str "%.2f" p;
              string_of_int n;
              Fmt.str "%.3f" predicted;
              Fmt.str "%.3f" complete_rate;
              Fmt.str "%.3f" avg_fraction;
            ]
            :: !rows)
        [ 1; 2; 4; 8; 16; 32; 64 ])
    [ 0.90; 0.99 ];
  table
    ~columns:
      [ "p(up)"; "sources"; "p^n (wait-all)"; "measured complete"; "disco data fraction" ]
    (List.rev !rows)

(* ==================================================================== *)
(* E2 - the distributed architecture of Figure 1                        *)
(* ==================================================================== *)

let e2 () =
  header "E2: component message flow through the Figure 1 architecture";
  Fmt.pr "A -> mediator -> {mediators} -> wrappers -> sources, 2 children x 3 sources@.@.";
  (* each mediator keeps its own clock: a child runs its queries inside
     the parent's wire call, and on a shared clock would move it *)
  let child k =
    let m = mk_mediator ~name:(Fmt.str "child%d" k) ~clock:(Clock.create ()) () in
    Mediator.load_odl m
      {|w0 := WrapperPostgres();
        interface Person (extent person) {
          attribute Short id;
          attribute String name;
          attribute Short salary; }|};
    for i = 0 to 2 do
      let index = (3 * k) + i in
      Mediator.register_source m ~name:(Fmt.str "r%d" i)
        (person_source ~index ~rows:10 ());
      Mediator.load_odl m
        (Fmt.str
           {|r%d := Repository(host="site%d", name="db", address="0.0.0.0");
             extent person%d of Person wrapper w0 repository r%d;|}
           i index index i)
    done;
    m
  in
  let c0 = child 0 and c1 = child 1 in
  (* each child re-exports its implicit extent under the name the parent
     declares as an extent *)
  Mediator.load_odl c0 "define half0 as select p from p in person;";
  Mediator.load_odl c1 "define half1 as select p from p in person;";
  let parent = mk_mediator ~name:"parent" ~clock:(Clock.create ()) () in
  let attach k m =
    let src, wrap = Composition.as_source m in
    Mediator.register_source parent ~name:(Fmt.str "rm%d" k) src;
    Mediator.register_wrapper parent ~name:(Fmt.str "wm%d" k) wrap
  in
  attach 0 c0;
  attach 1 c1;
  Mediator.load_odl parent
    {|rm0 := Repository(host="child0", name="mediator", address="mediator://");
      rm1 := Repository(host="child1", name="mediator", address="mediator://");
      wm0 := WrapperMediator();
      wm1 := WrapperMediator();
      interface Person (extent people) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent half0 of Person wrapper wm0 repository rm0;
      extent half1 of Person wrapper wm1 repository rm1;|};
  let o = Mediator.query parent "select x.name from x in people where x.salary > 10" in
  let n_answer =
    match o.Mediator.answer with
    | Mediator.Complete v -> V.cardinal v
    | _ -> -1
  in
  let child_stats m =
    List.fold_left
      (fun (calls, rows) (_, s) ->
        (calls + s.Source.calls_answered, rows + s.Source.rows_shipped))
      (0, 0) (Mediator.source_stats m)
  in
  let c0_calls, c0_rows = child_stats c0 in
  let c1_calls, c1_rows = child_stats c1 in
  table
    ~columns:[ "component"; "queries in"; "subqueries out"; "tuples returned up" ]
    [
      [ "application"; "-"; "1"; string_of_int n_answer ];
      [
        "parent mediator";
        "1";
        string_of_int o.Mediator.stats.Runtime.execs_issued;
        string_of_int o.Mediator.stats.Runtime.tuples_shipped;
      ];
      [
        "child mediators";
        "2";
        Fmt.str "%d + %d" c0_calls c1_calls;
        Fmt.str "%d + %d (measured)" c0_rows c1_rows;
      ];
      [ "wrappers / sources"; "6"; "6 native queries"; "selected tuples only" ];
    ];
  Fmt.pr "answer size through two mediator levels: %d@." n_answer;
  if n_answer <= 0 then failwith "E2: no complete answer through the children"

(* ==================================================================== *)
(* E3 - DBA maintenance cost (Sections 1.2, 2.1, 5)                     *)
(* ==================================================================== *)

let e3 () =
  header "E3: cost of integrating the n-th source (Sections 1.2 / 5)";
  let rows =
    List.map
      (fun n ->
        let d = Maintenance.disco ~n in
        let u = Maintenance.explicit_union ~n in
        let g = Maintenance.global_schema ~n in
        [
          string_of_int n;
          Fmt.str "%d stmt / query %d nodes" d.Maintenance.statements
            d.Maintenance.query_size;
          Fmt.str "%d stmts / query %d nodes" u.Maintenance.statements
            u.Maintenance.query_size;
          Fmt.str "%d stmt / %d entities re-resolved" g.Maintenance.statements
            g.Maintenance.redefined_entities;
        ])
      [ 1; 2; 5; 10; 20; 50 ]
  in
  table
    ~columns:[ "n"; "DISCO extents"; "explicit union"; "unified global schema" ]
    rows;
  let m = person_federation 3 in
  let before = Mediator.query m paper_query in
  Mediator.register_source m ~name:"r3" (person_source ~index:3 ~rows:5 ());
  Mediator.load_odl m
    {|r3 := Repository(host="site3", name="db", address="0.0.0.0");
      extent person3 of Person wrapper w0 repository r3;|};
  let after = Mediator.query m paper_query in
  let size o =
    match o.Mediator.answer with Mediator.Complete v -> V.cardinal v | _ -> -1
  in
  Fmt.pr
    "@.operational check: the same query text answered %d rows over 3 \
     sources, %d over 4 after one ODL statement.@."
    (size before) (size after)

(* ==================================================================== *)
(* E4 - capability-driven pushdown (Section 3.2)                        *)
(* ==================================================================== *)

let e4 () =
  header "E4: tuples shipped vs wrapper capability (Section 3.2)";
  let n_rows = 10_000 in
  Fmt.pr "one source, %d tuples, query selectivity swept by threshold@.@." n_rows;
  let wrappers = [ "WrapperPostgres"; "WrapperSelect"; "WrapperProject"; "WrapperScan" ] in
  let selectivities = [ (0.001, 500); (0.01, 496); (0.1, 451); (0.5, 255) ] in
  let rows =
    List.concat_map
      (fun (sel, threshold) ->
        List.map
          (fun ctor ->
            let m = person_federation ~rows:n_rows ~wrapper:ctor 1 in
            let q =
              Fmt.str "select x.name from x in person where x.salary > %d"
                threshold
            in
            let o = Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m q in
            let answer =
              match o.Mediator.answer with
              | Mediator.Complete v -> V.cardinal v
              | _ -> -1
            in
            [
              Fmt.str "%.3f" sel;
              ctor;
              string_of_int answer;
              string_of_int o.Mediator.stats.Runtime.tuples_shipped;
              Fmt.str "%.1f" o.Mediator.stats.Runtime.elapsed_ms;
            ])
          wrappers)
      selectivities
  in
  table
    ~columns:[ "selectivity"; "wrapper"; "answer rows"; "tuples shipped"; "virtual ms" ]
    rows;
  (* aggregates are outside the algebra, but their closed fragments still
     push down (hybrid fragment execution) *)
  Fmt.pr "@.aggregate query (hybrid path): sum over the 0.01-selectivity filter@.";
  let agg_rows =
    List.map
      (fun ctor ->
        let m = person_federation ~rows:n_rows ~wrapper:ctor 1 in
        let o =
          Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m
            "sum(select x.salary from x in person where x.salary > 496)"
        in
        [
          ctor;
          (match o.Mediator.answer with
          | Mediator.Complete v -> V.to_string v
          | _ -> "?");
          string_of_int o.Mediator.stats.Runtime.tuples_shipped;
        ])
      wrappers
  in
  table ~columns:[ "wrapper"; "sum"; "tuples shipped" ] agg_rows

(* ==================================================================== *)
(* E5 - the learned cost model (Section 3.3)                            *)
(* ==================================================================== *)

let e5 () =
  header "E5a: cost-estimate error vs recorded exec calls (Section 3.3)";
  let m = person_federation ~rows:2_000 1 in
  let cost = Mediator.cost_model m in
  let expr k =
    Expr.Map
      ( Expr.Select
          ( Expr.Get "person0",
            Expr.Cmp (Expr.Gt, Expr.Attr [ "salary" ], Expr.Const (V.Int k)) ),
        Expr.Hscalar (Expr.Attr [ "name" ]) )
  in
  let rows = ref [] in
  for round = 0 to 9 do
    let threshold = 50 + (round * 40) in
    let est = Cost_model.estimate cost ~repo:"r0" (expr threshold) in
    let q =
      Fmt.str "select x.name from x in person where x.salary > %d" threshold
    in
    let o = Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m q in
    let actual_rows = o.Mediator.stats.Runtime.tuples_shipped in
    let basis =
      match est.Cost_model.est_basis with
      | Cost_model.Default -> "default"
      | Cost_model.Indexed -> "indexed"
      | Cost_model.Close k -> Fmt.str "close(%d)" k
      | Cost_model.Exact k -> Fmt.str "exact(%d)" k
    in
    let err =
      if actual_rows = 0 then 0.0
      else
        Float.abs (est.Cost_model.est_rows -. float_of_int actual_rows)
        /. float_of_int actual_rows
    in
    rows :=
      [
        string_of_int round;
        basis;
        Fmt.str "%.0f" est.Cost_model.est_rows;
        string_of_int actual_rows;
        Fmt.str "%.0f%%" (err *. 100.0);
      ]
      :: !rows
  done;
  (* repeated identical queries: the exact-match path converges *)
  for round = 10 to 13 do
    let threshold = 250 in
    let est = Cost_model.estimate cost ~repo:"r0" (expr threshold) in
    let q =
      Fmt.str "select x.name from x in person where x.salary > %d" threshold
    in
    let o = Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m q in
    let actual_rows = o.Mediator.stats.Runtime.tuples_shipped in
    let basis =
      match est.Cost_model.est_basis with
      | Cost_model.Default -> "default"
      | Cost_model.Indexed -> "indexed"
      | Cost_model.Close k -> Fmt.str "close(%d)" k
      | Cost_model.Exact k -> Fmt.str "exact(%d)" k
    in
    let err =
      if actual_rows = 0 then 0.0
      else
        Float.abs (est.Cost_model.est_rows -. float_of_int actual_rows)
        /. float_of_int actual_rows
    in
    rows :=
      [
        string_of_int round;
        basis;
        Fmt.str "%.0f" est.Cost_model.est_rows;
        string_of_int actual_rows;
        Fmt.str "%.0f%%" (err *. 100.0);
      ]
      :: !rows
  done;
  table
    ~columns:[ "round"; "estimate basis"; "predicted rows"; "actual rows"; "error" ]
    (List.rev !rows);
  Fmt.pr
    "(the close-match drift under the monotone threshold sweep is the data      skew@. effect the paper itself flags in Section 3.3; exact repeats      converge.)@.";

  header "E5b: with an empty cost store the optimizer pushes maximally";
  let located =
    Compile.locate
      ~repo_of:(fun _ -> Some "r0")
      (Result.get_ok
         (Compile.compile
            (Oql.parse "select x.name from x in person0 where x.salary > 10")))
  in
  let fresh = Cost_model.create () in
  let choice = Optimizer.optimize ~can_push:Rules.push_all ~cost:fresh located in
  let ops = Plan.mediator_op_count choice.Optimizer.plan in
  table
    ~columns:[ "cost store"; "chosen plan"; "mediator ops" ]
    [
      [ "empty (defaults)"; Plan.to_string choice.Optimizer.plan; string_of_int ops ];
    ];
  (* the acceptance claim, Section 3.3's default rule: the whole query
     runs at the source, so the plan is its one exec *)
  if ops <> 1 then
    failwith
      (Fmt.str "E5b: the empty-store plan has %d mediator ops, not 1" ops);

  header "E5c: an empty store pushes into every branch of a heterogeneous view";
  let kinds = [ "WrapperPostgres"; "WrapperSelect"; "WrapperProject"; "WrapperScan" ] in
  let per_kind = 8 and rows = 200 in
  let n = per_kind * List.length kinds in
  let kind_of i = List.nth kinds (i / per_kind) in
  let m = mk_mediator ~name:"e5c" () in
  let odl = Buffer.create 4096 in
  Buffer.add_string odl
    {|interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      define richp as select x from x in person where x.salary > 300;
|};
  List.iteri (fun k ctor -> Printf.bprintf odl "w%d := %s();\n" k ctor) kinds;
  for i = 0 to n - 1 do
    Mediator.register_source m ~name:(Fmt.str "r%d" i) (person_source ~index:i ~rows ());
    Printf.bprintf odl
      {|r%d := Repository(host="site%d", name="db", address="0.0.0.0");
        extent person%d of Person wrapper w%d repository r%d;
|}
      i i i (i / per_kind) i
  done;
  Mediator.load_odl m (Buffer.contents odl);
  let q = "select v.name from v in richp where v.id < 30" in
  let p = "(salary > 300 and id < 30)" in
  (* each branch as far as its wrapper's grammar goes: the whole query,
     the conjunction, or the bare scan (the project wrapper cannot drop
     the columns the mediator's select still reads) *)
  let branch i =
    match kind_of i with
    | "WrapperPostgres" -> Fmt.str "exec(r%d, map(name, select(%s, get(person%d))))" i p i
    | "WrapperSelect" -> Fmt.str "mkmap(name, exec(r%d, select(%s, get(person%d))))" i p i
    | _ -> Fmt.str "mkmap(name, mkselect(%s, exec(r%d, get(person%d))))" p i i
  in
  let pinned = Fmt.str "mkunion(%s)" (String.concat ", " (List.init n branch)) in
  let o = Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m q in
  let plan = Option.fold ~none:"-" ~some:Plan.to_string o.Mediator.plan in
  let shipped = o.Mediator.stats.Runtime.tuples_shipped in
  table
    ~columns:[ "wrapper"; "extents"; "branch as planned (first extent)" ]
    (List.mapi
       (fun k ctor -> [ ctor; Fmt.str "%d" per_kind; branch (k * per_kind) ])
       kinds);
  Fmt.pr "@.%s@." q;
  table
    ~columns:[ "plan"; "rows shipped" ]
    [
      [ "every branch a bare scan (ranked by mediator ops)"; string_of_int (n * rows) ];
      [ "every branch pushed (ranked by work pushed)"; string_of_int shipped ];
    ];
  if plan <> pinned then
    failwith (Fmt.str "E5c: the empty-store plan is not the pinned one:@.%s" plan);
  (* record every extent's bare scan, then a selection with constants
     never seen on a select-wrapper extent: priced from the recorded scan,
     it still runs at the source *)
  ignore (Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m "select x from x in person");
  let fresh = "select x.name from x in person9 where x.id = 7" in
  let o = Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m fresh in
  let plan = Option.fold ~none:"-" ~some:Plan.to_string o.Mediator.plan in
  table
    ~columns:[ "after the bare scans are recorded"; "plan"; "rows shipped" ]
    [ [ fresh; plan; string_of_int o.Mediator.stats.Runtime.tuples_shipped ] ];
  if plan <> "mkmap(name, exec(r9, select(id = 7, get(person9))))" then
    failwith (Fmt.str "E5c: the selection on person9 is not pushed: %s" plan)

(* ==================================================================== *)
(* E6 - partial evaluation (Section 4)                                  *)
(* ==================================================================== *)

let e6 () =
  header "E6: partial answers vs deadline; resubmission equivalence (Section 4)";
  let n = 16 in
  let rows = ref [] in
  List.iter
    (fun deadline ->
      (* even sources answer in ~10 ms; odd ones are slow (~80 ms) *)
      let m = person_federation n in
      for i = 0 to n - 1 do
        match Mediator.find_source m (Fmt.str "r%d" i) with
        | Some _ when i mod 2 = 0 -> ()
        | Some _ ->
            Mediator.register_source m ~name:(Fmt.str "r%d" i)
              (person_source
                 ~latency:{ Source.base_ms = 80.0; per_row_ms = 0.0; jitter = 0.0 }
                 ~index:i ~rows:5 ())
        | None -> ()
      done;
      let o = Mediator.query ~opts:(qopts ~timeout_ms:deadline ()) m paper_query in
      let kind, fraction =
        match o.Mediator.answer with
        | Mediator.Complete _ -> ("complete", 1.0)
        | Mediator.Partial { unavailable; _ } ->
            ( "partial",
              float_of_int (n - List.length unavailable) /. float_of_int n )
        | Mediator.Unavailable _ -> ("none", 0.0)
      in
      Clock.advance (Mediator.clock m) 1000.0;
      let resubmitted = Mediator.resubmit m o.Mediator.answer in
      let reference = Mediator.query m paper_query in
      let equal =
        match (resubmitted.Mediator.answer, reference.Mediator.answer) with
        | Mediator.Complete a, Mediator.Complete b -> V.equal a b
        | _ -> false
      in
      rows :=
        [
          Fmt.str "%.0f" deadline;
          kind;
          Fmt.str "%.2f" fraction;
          (if equal then "yes" else "NO");
        ]
        :: !rows)
    [ 5.0; 15.0; 40.0; 75.0; 120.0 ];
  table
    ~columns:
      [ "deadline (ms)"; "answer"; "source fraction in data"; "resubmit = full?" ]
    (List.rev !rows)

(* ==================================================================== *)
(* E8 - modeling features: maps, subtyping, views (Sections 2.2-2.3)    *)
(* ==================================================================== *)

let e8 () =
  header "E8: reconciliation views return the paper's expected answers";
  let m = mk_mediator ~name:"e8" () in
  let mk_source name schema rows =
    let db = Database.create ~name:"db" in
    ignore (Datagen.table_of db ~name schema rows);
    Source.create ~id:name
      ~address:(Source.address ~host:name ~db_name:"db" ~ip:"0.0.0.0" ())
      (Source.Relational db)
  in
  Mediator.register_source m ~name:"r0"
    (mk_source "person0" Datagen.person_schema
       [ [| V.Int 1; V.String "Mary"; V.Int 200 |] ]);
  Mediator.register_source m ~name:"r1"
    (mk_source "person1" Datagen.person_schema
       [
         [| V.Int 1; V.String "Mary"; V.Int 50 |];
         [| V.Int 2; V.String "Sam"; V.Int 50 |];
       ]);
  Mediator.register_source m ~name:"r5"
    (mk_source "persontwo0" Datagen.person_two_schema
       [ [| V.Int 5; V.String "Pat"; V.Int 30; V.Int 12 |] ]);
  Mediator.register_source m ~name:"r6"
    (mk_source "student0" Datagen.person_schema
       [ [| V.Int 9; V.String "Stu"; V.Int 20 |] ]);
  Mediator.load_odl m
    {|
    r6 := Repository(host="ens", name="db", address="4");
    r0 := Repository(host="rodin", name="db", address="1");
    r1 := Repository(host="umiacs", name="db", address="2");
    r5 := Repository(host="inria", name="db", address="3");
    w0 := WrapperPostgres();
    interface Person (extent person) {
      attribute Short id;
      attribute String name;
      attribute Short salary; }
    extent person0 of Person wrapper w0 repository r0;
    extent person1 of Person wrapper w0 repository r1;
    interface PersonTwo {
      attribute Short id;
      attribute String name;
      attribute Short regular;
      attribute Short consult; }
    extent persontwo0 of PersonTwo wrapper w0 repository r5;
    interface Student : Person { }
    extent student0 of Student wrapper w0 repository r6;
    define double as
      select struct(name: x.name, salary: x.salary + y.salary)
      from x in person0 and y in person1 where x.id = y.id;
    define multiple as
      select struct(name: x.name,
                    salary: sum(select z.salary from z in person where x.id = z.id))
      from x in person*;
    define personnew as
      union(select struct(name: x.name, salary: x.salary) from x in person,
            select struct(name: x.name, salary: x.regular + x.consult)
            from x in persontwo0);
  |};
  let run q =
    match (Mediator.query m q).Mediator.answer with
    | Mediator.Complete v -> V.to_string v
    | Mediator.Partial _ -> "(partial)"
    | Mediator.Unavailable _ -> "(unavailable)"
  in
  table
    ~columns:[ "view / query"; "expected (paper)"; "measured" ]
    [
      [ "double"; "Mary: 200 + 50 = 250"; run "double" ];
      [
        "multiple (Mary)";
        "250 summed across sources";
        run "select r.salary from r in multiple where r.name = \"Mary\"";
      ];
      [
        "personnew (Pat)";
        "42 = regular 30 + consult 12";
        run "select p.salary from p in personnew where p.name = \"Pat\"";
      ];
      [
        "count(person) / count(person*)";
        "3 direct / 4 with the Student extent";
        Fmt.str "%s / %s" (run "count(person)") (run "count(person*)");
      ];
    ]

(* ==================================================================== *)
(* E9 - the four unavailable-data semantics (Section 4)                 *)
(* ==================================================================== *)

let e9 () =
  header "E9: semantics for unavailable data (Section 4)";
  let n = 16 in
  let rows = ref [] in
  List.iter
    (fun p ->
      List.iter
        (fun (label, semantics) ->
          let m =
            person_federation
              ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.0; jitter = 0.0 }
              ~schedule_of:(fun i ->
                Schedule.flaky ~seed:(31 * (i + 1)) ~period:10_000.0
                  ~availability:p)
              n
          in
          let t0 = Clock.now (Mediator.clock m) in
          let o = Mediator.query ~opts:(qopts ~timeout_ms:200.0 ~semantics ()) m paper_query in
          let latency = Clock.now (Mediator.clock m) -. t0 in
          let quality =
            match o.Mediator.answer with
            | Mediator.Complete v -> Fmt.str "complete (%d rows)" (V.cardinal v)
            | Mediator.Partial { unavailable; _ } ->
                Fmt.str "partial, resubmittable (%d pending)"
                  (List.length unavailable)
            | Mediator.Unavailable _ -> "no answer"
          in
          rows :=
            [ Fmt.str "%.2f" p; label; Fmt.str "%.0f ms" latency; quality ]
            :: !rows)
        [
          ("wait-all", Mediator.Wait_all);
          ("null-sources", Mediator.Null_sources);
          ("skip-sources", Mediator.Skip_sources);
          ("disco partial", Mediator.Partial_answers);
        ])
    [ 0.50; 0.80; 0.95 ];
  table ~columns:[ "p(up)"; "semantics"; "virtual latency"; "answer" ] (List.rev !rows)

(* ==================================================================== *)
(* E10 - replication vs partial answers (extension; Section 1's          *)
(* "in the absence of replication" premise made concrete)               *)
(* ==================================================================== *)

let e10 () =
  header "E10: replication restores completeness; partial answers remain the fallback";
  Fmt.pr "16 sources at p(up)=0.90, k independent replicas per extent@.@.";
  let n = 16 and p = 0.90 in
  let trials = trials ~default:200 in
  let rows = ref [] in
  List.iter
    (fun k ->
      let m = mk_mediator ~name:(Fmt.str "e10_%d" k) () in
      Mediator.load_odl m
        {|w0 := WrapperPostgres();
          interface Person (extent person) {
            attribute Short id;
            attribute String name;
            attribute Short salary; }|};
      for i = 0 to n - 1 do
        (* primary + k replicas, each with an independent outage process *)
        let copies = k + 1 in
        let repo_names =
          List.init copies (fun c -> Fmt.str "r%d_%d" i c)
        in
        List.iteri
          (fun c repo ->
            let src =
              let name = Fmt.str "person%d" i in
              let db = Database.create ~name:"db" in
              ignore
                (Datagen.table_of db ~name Datagen.person_schema
                   (Datagen.person_rows ~seed:(1000 + i) ~n:5));
              Source.create
                ~id:(Fmt.str "%s_copy%d" name c)
                ~address:(Source.address ~host:repo ~db_name:"db" ~ip:"0" ())
                ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.0; jitter = 0.0 }
                ~schedule:
                  (Schedule.flaky ~seed:(7919 * ((i * 7) + c + 1)) ~period:1000.0
                     ~availability:p)
                (Source.Relational db)
            in
            Mediator.register_source m ~name:repo src;
            Mediator.load_odl m
              (Fmt.str {|%s := Repository(host="%s", name="db", address="0");|}
                 repo repo))
          repo_names;
        let primary = List.hd repo_names in
        let replicas =
          String.concat " "
            (List.map (fun r -> "replica " ^ r) (List.tl repo_names))
        in
        Mediator.load_odl m
          (Fmt.str "extent person%d of Person wrapper w0 repository %s %s;" i
             primary replicas)
      done;
      let complete = ref 0 in
      for trial = 0 to trials - 1 do
        Clock.advance_to (Mediator.clock m) (float_of_int trial *. 1000.0);
        match (Mediator.query ~opts:(qopts ~timeout_ms:400.0 ()) m paper_query).Mediator.answer with
        | Mediator.Complete _ -> incr complete
        | Mediator.Partial _ | Mediator.Unavailable _ -> ()
      done;
      let rate = float_of_int !complete /. float_of_int trials in
      let predicted = (1.0 -. ((1.0 -. p) ** float_of_int (k + 1))) ** float_of_int n in
      rows :=
        [
          string_of_int k;
          Fmt.str "%.3f" predicted;
          Fmt.str "%.3f" rate;
        ]
        :: !rows)
    [ 0; 1; 2 ];
  table
    ~columns:[ "replicas/extent"; "predicted complete"; "measured complete" ]
    (List.rev !rows);
  Fmt.pr
    "(replication buys completeness with storage and copy maintenance; the\n\
     partial-answer semantics needs neither — the paper's premise quantified.)@."

(* ==================================================================== *)
(* E11 - semantic answer cache: stale fallback, warm-up, resubmission   *)
(* (extension of the Section 4 staleness discussion)                    *)
(* ==================================================================== *)

let e11 () =
  header "E11: answer cache - stale fallback, warm-up, resubmission drain";
  (* Part 1: under heavy outages, Cached_fallback answers queries from
     cached fragments that plain partial evaluation leaves residual. *)
  Fmt.pr
    "part 1: 8 sources, p(up)=0.50 - fraction of extents contributing data\n\
     per query, and total tuples shipped, with and without the cache@.@.";
  let n = 8 and p = 0.50 in
  let trials = trials ~default:100 in
  let run_federation ~label ~semantics ~cache =
    let m =
      person_federation
        ~schedule_of:(fun i ->
          Schedule.flaky ~seed:(104729 * (i + 1)) ~period:1000.0
            ~availability:p)
        ?cache n
    in
    let data_fraction = ref 0.0 and shipped = ref 0 and complete = ref 0 in
    for trial = 0 to trials - 1 do
      Clock.advance_to (Mediator.clock m) (float_of_int trial *. 1000.0);
      let o = Mediator.query ~opts:(qopts ~timeout_ms:400.0 ~semantics ()) m paper_query in
      shipped := !shipped + o.Mediator.stats.Runtime.tuples_shipped;
      match o.Mediator.answer with
      | Mediator.Complete _ ->
          incr complete;
          data_fraction := !data_fraction +. 1.0
      | Mediator.Partial { unavailable; _ } ->
          data_fraction :=
            !data_fraction
            +. (float_of_int (n - List.length unavailable) /. float_of_int n)
      | Mediator.Unavailable _ -> ()
    done;
    ( label,
      !data_fraction /. float_of_int trials,
      float_of_int !complete /. float_of_int trials,
      !shipped,
      Mediator.answer_cache_stats m )
  in
  let results =
    [
      run_federation ~label:"partial answers (no cache)"
        ~semantics:Mediator.Partial_answers ~cache:None;
      run_federation ~label:"cached fallback (10s staleness)"
        ~semantics:(Mediator.Cached_fallback { max_stale_ms = 10_000.0 })
        ~cache:(Some (Answer_cache.create ()));
    ]
  in
  table
    ~columns:[ "configuration"; "data fraction"; "complete"; "tuples shipped" ]
    (List.map
       (fun (label, frac, complete, shipped, _) ->
         [
           label; Fmt.str "%.3f" frac; Fmt.str "%.2f" complete;
           string_of_int shipped;
         ])
       results);
  (match results with
  | [ (_, frac_plain, _, shipped_plain, _); (_, frac_cached, _, shipped_cached, stats) ]
    ->
      (match stats with
      | Some s ->
          Fmt.pr "cache counters: %a@." Answer_cache.pp_stats s
      | None -> ());
      if trials >= 10 then (
        assert (frac_cached > frac_plain);
        assert (shipped_cached < shipped_plain));
      Fmt.pr
        "(once warm, outages are bridged by cached fragments: more of each\n\
         answer is data, and hits ship no tuples over the wire.)@."
  | _ -> assert false);
  (* Part 2: warm-up on a healthy federation - repeated identical queries
     ship tuples exactly once. *)
  Fmt.pr "@.part 2: repeated identical query on a healthy 4-source federation@.@.";
  let m = person_federation ~cache:(Answer_cache.create ()) 4 in
  let rows = ref [] in
  for k = 1 to 3 do
    let o = Mediator.query m paper_query in
    let s = o.Mediator.stats in
    rows :=
      [
        string_of_int k;
        string_of_int s.Runtime.tuples_shipped;
        string_of_int s.Runtime.cache_hits;
        Fmt.str "%.1f" s.Runtime.elapsed_ms;
      ]
      :: !rows;
    if k > 1 then assert (s.Runtime.tuples_shipped = 0)
  done;
  table
    ~columns:[ "run"; "tuples shipped"; "cache hits"; "virtual ms" ]
    (List.rev !rows);
  (* Part 3: the resubmission manager drives partial answers to
     completion as sources recover. *)
  Fmt.pr
    "@.part 3: resubmission - sources recover staggered at t=2s/4s/6s;\n\
     every partial converges to a complete answer@.@.";
  let m =
    person_federation
      ~schedule_of:(fun i ->
        if i = 0 then Schedule.always_up
        else Schedule.down_during [ (0.0, float_of_int i *. 2000.0) ])
      ~cache:(Answer_cache.create ())
      4
  in
  let o = Mediator.query m paper_query in
  let queue = Resubmission.create ~clock:(Mediator.clock m) () in
  (match Mediator.record_partial queue o with
  | None -> assert false
  | Some _ -> ());
  let converged =
    Resubmission.drain queue
      ~source_of:(Mediator.find_source m)
      ~run:(Mediator.resubmission_runner m)
  in
  List.iter
    (fun e ->
      match e.Resubmission.state with
      | Resubmission.Converged rounds ->
          Fmt.pr "partial #%d: complete after %d resubmission round(s), t=%.1f@."
            e.Resubmission.id rounds
            (Clock.now (Mediator.clock m))
      | Resubmission.Pending -> Fmt.pr "partial #%d: still pending@." e.Resubmission.id)
    (Resubmission.entries queue);
  assert (converged = 1);
  assert (Resubmission.pending queue = []);
  Fmt.pr
    "(the queue watches availability schedules and replays residual\n\
     queries only when a blocking source transitions to up.)@."

(* ==================================================================== *)
(* E12 - per-source exec batching (DESIGN.md Section 4e)                *)
(* ==================================================================== *)

(* [sources] sites each holding [extents_per] Person extents, so a query
   over the implicit extent issues sources x extents_per execs —
   extents_per of them bound for each site. *)
let multi_extent_federation ~batch ~sources ~extents_per ~rows ~latency () =
  let m =
    mk_mediator ~batch ~name:(Fmt.str "e12_%b_%d" batch extents_per) ()
  in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for s = 0 to sources - 1 do
    let db = Database.create ~name:"db" in
    for e = 0 to extents_per - 1 do
      let idx = (s * extents_per) + e in
      ignore
        (Datagen.table_of db ~name:(Fmt.str "person%d" idx)
           Datagen.person_schema
           (Datagen.person_rows ~seed:(1000 + idx) ~n:rows))
    done;
    Mediator.register_source m ~name:(Fmt.str "r%d" s)
      (Source.create ~id:(Fmt.str "site%d" s)
         ~address:
           (Source.address ~host:(Fmt.str "site%d" s) ~db_name:"db" ~ip:"0" ())
         ~latency (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str {|r%d := Repository(host="site%d", name="db", address="0");|} s
         s);
    for e = 0 to extents_per - 1 do
      let idx = (s * extents_per) + e in
      Mediator.load_odl m
        (Fmt.str "extent person%d of Person wrapper w0 repository r%d;" idx s)
    done
  done;
  m

let e12 () =
  header "E12: per-source exec batching (DESIGN.md Section 4e)";
  Fmt.pr
    "4 sources x E extents each, base 10 ms, jitter 0.3: the batched\n\
     transport pays one round-trip per source instead of one per extent,\n\
     and each round waits on one jitter draw instead of the max of E.@.@.";
  let sources = 4 in
  let latency = { Source.base_ms = 10.0; per_row_ms = 0.0; jitter = 0.3 } in
  let trials = trials ~default:30 in
  let run ~batch ~extents_per =
    let m =
      multi_extent_federation ~batch ~sources ~extents_per ~rows:5 ~latency ()
    in
    let elapsed = ref 0.0 and rts = ref 0 and execs = ref 0 and tuples = ref 0 in
    for _ = 1 to trials do
      let o = Mediator.query m paper_query in
      (match o.Mediator.answer with
      | Mediator.Complete _ -> ()
      | _ -> assert false);
      let s = o.Mediator.stats in
      elapsed := !elapsed +. s.Runtime.elapsed_ms;
      rts := !rts + s.Runtime.round_trips;
      execs := !execs + s.Runtime.execs_issued;
      tuples := !tuples + s.Runtime.tuples_shipped
    done;
    (!elapsed /. float_of_int trials, !rts / trials, !execs / trials, !tuples)
  in
  let rows = ref [] in
  List.iter
    (fun extents_per ->
      let ms_u, rt_u, ex_u, tup_u = run ~batch:false ~extents_per in
      let ms_b, rt_b, ex_b, tup_b = run ~batch:true ~extents_per in
      (* identical answers: same execs issued, same tuples shipped *)
      assert (ex_b = ex_u);
      assert (tup_b = tup_u);
      (* the acceptance claim: at >= 4 extents per source, batching
         strictly reduces both round-trips and virtual latency *)
      if extents_per >= 4 then (
        assert (rt_b < rt_u);
        assert (ms_b < ms_u));
      rows :=
        [
          string_of_int extents_per;
          string_of_int ex_u;
          string_of_int rt_u;
          string_of_int rt_b;
          Fmt.str "%.1f" ms_u;
          Fmt.str "%.1f" ms_b;
          Fmt.str "%.2fx" (ms_u /. ms_b);
        ]
        :: !rows)
    [ 1; 2; 4; 8 ];
  table
    ~columns:
      [
        "extents/source"; "execs/query"; "round-trips unbatched";
        "round-trips batched"; "virtual ms unbatched"; "virtual ms batched";
        "speedup";
      ]
    (List.rev !rows);
  Fmt.pr
    "(answers are identical both ways; per-query numbers averaged over %d\n\
     trials.)@."
    trials

(* ==================================================================== *)
(* E13 - deadline-aware retry and replica hedging (DESIGN.md §4g)       *)
(* ==================================================================== *)

(* One Person extent per site; optionally one replica per extent (same
   data, its own outage process and source id). *)
let e13_source ~index ~suffix ~schedule () =
  let name = Fmt.str "person%d" index in
  let db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of db ~name Datagen.person_schema
       (Datagen.person_rows ~seed:(1000 + index) ~n:5));
  Source.create ~id:(name ^ suffix)
    ~address:
      (Source.address ~host:(Fmt.str "site%d%s" index suffix) ~db_name:"db"
         ~ip:"0" ())
    ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.01; jitter = 0.0 }
    ~schedule (Source.Relational db)

let e13_federation ?retry ?replica_schedule_of ~name ~n ~schedule_of () =
  let m = mk_mediator ?retry ~name () in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for i = 0 to n - 1 do
    Mediator.register_source m ~name:(Fmt.str "r%d" i)
      (e13_source ~index:i ~suffix:"" ~schedule:(schedule_of i) ());
    Mediator.load_odl m
      (Fmt.str {|r%d := Repository(host="site%d", name="db", address="0");|} i
         i);
    match replica_schedule_of with
    | None ->
        Mediator.load_odl m
          (Fmt.str "extent person%d of Person wrapper w0 repository r%d;" i i)
    | Some rs ->
        Mediator.register_source m ~name:(Fmt.str "r%db" i)
          (e13_source ~index:i ~suffix:"b" ~schedule:(rs i) ());
        Mediator.load_odl m
          (Fmt.str
             {|r%db := Repository(host="site%db", name="db", address="0");
               extent person%d of Person wrapper w0 repository r%d replica r%db;|}
             i i i i i)
  done;
  m

let e13 () =
  header "E13: deadline-aware retry and replica hedging (DESIGN.md Section 4g)";
  (* Part 1: sources flap on staggered cycles, so at any query's issue
     time some of them are down but recover within the deadline.  The
     one-shot runtime finalizes those execs as blocked; the retry
     scheduler re-polls them into answers. *)
  Fmt.pr
    "part 1: 8 flapping sources (staggered periods, 40%% duty cycle),\n\
     800 ms deadline - blocked-exec rate and complete-answer rate with\n\
     the retry scheduler off and on@.@.";
  let n = 8 in
  let trials = trials ~default:50 in
  let schedule_of i =
    let period = 250.0 +. (60.0 *. float_of_int i) in
    Schedule.flapping ~period ~up_ms:(0.4 *. period)
  in
  let run ~label ~retry =
    let m = e13_federation ?retry ~name:("e13_" ^ label) ~n ~schedule_of () in
    let issued = ref 0 and blocked = ref 0 and complete = ref 0 in
    let elapsed = ref 0.0 in
    for trial = 0 to trials - 1 do
      Clock.advance_to (Mediator.clock m) (float_of_int trial *. 1000.0);
      let o = Mediator.query ~opts:(qopts ~timeout_ms:800.0 ()) m paper_query in
      issued := !issued + o.Mediator.stats.Runtime.execs_issued;
      blocked := !blocked + o.Mediator.stats.Runtime.execs_blocked;
      elapsed := !elapsed +. o.Mediator.stats.Runtime.elapsed_ms;
      match o.Mediator.answer with
      | Mediator.Complete _ -> incr complete
      | Mediator.Partial _ | Mediator.Unavailable _ -> ()
    done;
    ( float_of_int !blocked /. float_of_int !issued,
      float_of_int !complete /. float_of_int trials,
      !elapsed /. float_of_int trials )
  in
  let blocked_off, complete_off, ms_off = run ~label:"off" ~retry:None in
  let blocked_on, complete_on, ms_on =
    run ~label:"on"
      ~retry:
        (Some
           (Runtime.Retry.make ~initial_ms:40.0 ~multiplier:2.0
              ~max_attempts:5 ()))
  in
  (* the acceptance claim: re-polling measurably lowers the blocked rate
     and raises completeness *)
  assert (blocked_on < blocked_off);
  assert (complete_on > complete_off);
  table
    ~columns:[ "retry"; "blocked rate"; "complete rate"; "virtual ms/query" ]
    [
      [ "off"; Fmt.str "%.3f" blocked_off; Fmt.str "%.3f" complete_off;
        Fmt.str "%.1f" ms_off ];
      [ "on"; Fmt.str "%.3f" blocked_on; Fmt.str "%.3f" complete_on;
        Fmt.str "%.1f" ms_on ];
    ];
  (* Part 2: a degraded primary (x20 latency) with a healthy replica.
     Issue-time failover never triggers — the primary is up, just slow —
     but hedging races the replica after 30 ms and takes its answer. *)
  Fmt.pr
    "@.part 2: primaries degraded x20 (up but slow), healthy replicas,\n\
     hedge delay 30 ms@.@.";
  let slow = Schedule.slow_during [ (0.0, 1e9) ] ~factor:20.0 in
  let run_hedge ~label ~retry =
    let m =
      e13_federation ?retry
        ~name:("e13_hedge_" ^ label)
        ~n:4
        ~schedule_of:(fun _ -> slow)
        ~replica_schedule_of:(fun _ -> Schedule.always_up)
        ()
    in
    let elapsed = ref 0.0 in
    let trials = 20 in
    for trial = 0 to trials - 1 do
      Clock.advance_to (Mediator.clock m) (float_of_int trial *. 1000.0);
      let o = Mediator.query ~opts:(qopts ~timeout_ms:800.0 ()) m paper_query in
      (match o.Mediator.answer with
      | Mediator.Complete _ -> ()
      | Mediator.Partial _ | Mediator.Unavailable _ -> assert false);
      elapsed := !elapsed +. o.Mediator.stats.Runtime.elapsed_ms
    done;
    !elapsed /. float_of_int trials
  in
  let ms_unhedged = run_hedge ~label:"off" ~retry:None in
  let ms_hedged =
    run_hedge ~label:"on"
      ~retry:(Some (Runtime.Retry.make ~hedge_ms:30.0 ()))
  in
  assert (ms_hedged < ms_unhedged);
  assert (Metrics.find_counter bench_metrics "runtime.hedge.won" > 0);
  table
    ~columns:[ "hedging"; "virtual ms/query" ]
    [
      [ "off"; Fmt.str "%.1f" ms_unhedged ];
      [ "30 ms"; Fmt.str "%.1f" ms_hedged ];
    ];
  Fmt.pr
    "(retry turns within-deadline recoveries into complete answers; hedging\n\
     cuts tail latency when a healthy replica exists. Both default off —\n\
     the paper's one-shot semantics is the baseline.)@."

(* ==================================================================== *)
(* E14 - sharded extents: partition pruning and scatter-gather          *)
(* (DESIGN.md Section 4h)                                               *)
(* ==================================================================== *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* One logical person extent sharded by id across [shards] repositories.
   The total row count is fixed, so adding shards splits the same data
   into smaller slices; rows are placed with {!Shard.shard_of_value} so
   the data agrees with what the optimizer prunes. *)
let e14_federation ?(scheme = `Range)
    ?(schedule_of = fun _ -> Schedule.always_up) ~shards ~total_rows () =
  let m = mk_mediator ~name:(Fmt.str "e14_%d" shards) () in
  let per = total_rows / shards in
  let p_scheme =
    match scheme with
    | `Range ->
        Shard.Range (List.init (shards - 1) (fun k -> V.Int ((k + 1) * per)))
    | `Hash -> Shard.Hash { vnodes = Shard.default_vnodes }
  in
  let partition =
    {
      Shard.p_key = "id";
      p_scheme;
      p_shards =
        List.init shards (fun k ->
            { Shard.s_repository = Fmt.str "r%d" k; s_wrapper = None });
    }
  in
  let all_rows = Datagen.person_rows ~seed:42 ~n:total_rows in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for k = 0 to shards - 1 do
    let slice =
      List.filter
        (fun row -> Shard.shard_of_value partition row.(0) = k)
        all_rows
    in
    let db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of db ~name:(Shard.child_name "person" k)
         Datagen.person_schema slice);
    Mediator.register_source m ~name:(Fmt.str "r%d" k)
      (Source.create ~id:(Shard.child_name "person" k)
         ~address:
           (Source.address ~host:(Fmt.str "site%d" k) ~db_name:"db" ~ip:"0" ())
         ~latency:{ Source.base_ms = 2.0; per_row_ms = 1.0; jitter = 0.0 }
         ~schedule:(schedule_of k) (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str {|r%d := Repository(host="site%d", name="db", address="0");|} k
         k)
  done;
  Mediator.load_odl m
    (Fmt.str "extent person of Person wrapper w0 %a;" Shard.pp partition);
  (m, partition)

let e14 () =
  header "E14: sharded extents - scatter-gather scaling, partition pruning";
  let total = 240 in
  Fmt.pr
    "one logical person extent, %d rows total, sharded by id; source\n\
     latency 2 ms + 1 ms/row, so slice size dominates@.@."
    total;
  (* Part 1: shard-count sweep under a non-key predicate.  Every shard is
     scanned, in one parallel round; the fixed total splits into smaller
     slices, so virtual latency drops near-linearly. *)
  Fmt.pr "part 1: full scan (predicate on salary, not the shard key)@.@.";
  let reference = ref None in
  let ms_of = Hashtbl.create 8 in
  let rows =
    List.map
      (fun shards ->
        let m, _ = e14_federation ~shards ~total_rows:total () in
        let o =
          Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m paper_query
        in
        let answer =
          match o.Mediator.answer with
          | Mediator.Complete v -> v
          | _ -> assert false
        in
        (* scatter-gather is transparent: every shard count returns the
           same bag as the single-shard layout *)
        (match !reference with
        | None -> reference := Some answer
        | Some v -> assert (V.equal answer v));
        let s = o.Mediator.stats in
        Hashtbl.replace ms_of shards s.Runtime.elapsed_ms;
        let speedup =
          match Hashtbl.find_opt ms_of 1 with
          | Some ms1 -> Fmt.str "%.1fx" (ms1 /. s.Runtime.elapsed_ms)
          | None -> "-"
        in
        [
          string_of_int shards;
          string_of_int s.Runtime.execs_issued;
          string_of_int s.Runtime.tuples_shipped;
          Fmt.str "%.1f" s.Runtime.elapsed_ms;
          speedup;
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  table
    ~columns:[ "shards"; "execs"; "tuples shipped"; "virtual ms"; "speedup" ]
    rows;
  (* the acceptance claim: 8 shards answer the same scan >= 3x faster *)
  assert (Hashtbl.find ms_of 1 /. Hashtbl.find ms_of 8 >= 3.0);
  (* Part 2: a predicate that fixes the shard key contacts exactly one
     shard under either scheme; the rest are pruned before execution. *)
  Fmt.pr "@.part 2: shard-key equality (x.id = 57) on 8 shards@.@.";
  let prune_rows =
    List.map
      (fun (scheme, label) ->
        let m, partition = e14_federation ~scheme ~shards:8 ~total_rows:total () in
        let key = 57 in
        let expected = Shard.shard_of_value partition (V.Int key) in
        let pruned0 = Metrics.find_counter bench_metrics "shard.pruned" in
        let scanned0 = Metrics.find_counter bench_metrics "shard.scanned" in
        let o =
          Mediator.query m
            (Fmt.str "select x.name from x in person where x.id = %d" key)
        in
        let s = o.Mediator.stats in
        assert (s.Runtime.execs_issued = 1);
        (match o.Mediator.answer with
        | Mediator.Complete v -> assert (V.cardinal v = 1)
        | _ -> assert false);
        let pruned = Metrics.find_counter bench_metrics "shard.pruned" - pruned0 in
        let scanned =
          Metrics.find_counter bench_metrics "shard.scanned" - scanned0
        in
        assert (pruned = 7);
        assert (scanned = 1);
        [
          label;
          string_of_int expected;
          string_of_int s.Runtime.execs_issued;
          string_of_int pruned;
          Fmt.str "%.1f" s.Runtime.elapsed_ms;
        ])
      [ (`Range, "range"); (`Hash, "hash") ]
  in
  table
    ~columns:[ "scheme"; "owning shard"; "execs"; "shards pruned"; "virtual ms" ]
    prune_rows;
  (* Part 3: one shard down.  The gather degrades to a partial answer
     whose residual covers exactly the missing shard. *)
  Fmt.pr "@.part 3: shard 3 of 8 down - residual covers only that shard@.@.";
  let m, _ =
    e14_federation ~shards:8 ~total_rows:total
      ~schedule_of:(fun k ->
        if k = 3 then Schedule.always_down else Schedule.always_up)
      ()
  in
  let o = Mediator.query ~opts:(qopts ~timeout_ms:400.0 ()) m paper_query in
  (match o.Mediator.answer with
  | Mediator.Partial { unavailable; _ } as answer ->
      assert (unavailable = [ "r3" ]);
      let residual = Mediator.answer_oql answer in
      assert (contains_sub residual (Shard.child_name "person" 3));
      for k = 0 to 7 do
        if k <> 3 then
          assert (not (contains_sub residual (Shard.child_name "person" k)))
      done;
      Fmt.pr "residual: %s@." residual
  | _ -> assert false);
  Fmt.pr
    "(a sharded extent scatter-gathers in one parallel round; key-fixing\n\
     predicates contact a single shard, and a down shard degrades to a\n\
     residual query over just that shard.)@."

(* ==================================================================== *)
(* SOAK - deterministic fault injection for the retry scheduler         *)
(* ==================================================================== *)

let soak () =
  header "SOAK: retry/hedge/breaker under deterministic fault injection";
  Fmt.pr
    "8 flaky primaries + 8 flaky replicas (p(up)=0.70, 300 ms period),\n\
     retry+hedge+breaker on, 5 schedule seeds x queries: no runtime\n\
     errors, blocked rate bounded@.@.";
  let n = 8 in
  let trials = trials ~default:40 in
  let retry =
    Runtime.Retry.make ~initial_ms:25.0 ~multiplier:2.0 ~max_attempts:5
      ~hedge_ms:50.0 ~breaker_threshold:3 ~breaker_cooldown_ms:200.0 ()
  in
  let rows = ref [] in
  List.iter
    (fun seed ->
      let flaky k i =
        Schedule.flaky
          ~seed:(7919 * ((seed * 131) + (i * 17) + k))
          ~period:300.0 ~availability:0.70
      in
      let m =
        e13_federation ~retry
          ~name:(Fmt.str "soak_%d" seed)
          ~n
          ~schedule_of:(flaky 1)
          ~replica_schedule_of:(flaky 2)
          ()
      in
      let issued = ref 0 and blocked = ref 0 and failures = ref 0 in
      for trial = 0 to trials - 1 do
        Clock.advance_to (Mediator.clock m) (float_of_int trial *. 1000.0);
        match Mediator.query ~opts:(qopts ~timeout_ms:500.0 ()) m paper_query with
        | o ->
            issued := !issued + o.Mediator.stats.Runtime.execs_issued;
            blocked := !blocked + o.Mediator.stats.Runtime.execs_blocked
        | exception Runtime.Runtime_error msg ->
            Fmt.epr "soak seed %d trial %d: runtime error: %s@." seed trial msg;
            incr failures
      done;
      (* hard gates: the scheduler must never corrupt an exec into a
         runtime error, and with a replica per extent the blocked rate
         stays well under the both-copies-down ceiling *)
      assert (!failures = 0);
      let rate = float_of_int !blocked /. float_of_int !issued in
      assert (rate <= 0.35);
      rows :=
        [
          string_of_int seed;
          string_of_int trials;
          Fmt.str "%.3f" rate;
        ]
        :: !rows)
    [ 1; 2; 3; 4; 5 ];
  table ~columns:[ "seed"; "queries"; "blocked rate" ] (List.rev !rows);
  Fmt.pr
    "(every seed passes: no Runtime_error, blocked rate within bounds —\n\
     the deterministic soak CI runs on every push.)@."

(* ==================================================================== *)
(* A1/A2 - ablations of design choices (DESIGN.md Section 7)            *)
(* ==================================================================== *)

let a1 () =
  header "A1 ablation: close matching in the cost model (Section 3.3)";
  Fmt.pr
    "workload: 12 selects with different constants; how well does each\n\
     model predict the rows of the NEXT (unseen) query?@.@.";
  let run ~close_matching =
    let cost = Cost_model.create ~close_matching () in
    let m = mk_mediator ~name:"a1" ~cost () in
    Mediator.load_odl m
      {|w0 := WrapperPostgres();
        interface Person (extent person) {
          attribute Short id;
          attribute String name;
          attribute Short salary; }|};
    Mediator.register_source m ~name:"r0" (person_source ~index:0 ~rows:2000 ());
    Mediator.load_odl m
      {|r0 := Repository(host="site0", name="db", address="0.0.0.0");
        extent person0 of Person wrapper w0 repository r0;|};
    let total_err = ref 0.0 and n_preds = ref 0 in
    for round = 0 to 11 do
      let threshold = 40 + (round * 35) in
      let expr =
        Expr.Map
          ( Expr.Select
              ( Expr.Get "person0",
                Expr.Cmp (Expr.Gt, Expr.Attr [ "salary" ], Expr.Const (V.Int threshold)) ),
            Expr.Hscalar (Expr.Attr [ "name" ]) )
      in
      let est = Cost_model.estimate cost ~repo:"r0" expr in
      let o =
        Mediator.query ~opts:(qopts ~timeout_ms:10_000.0 ()) m
          (Fmt.str "select x.name from x in person where x.salary > %d" threshold)
      in
      let actual = float_of_int o.Mediator.stats.Runtime.tuples_shipped in
      if round > 0 && actual > 0.0 then (
        total_err := !total_err +. (Float.abs (est.Cost_model.est_rows -. actual) /. actual);
        incr n_preds)
    done;
    100.0 *. !total_err /. float_of_int !n_preds
  in
  table
    ~columns:[ "close matching"; "mean row-estimate error" ]
    [
      [ "on (DISCO)"; Fmt.str "%.0f%%" (run ~close_matching:true) ];
      [ "off (exact only)"; Fmt.str "%.0f%%" (run ~close_matching:false) ];
    ]

(* A2 queries: a selection over all 16 extents, a key lookup, a
   two-extent join, and a distinct projection. *)
let a2_queries =
  [
    paper_query;
    "select x.name from x in person where x.id = 7";
    "select struct(a: x.name, b: y.name) from x in person0, y in person1 \
     where x.id = y.id";
    "select distinct x.salary from x in person where x.salary > 400";
  ]

let a2 () =
  header "A2 ablation: the plan cache (Section 3.3)";
  let m = person_federation ~rows:50 16 in
  let reps = 100 in
  let timed f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    (Sys.time () -. t0) *. 1e6 /. float_of_int reps
  in
  let measured =
    List.map
      (fun q ->
        ignore (Mediator.query m q);
        let with_cache = timed (fun () -> ignore (Mediator.query m q)) in
        let without_cache =
          timed (fun () ->
              Mediator.clear_plan_cache m;
              ignore (Mediator.query m q))
        in
        (q, with_cache, without_cache))
      a2_queries
  in
  table
    ~columns:[ "query"; "plan cache on"; "off (replanned each query)"; "speedup" ]
    (List.map
       (fun (q, on, off) ->
         [ q; Fmt.str "%.0f us" on; Fmt.str "%.0f us" off; Fmt.str "%.1fx" (off /. on) ])
       measured);
  (* criterion: serving from the plan cache is at least twice as fast as
     replanning, on every query *)
  List.iter
    (fun (q, on, off) ->
      if off < 2.0 *. on then
        failwith (Fmt.str "A2: the plan cache saves only %.1fx on %s" (off /. on) q))
    measured

(* ==================================================================== *)

let a3 () =
  header "A3 ablation: semijoin reduction (Sections 3.2 / 6.2 future work)";
  Fmt.pr "5-row VIP extent joined with a 5000-row staff extent at another site@.@.";
  let build () =
    let m = mk_mediator ~name:"a3" () in
    let small_db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of small_db ~name:"vip0" Datagen.person_schema
         (List.init 5 (fun i -> [| V.Int (i * 400); V.String (Fmt.str "vip%d" i); V.Int 999 |])));
    let big_db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of big_db ~name:"staff0" Datagen.person_schema
         (Datagen.person_rows ~seed:77 ~n:5000));
    Mediator.register_source m ~name:"r0"
      (Source.create ~id:"small"
         ~address:(Source.address ~host:"hq" ~db_name:"db" ~ip:"0" ())
         ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.05; jitter = 0.0 }
         (Source.Relational small_db));
    Mediator.register_source m ~name:"r1"
      (Source.create ~id:"big"
         ~address:(Source.address ~host:"plant" ~db_name:"db" ~ip:"1" ())
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
  in
  let q =
    "select struct(a: x.name, b: y.name) from x in vip0, y in staff0 where      x.id = y.id"
  in
  let m = build () in
  let o1 = Mediator.query ~opts:(qopts ~timeout_ms:100_000.0 ()) m q in
  Mediator.clear_plan_cache m;
  let o2 = Mediator.query ~opts:(qopts ~timeout_ms:100_000.0 ()) m q in
  let row label o =
    [
      label;
      string_of_int o.Mediator.stats.Runtime.tuples_shipped;
      Fmt.str "%.1f ms" o.Mediator.stats.Runtime.elapsed_ms;
      (match o.Mediator.plan with
      | Some p when Plan.semi_joins p > 0 -> "semijoin"
      | Some _ -> "parallel join"
      | None -> "hybrid");
    ]
  in
  table
    ~columns:[ "run"; "tuples shipped"; "virtual latency"; "strategy" ]
    [
      row "1 (no statistics: max pushdown)" o1;
      row "2 (learned costs: semijoin)" o2;
    ]

(* == E16: columnar relation engine =================================== *)

(* Wall-clock micro-benchmark of lib/relation itself — no mediator, no
   virtual clock: tuples/sec of the row-at-a-time reference interpreter
   vs the columnar batch engine vs declared indexes, on the same table
   and queries.  --rows N replaces the default tiers (CI smoke runs
   --rows 100000; pass 10000000 for the 10^7 tier). *)

let e16_rows_override = ref None

let e16_tiers () =
  match !e16_rows_override with
  | Some n -> [ n ]
  | None -> [ 100_000; 1_000_000 ]

(* best-of-3 wall time per call; [reps] batches sub-resolution calls
   (indexed lookups finish in nanoseconds) inside one measurement *)
let e16_best ?(reps = 1) f =
  let rec go k best =
    if k = 0 then best
    else
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done;
      let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
      go (k - 1) (Float.min best dt)
  in
  Float.max 1e-9 (go 3 infinity)

let e16 () =
  header "E16: columnar relation engine - batch kernels and indexes";
  Fmt.pr "claim: rebuilding lib/relation around typed column vectors,@.";
  Fmt.pr "       dictionary-coded strings and batch predicate kernels@.";
  Fmt.pr "       multiplies scan throughput, and declared indexes turn@.";
  Fmt.pr "       selective lookups sublinear, without changing results.@.@.";
  let module Sql = Disco_relation.Sql in
  let module Table = Disco_relation.Table in
  let module Index = Disco_relation.Index in
  let rows_out = ref [] in
  (* A three-table equi-join. The row oracle's nested loop visits n^3
     tuples, so it is timed once, at 300 rows per table; tps counts the
     3n input tuples. *)
  let join_q =
    Sql.parse
      "SELECT pa.id, pc.name FROM pa, pb, pc WHERE pa.id = pb.id AND pb.id \
       = pc.id AND pa.salary > 100"
  in
  let join_db n =
    let db = Database.create ~name:"join" in
    List.iter
      (fun (name, seed) ->
        ignore
          (Datagen.table_of db ~name Datagen.person_schema
             (Datagen.person_rows ~seed ~n)))
      [ ("pa", 1); ("pb", 2); ("pc", 3) ];
    (match Sql.explain_engine db join_q with
    | `Columnar_join -> ()
    | _ -> failwith "E16: three-way join not on the columnar executor");
    db
  in
  let join_tps n dt = float_of_int (3 * n) /. dt in
  (let db = join_db 300 in
   let t0 = Unix.gettimeofday () in
   let oracle = Sql.run_rows db join_q in
   let join_row = Unix.gettimeofday () -. t0 in
   if
     List.sort compare (Sql.run db join_q).Sql.rows
     <> List.sort compare oracle.Sql.rows
   then failwith "E16: engines disagree on the three-way join";
   let join_col = e16_best (fun () -> Sql.run db join_q) in
   rows_out :=
     [
       [
         "300"; "3-way equi-join";
         Fmt.str "%.2e" (join_tps 300 join_row);
         Fmt.str "%.2e" (join_tps 300 join_col); "-";
         Fmt.str "%.0fx" (join_row /. join_col);
       ];
     ];
   bench_results :=
     Fmt.str
       "{\"experiment\":\"e16_join\",\"rows\":300,\"join_row_tps\":%.0f,\"join_col_tps\":%.0f}"
       (join_tps 300 join_row) (join_tps 300 join_col)
     :: !bench_results);
  List.iter
    (fun n ->
      let join_col =
        let db = join_db n in
        e16_best (fun () -> Sql.run db join_q)
      in
      let db = Database.create ~name:"bench" in
      let tbl =
        Datagen.table_of db ~name:"person" Datagen.person_schema
          (Datagen.person_rows ~seed:7 ~n)
      in
      let scan_q =
        Sql.parse "SELECT id, name FROM person WHERE salary > 450"
      in
      let point_q =
        Sql.parse (Fmt.str "SELECT name FROM person WHERE id = %d" (n / 2))
      in
      let range_q = Sql.parse "SELECT id FROM person WHERE salary < 15" in
      let range2_q =
        Sql.parse "SELECT id FROM person WHERE salary >= 100 AND salary < 130"
      in
      (* a 50-row write, then the range read that sees it: the read
         merges the new rows into the kept index *)
      let written = ref 0 in
      let write_then_read run () =
        Table.insert_all tbl
          (List.init 50 (fun k ->
               incr written;
               [|
                 V.Int (n + !written);
                 V.String (Datagen.pick_name ~seed:7 (n + !written));
                 V.Int (10 + ((k * 37) mod 490));
               |]));
        run db range2_q
      in
      let bag r = List.sort compare r.Sql.rows in
      let check q label =
        if bag (Sql.run db q) <> bag (Sql.run_rows db q) then
          failwith ("E16: engines disagree on " ^ label)
      in
      check scan_q "selective scan";
      check point_q "point lookup";
      (match Sql.explain_engine db scan_q with
      | `Columnar -> ()
      | _ -> failwith "E16: scan not on the columnar engine");
      let scan_row = e16_best (fun () -> Sql.run_rows db scan_q) in
      let scan_col = e16_best (fun () -> Sql.run db scan_q) in
      let point_row = e16_best (fun () -> Sql.run_rows db point_q) in
      let point_col = e16_best (fun () -> Sql.run db point_q) in
      Table.declare_index tbl ~column:"id" Index.Hash;
      Table.declare_index tbl ~column:"salary" Index.Sorted;
      (match Sql.explain_engine db point_q with
      | `Columnar_indexed "id" -> ()
      | _ -> failwith "E16: point lookup not index-served");
      (match Sql.explain_engine db range_q with
      | `Columnar_indexed "salary" -> ()
      | _ -> failwith "E16: range filter not index-served");
      (match Sql.explain_engine db range2_q with
      | `Columnar_indexed "salary" -> ()
      | _ -> failwith "E16: two-sided range not index-served");
      check point_q "indexed point lookup";
      check range_q "indexed range filter";
      check range2_q "indexed two-sided range";
      ignore (Sql.run db point_q) (* build the lazy indexes once *);
      let point_ix = e16_best ~reps:1000 (fun () -> Sql.run db point_q) in
      let range_ix = e16_best ~reps:100 (fun () -> Sql.run db range_q) in
      let range_col = e16_best (fun () -> Sql.run_rows db range_q) in
      let range2_ix = e16_best ~reps:100 (fun () -> Sql.run db range2_q) in
      let range2_col = e16_best (fun () -> Sql.run_rows db range2_q) in
      let write_ix = e16_best (write_then_read Sql.run) in
      check range2_q "two-sided range after a write";
      let write_col = e16_best (write_then_read Sql.run_rows) in
      check range2_q "two-sided range after writes its index has not seen";
      Table.drop_index tbl "id";
      Table.drop_index tbl "salary";
      let tps dt = float_of_int n /. dt in
      let speedup = tps scan_col /. tps scan_row in
      rows_out :=
        [
          string_of_int n; "scan salary>450";
          Fmt.str "%.2e" (tps scan_row); Fmt.str "%.2e" (tps scan_col); "-";
          Fmt.str "%.1fx" speedup;
        ]
        :: [
             string_of_int n; "point id=k";
             Fmt.str "%.2e" (tps point_row); Fmt.str "%.2e" (tps point_col);
             Fmt.str "%.2e" (tps point_ix);
             Fmt.str "%.0fx" (tps point_ix /. tps point_row);
           ]
        :: [
             string_of_int n; "range salary<15";
             Fmt.str "%.2e" (tps range_col); "-"; Fmt.str "%.2e" (tps range_ix);
             Fmt.str "%.0fx" (tps range_ix /. tps range_col);
           ]
        :: [
             string_of_int n; "range 100<=salary<130";
             Fmt.str "%.2e" (tps range2_col); "-";
             Fmt.str "%.2e" (tps range2_ix);
             Fmt.str "%.0fx" (tps range2_ix /. tps range2_col);
           ]
        :: [
             string_of_int n; "insert 50, then range";
             Fmt.str "%.2e" (tps write_col); "-"; Fmt.str "%.2e" (tps write_ix);
             Fmt.str "%.0fx" (tps write_ix /. tps write_col);
           ]
        :: [
             string_of_int n; "3-way equi-join"; "-";
             Fmt.str "%.2e" (join_tps n join_col); "-"; "-";
           ]
        :: !rows_out;
      bench_results :=
        Fmt.str
          "{\"experiment\":\"e16\",\"rows\":%d,\"scan_row_tps\":%.0f,\"scan_col_tps\":%.0f,\"scan_speedup\":%.2f,\"point_row_tps\":%.0f,\"point_col_tps\":%.0f,\"point_indexed_tps\":%.0f,\"range_row_tps\":%.0f,\"range_indexed_tps\":%.0f,\"range2_row_tps\":%.0f,\"range2_indexed_tps\":%.0f,\"write_read_row_tps\":%.0f,\"write_read_indexed_tps\":%.0f,\"join_col_tps\":%.0f}"
          n (tps scan_row) (tps scan_col) speedup (tps point_row)
          (tps point_col) (tps point_ix) (tps range_col) (tps range_ix)
          (tps range2_col) (tps range2_ix) (tps write_col) (tps write_ix)
          (join_tps n join_col)
        :: !bench_results;
      if n >= 1_000_000 && speedup < 5.0 then
        failwith
          (Fmt.str "E16: columnar scan speedup %.1fx < 5x at %d rows" speedup n))
    (e16_tiers ());
  table
    ~columns:
      [ "rows"; "query"; "row tps"; "columnar tps"; "indexed tps"; "speedup" ]
    (List.rev !rows_out);
  Fmt.pr "@.engines agree bag-for-bag on every query above@."

let e17 () =
  header "E17: static analyzer - SPOF counts and analysis cost";
  Fmt.pr "claim: the federation analyzer finds every single point of@.";
  Fmt.pr "       failure without contacting a source, a declared replica@.";
  Fmt.pr "       removes it from the report, and whole-federation@.";
  Fmt.pr "       analysis costs milliseconds, not a survey of sites.@.@.";
  let base replicas =
    Fmt.str
      {|r0 := Repository(host="rodin", name="payroll", address="1");
        r1 := Repository(host="matisse", name="payroll", address="2");
        r2 := Repository(host="archive", name="payroll", address="3");
        r3 := Repository(host="mirror", name="payroll", address="4");
        w0 := WrapperPostgres();
        w1 := WrapperSql();
        interface Person (extent person) {
          attribute Short id;
          attribute String name;
          attribute Short salary;
        }
        extent person0 of Person wrapper w0 repository r0%s;
        extent person1 of Person wrapper w1 repository r1%s;
        extent emp of Person wrapper w0 sharded by id range (100) across r0 r2;
        define seniors as select x from x in person where x.salary > 50;|}
      (if replicas then " replica r3" else "")
      (if replicas then " replica r3" else "")
  in
  let workload =
    [
      ( "bench.oql",
        String.concat "\n"
          [
            "select x.name from x in person where x.salary > 10";
            "select x from x in person0";
            "select x.name from x in emp where x.id = 7";
            "select x.name from x in seniors";
            "select struct(a: x.name, b: y.salary) from x in person0, y in \
             person1 where x.id = y.id";
          ] );
    ]
  in
  let analyze replicas =
    let reg = Registry.create () in
    Odl_parser.load reg (base replicas);
    Analysis.analyze ~workload reg
  in
  let count sev r =
    List.length
      (List.filter (fun (_, d) -> d.Check.d_severity = sev) r.Analysis.r_diags)
  in
  let dt_ms replicas =
    1000.0 *. e16_best ~reps:20 (fun () -> ignore (analyze replicas))
  in
  let before = analyze false and after = analyze true in
  let ms_before = dt_ms false and ms_after = dt_ms true in
  table
    ~columns:[ "federation"; "spofs"; "errors"; "warnings"; "analyze ms" ]
    [
      [
        "no replicas";
        string_of_int (List.length before.Analysis.r_spofs);
        string_of_int (count Check.Error before);
        string_of_int (count Check.Warning before);
        Fmt.str "%.2f" ms_before;
      ];
      [
        "replica r3 on person0/person1";
        string_of_int (List.length after.Analysis.r_spofs);
        string_of_int (count Check.Error after);
        string_of_int (count Check.Warning after);
        Fmt.str "%.2f" ms_after;
      ];
    ];
  bench_results :=
    Fmt.str
      "{\"experiment\":\"e17\",\"queries\":%d,\"spofs_before\":%d,\"spofs_after\":%d,\"errors\":%d,\"warnings\":%d,\"analyze_ms\":%.3f}"
      (List.length before.Analysis.r_queries)
      (List.length before.Analysis.r_spofs)
      (List.length after.Analysis.r_spofs)
      (count Check.Error before) (count Check.Warning before) ms_before
    :: !bench_results;
  (* the sharded extent keeps its unreplicated shard repositories as
     SPOFs; the replica must remove the two plain extents' ones *)
  if List.length before.Analysis.r_spofs <= List.length after.Analysis.r_spofs
  then failwith "E17: adding a replica did not reduce the SPOF count";
  if List.mem "r1" after.Analysis.r_spofs then
    failwith "E17: replicated repository still reported as a SPOF";
  Fmt.pr "@.replica r3 removed %d of %d SPOFs; analysis stayed static@."
    (List.length before.Analysis.r_spofs - List.length after.Analysis.r_spofs)
    (List.length before.Analysis.r_spofs)

(* E18: what one cached hit costs as the federation grows. The
   federation and the query are CI's "Cached hit at 1,024 sources" step
   (discoctl's default: WrapperPostgres, five-row person sources). A
   hit runs the execs, and the source statements, prepared when the
   plan was first run, so its allocation per source is flat. *)
let e18_kwords_bound = 0.75

let e18_federation n =
  let m = Mediator.create ~name:"e18" () in
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
      (Source.create ~id:name
         ~address:
           (Source.address ~host:(Fmt.str "site%d" i) ~db_name:"db"
              ~ip:(Fmt.str "10.0.0.%d" i) ())
         (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="site%d", name="db", address="10.0.0.%d");
           extent person%d of Person wrapper w0 repository r%d;|}
         i i i i i)
  done;
  m

let e18_query = "select x.name from x in person where x.salary > 300 and x.id < 50"

(* per hit: median wall ms, kwords per source, minor collections *)
let e18_hits m n =
  let q = e18_query in
  for _ = 1 to 3 do
    ignore (Mediator.query m q)
  done;
  let hits = 20 in
  let words0 = Gc.minor_words () in
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  let walls =
    List.init hits (fun _ ->
        let t0 = Unix.gettimeofday () in
        let o = Mediator.query m q in
        let dt = Unix.gettimeofday () -. t0 in
        if not o.Mediator.from_cache then failwith "E18: expected a plan-cache hit";
        dt *. 1000.0)
  in
  let kwords = (Gc.minor_words () -. words0) /. float_of_int (hits * n) /. 1000.0 in
  let minors =
    float_of_int ((Gc.quick_stat ()).Gc.minor_collections - minor0)
    /. float_of_int hits
  in
  (List.nth (List.sort Float.compare walls) (hits / 2), kwords, minors)

(* per plan-cache miss (the cache cleared before each): median wall ms
   and kwords per source *)
let e18_misses m n =
  let misses = 5 in
  let words0 = Gc.minor_words () in
  let walls =
    List.init misses (fun _ ->
        Mediator.clear_plan_cache m;
        let t0 = Unix.gettimeofday () in
        let o = Mediator.query m e18_query in
        let dt = Unix.gettimeofday () -. t0 in
        if o.Mediator.from_cache then failwith "E18: expected a plan-cache miss";
        dt *. 1000.0)
  in
  let kwords = (Gc.minor_words () -. words0) /. float_of_int (misses * n) /. 1000.0 in
  (List.nth (List.sort Float.compare walls) (misses / 2), kwords)

let e18 () =
  header "E18: cached-hit scaling - prepared execs and source statements";
  Fmt.pr "claim: a plan-cache hit runs only the data path of execs and@.";
  Fmt.pr "       source statements prepared once, so its cost per source@.";
  Fmt.pr "       stays flat as the federation grows (target: the hit's@.";
  Fmt.pr "       wall time grows at most 4.5x from 256 to 1,024 sources).@.@.";
  let sizes = [ 256; 1024 ] in
  let measured =
    List.map
      (fun n ->
        let m = e18_federation n in
        let hits = e18_hits m n in
        (n, (hits, e18_misses m n)))
      sizes
  in
  let rows = List.map (fun (n, (hits, _)) -> (n, hits)) measured in
  let misses = List.map (fun (n, (_, miss)) -> (n, miss)) measured in
  table
    ~columns:[ "sources"; "hit ms (median)"; "kwords/source"; "minor GCs/hit" ]
    (List.map
       (fun (n, (ms, kw, minors)) ->
         [
           string_of_int n;
           Fmt.str "%.2f" ms;
           Fmt.str "%.3f" kw;
           Fmt.str "%.1f" minors;
         ])
       rows);
  let ms n = let ms, _, _ = List.assoc n rows in ms in
  let slope = ms 1024 /. ms 256 in
  Fmt.pr "@.256 -> 1,024 sources: hit wall x%.2f (target <= 4.5, %s)@." slope
    (if slope <= 4.5 then "met" else "not met");
  Fmt.pr "the wall slope is reported, not enforced: wall times on a shared@.";
  Fmt.pr "2-core machine are noisy. Only the kwords bound (%.2f per source)@."
    e18_kwords_bound;
  Fmt.pr "fails the experiment; minor words count allocation, not time.@.@.";
  (* A miss plans afresh: template planning normalizes and verifies one
     representative per class of like extents (here one class, all
     WrapperPostgres), so the search no longer grows with the sources. *)
  table
    ~columns:[ "sources"; "miss ms (median of 5)"; "kwords/source" ]
    (List.map
       (fun (n, (ms, kw)) -> [ string_of_int n; Fmt.str "%.2f" ms; Fmt.str "%.3f" kw ])
       misses);
  let miss_slope = fst (List.assoc 1024 misses) /. fst (List.assoc 256 misses) in
  Fmt.pr "@.256 -> 1,024 sources: miss wall x%.2f (target <= 4, %s; reported,@."
    miss_slope
    (if miss_slope <= 4.0 then "met" else "not met");
  Fmt.pr "not enforced, for the same reason).@.";
  bench_results :=
    Fmt.str
      "{\"experiment\":\"e18\",%s,\"slope_256_1024\":%.3f,\"miss_slope_256_1024\":%.3f,\"kwords_bound\":%.2f}"
      (String.concat ","
         (List.map
            (fun (n, ((ms, kw, minors), (miss_ms, miss_kw))) ->
              Fmt.str
                "\"hit_ms_%d\":%.3f,\"kwords_per_source_%d\":%.4f,\"minor_gcs_per_hit_%d\":%.2f,\"miss_ms_%d\":%.3f,\"miss_kwords_per_source_%d\":%.3f"
                n ms n kw n minors n miss_ms n miss_kw)
            measured))
      slope miss_slope e18_kwords_bound
    :: !bench_results;
  List.iter
    (fun (n, (_, kw, _)) ->
      if kw > e18_kwords_bound then
        failwith
          (Fmt.str "E18: a hit at %d sources allocates %.3f kwords per source (bound %.2f)"
             n kw e18_kwords_bound))
    rows

(* ==================================================================== *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e13", e13); ("e14", e14); ("e16", e16); ("e17", e17); ("e18", e18);
    ("a1", a1); ("a2", a2); ("a3", a3); ("soak", soak);
  ]

(* --merge-results folds an existing BENCH_RESULTS.json (one object per
   line) in front of this run's entries, so a follow-up invocation (CI's
   E16 and E17 steps) appends to the artifact instead of overwriting
   the virtual-clock series. *)
let merge_existing_results () =
  match open_in "BENCH_RESULTS.json" with
  | exception Sys_error _ -> ()
  | ic ->
      let entries = ref [] in
      (try
         while true do
           let line = String.trim (input_line ic) in
           let line =
             if String.length line > 0 && line.[String.length line - 1] = ','
             then String.sub line 0 (String.length line - 1)
             else line
           in
           if String.length line > 0 && line.[0] = '{' then
             entries := line :: !entries
         done
       with End_of_file -> ());
      close_in ic;
      (* both lists are newest-first; the final [List.rev] in
         [write_results_file] restores file order with the old entries
         leading. *)
      bench_results := !bench_results @ !entries

let () =
  let args = Array.to_list Sys.argv in
  let wanted = ref None in
  let rec scan = function
    | "--experiment" :: name :: rest ->
        wanted := Some (String.lowercase_ascii name);
        scan rest
    | "--trials" :: n :: rest ->
        trials_override := int_of_string_opt n;
        scan rest
    | "--rows" :: n :: rest ->
        e16_rows_override := int_of_string_opt n;
        scan rest
    | _ :: rest -> scan rest
    | [] -> ()
  in
  scan args;
  let run (name, f) =
    reset_observations ();
    f ();
    emit_summary name
  in
  (* a full run goes on past a failed experiment, so one violation does
     not hide the others' tables and verdicts; it still exits non-zero *)
  let failed =
    match !wanted with
    | Some name -> (
        match List.assoc_opt name experiments with
        | Some f ->
            run (name, f);
            []
        | None ->
            Fmt.epr "unknown experiment %s (%s)@." name
              (String.concat ", " (List.map fst experiments));
            exit 1)
    | None ->
        List.filter_map
          (fun (name, f) ->
            match run (name, f) with
            | () -> None
            | exception e -> Some (name, Printexc.to_string e))
          experiments
  in
  if List.mem "--merge-results" args then merge_existing_results ();
  write_results_file ();
  if failed <> [] then (
    Fmt.epr "@.%d experiment(s) failed:@." (List.length failed);
    List.iter (fun (name, reason) -> Fmt.epr "  %s: %s@." name reason) failed;
    exit 1)
