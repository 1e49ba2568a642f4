(* Tests for lib/obs and its mediator wiring: the trace builder, the
   metrics registry, a golden pretty/JSON trace of a two-source query
   with one source blocked under Cached_fallback, JSON validity through
   a minimal parser, the zero-overhead guarantee when no sink is
   attached, answer round-trips through the unified [answer_oql], and
   the deprecated [Mediator.Legacy] aliases. *)

module V = Disco_value.Value
module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Clock = Disco_source.Clock
module Datagen = Disco_source.Datagen
module Database = Disco_relation.Database
module Table = Disco_relation.Table
module Answer_cache = Disco_cache.Answer_cache
module Mediator = Disco_core.Mediator
module Runtime = Disco_runtime.Runtime
module Trace = Disco_obs.Trace
module Metrics = Disco_obs.Metrics

let check_value = Alcotest.testable V.pp V.equal

(* -- the trace builder -- *)

let test_trace_builder () =
  let b = Trace.make ~query:"q" ~now:10.0 in
  Trace.meta b "mode" "test";
  Trace.enter b ~now:10.0 "parse";
  Trace.leave b ~now:11.0;
  Trace.enter b ~now:11.0 "execute";
  Trace.exec b
    {
      Trace.x_repo = "r0";
      x_wrapper = "W";
      x_expr = "get(e)";
      x_origin = Trace.Source;
      x_start_ms = 11.0;
      x_elapsed_ms = 2.0;
      x_tuples = 3;
      x_rows = 3;
      x_predicted_ms = None;
      x_predicted_rows = None;
      x_batch_id = None;
      x_batch_size = 1;
    };
  (* leaving more often than entering must not underflow the root *)
  Trace.leave b ~now:14.0;
  Trace.leave b ~now:14.0;
  Trace.leave b ~now:14.0;
  let tr = Trace.finish b ~now:15.0 in
  Alcotest.(check string) "query kept" "q" tr.Trace.t_query;
  let root = tr.Trace.t_root in
  Alcotest.(check string) "root name" "query" root.Trace.s_name;
  Alcotest.(check (float 1e-9)) "root start" 10.0 root.Trace.s_start_ms;
  Alcotest.(check (float 1e-9)) "root elapsed" 5.0 root.Trace.s_elapsed_ms;
  Alcotest.(check (list (pair string string)))
    "root meta"
    [ ("mode", "test") ]
    root.Trace.s_meta;
  (match root.Trace.s_children with
  | [ p; e ] ->
      Alcotest.(check string) "first child" "parse" p.Trace.s_name;
      Alcotest.(check (float 1e-9)) "parse elapsed" 1.0 p.Trace.s_elapsed_ms;
      Alcotest.(check string) "second child" "execute" e.Trace.s_name;
      Alcotest.(check (float 1e-9)) "execute elapsed" 3.0 e.Trace.s_elapsed_ms;
      (match e.Trace.s_children with
      | [ x ] -> (
          match x.Trace.s_exec with
          | Some ex ->
              Alcotest.(check string) "exec repo" "r0" ex.Trace.x_repo;
              Alcotest.(check string) "origin label" "source"
                (Trace.origin_label ex.Trace.x_origin)
          | None -> Alcotest.fail "expected exec leaf")
      | _ -> Alcotest.fail "expected one exec child")
  | _ -> Alcotest.fail "expected two children")

let test_origin_labels () =
  List.iter
    (fun (o, l) -> Alcotest.(check string) l l (Trace.origin_label o))
    [
      (Trace.Source, "source");
      (Trace.Cache, "cache");
      (Trace.Stale 5.0, "stale");
      (Trace.Failover "r9", "failover");
      (Trace.Blocked, "blocked");
    ]

(* -- the metrics registry -- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.find_counter m "c");
  Metrics.incr m "c";
  Metrics.incr ~by:4 m "c";
  Alcotest.(check int) "counter" 5 (Metrics.find_counter m "c");
  Metrics.observe m "h" 2.0;
  Metrics.observe m "h" 6.0;
  (match Metrics.find_histogram m "h" with
  | Some h ->
      Alcotest.(check int) "count" 2 h.Metrics.h_count;
      Alcotest.(check (float 1e-9)) "sum" 8.0 h.Metrics.h_sum;
      Alcotest.(check (float 1e-9)) "min" 2.0 h.Metrics.h_min;
      Alcotest.(check (float 1e-9)) "max" 6.0 h.Metrics.h_max
  | None -> Alcotest.fail "histogram missing");
  (* names are a namespace: a histogram cannot be incremented *)
  (try
     Metrics.incr m "h";
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Alcotest.(check (list string))
    "dump sorted" [ "c"; "h" ]
    (List.map fst (Metrics.dump m));
  Alcotest.(check string)
    "json" {|{"c":5,"h":{"count":2,"sum":8,"min":2,"max":6}}|}
    (Metrics.to_json m);
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (List.length (Metrics.dump m))

(* -- a deterministic two-source federation -- *)

let addr host = Source.address ~host ~db_name:"db" ~ip:"0.0.0.0" ()
let person_row id name salary = [| V.Int id; V.String name; V.Int salary |]

let source ~id ~host rows =
  let db = Database.create ~name:"db" in
  let tbl =
    Datagen.table_of db ~name:("person" ^ string_of_int id)
      Datagen.person_schema rows
  in
  ( Source.create ~id:(Fmt.str "src%d" id) ~address:(addr host)
      ~latency:{ Source.base_ms = 5.0; per_row_ms = 0.0; jitter = 0.0 }
      (Source.Relational db),
    tbl )

let federation ?cache ?trace_sink ?metrics () =
  let m =
    Mediator.create
      ~config:
        {
          Mediator.Config.default with
          cache;
          trace_sink;
          metrics =
            Option.value metrics ~default:Mediator.Config.default.Mediator.Config.metrics;
        }
      ~name:"obs" ()
  in
  let s0, _t0 = source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ] in
  let s1, t1 = source ~id:1 ~host:"umiacs" [ person_row 2 "Sam" 50 ] in
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
  (m, s0, s1, t1)

let q = "select x.name from x in person where x.salary > 10"

(* The golden scenario: warm the answer cache with both sources up, then
   take r1 down and query under Cached_fallback.  r0's fragment is
   served fresh from the cache (origin [cache]), r1's from the stale
   entry (origin [stale]); everything runs on the virtual clock so the
   trace is byte-for-byte deterministic. Returns the warm-up's trace (a
   plan-cache miss) and the golden one (a hit). *)
let golden_traces () =
  let traces = ref [] in
  let sink tr = traces := tr :: !traces in
  let m, _, s1, t1 =
    federation ~cache:(Answer_cache.create ()) ~trace_sink:sink
      ~metrics:(Metrics.create ()) ()
  in
  (match (Mediator.query m q).Mediator.answer with
  | Mediator.Complete _ -> ()
  | _ -> Alcotest.fail "warm-up should complete");
  (* r1's data moves on AND the source goes down: its cached fragment is
     version-stale, servable only under Cached_fallback *)
  Table.insert t1 (person_row 3 "Zoe" 300);
  Source.set_schedule s1 Schedule.always_down;
  let o =
    Mediator.query
      ~opts:
        {
          Mediator.Query_opts.default with
          semantics = Mediator.Cached_fallback { max_stale_ms = 60_000.0 };
        }
      m q
  in
  (match o.Mediator.answer with
  | Mediator.Complete v ->
      Alcotest.check check_value "stale fragment bridges the outage"
        (V.bag [ V.String "Mary"; V.String "Sam" ])
        v
  | _ -> Alcotest.fail "expected complete under Cached_fallback");
  match !traces with
  | [ second; first ] -> (first, second)
  | l -> Alcotest.fail (Fmt.str "expected two traces, got %d" (List.length l))

let golden_trace () = snd (golden_traces ())

let golden_pretty =
  String.concat "\n"
    [
      "trace \"select x.name from x in person where x.salary > 10\"";
      "`- query @5.0 +0.0ms {answer=complete; execs=2; tuples_shipped=0}";
      "   |- optimize @5.0 +0.0ms {plan_cache=hit}";
      "   `- execute @5.0 +0.0ms";
      "      |- exec r0 [cache] @5.0 +0.0ms, 0 tuples, 1 rows (predicted \
       5.0ms / 1 rows) :: WrapperSql <- map(name, select(salary > 10, \
       get(person0)))";
      "      `- exec r1 [stale(age 0.0ms)] @5.0 +0.0ms, 0 tuples, 1 rows \
       (predicted 5.0ms / 1 rows) :: WrapperSql <- map(name, select(salary > \
       10, get(person1)))";
      "";
    ]

let test_golden_pretty () =
  let tr = golden_trace () in
  Alcotest.(check string) "pretty span tree" golden_pretty
    (Fmt.str "%a" Trace.pp tr)

let golden_json =
  {|{"query":"select x.name from x in person where x.salary > 10","root":{"name":"query","start_ms":5.0,"elapsed_ms":0.0,"meta":{"answer":"complete","execs":"2","tuples_shipped":"0"},"children":[{"name":"optimize","start_ms":5.0,"elapsed_ms":0.0,"meta":{"plan_cache":"hit"}},{"name":"execute","start_ms":5.0,"elapsed_ms":0.0,"children":[{"name":"exec","start_ms":5.0,"elapsed_ms":0.0,"exec":{"repo":"r0","wrapper":"WrapperSql","expr":"map(name, select(salary > 10, get(person0)))","origin":"cache","start_ms":5.0,"elapsed_ms":0.0,"tuples":0,"rows":1,"predicted_ms":5.0,"predicted_rows":1.0}},{"name":"exec","start_ms":5.0,"elapsed_ms":0.0,"exec":{"repo":"r1","wrapper":"WrapperSql","expr":"map(name, select(salary > 10, get(person1)))","origin":"stale","stale_age_ms":0.0,"start_ms":5.0,"elapsed_ms":0.0,"tuples":0,"rows":1,"predicted_ms":5.0,"predicted_rows":1.0}}]}]}}|}

let test_golden_json () =
  let tr = golden_trace () in
  Alcotest.(check string) "json export" golden_json (Trace.to_json tr)

(* -- a minimal JSON parser, to check the export is valid JSON -- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Fmt.str "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else fail (Fmt.str "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad unicode escape";
              pos := !pos + 4;
              Buffer.add_char b '?';
              go ()
          | Some c -> advance (); Buffer.add_char b c; go ()
          | None -> fail "unterminated escape")
      | Some c -> advance (); Buffer.add_char b c; go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> fail "unexpected end"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let mem k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let test_json_consumable () =
  (* the exported JSON parses, and the structure the CLI and bench
     consume is reachable: root name, phase children, exec origins. A
     plan-cache miss runs every phase; a hit skips the front end. *)
  let first, second = golden_traces () in
  let children tr =
    let j = parse_json (Trace.to_json tr) in
    (match mem "query" j with
    | Some (Str s) -> Alcotest.(check string) "query field" q s
    | _ -> Alcotest.fail "no query field");
    let root = match mem "root" j with Some r -> r | None -> Alcotest.fail "no root" in
    (match mem "name" root with
    | Some (Str "query") -> ()
    | _ -> Alcotest.fail "root not named query");
    match mem "children" root with
    | Some (Arr l) -> l
    | _ -> Alcotest.fail "root has no children"
  in
  let names l =
    List.filter_map
      (fun c -> match mem "name" c with Some (Str s) -> Some s | _ -> None)
      l
  in
  Alcotest.(check (list string))
    "miss: phases in order"
    [ "parse"; "expand"; "compile"; "optimize"; "execute" ]
    (names (children first));
  let children = children second in
  Alcotest.(check (list string))
    "hit: phases in order" [ "optimize"; "execute" ] (names children);
  let execute = List.nth children 1 in
  let origins =
    match mem "children" execute with
    | Some (Arr execs) ->
        List.filter_map
          (fun e ->
            match mem "exec" e with
            | Some ex -> (
                match mem "origin" ex with Some (Str o) -> Some o | _ -> None)
            | None -> None)
          execs
    | _ -> Alcotest.fail "execute has no children"
  in
  Alcotest.(check (list string)) "exec origins" [ "cache"; "stale" ] origins;
  (* the metrics export is valid JSON too *)
  let reg = Metrics.create () in
  Metrics.incr reg "a.b";
  Metrics.observe reg "c" 1.5;
  match parse_json (Metrics.to_json reg) with
  | Obj [ ("a.b", Num 1.0); ("c", Obj _) ] -> ()
  | _ -> Alcotest.fail "unexpected metrics json shape"

(* -- tracing off adds no observable overhead -- *)

let test_no_sink_equivalence () =
  (* the same scenario with and without a sink: answers, stats and the
     virtual clock must be identical *)
  let run ~traced =
    let count = ref 0 in
    let trace_sink = if traced then Some (fun _ -> incr count) else None in
    let m, _, s1, t1 =
      federation ~cache:(Answer_cache.create ()) ?trace_sink ()
    in
    let o1 = Mediator.query m q in
    Table.insert t1 (person_row 3 "Zoe" 300);
    Source.set_schedule s1 Schedule.always_down;
    let o2 =
      Mediator.query
        ~opts:
          {
            Mediator.Query_opts.default with
            timeout_ms = 100.0;
            semantics = Mediator.Cached_fallback { max_stale_ms = 60_000.0 };
          }
        m q
    in
    (o1, o2, Clock.now (Mediator.clock m), !count)
  in
  let o1t, o2t, clock_t, traces = run ~traced:true in
  let o1u, o2u, clock_u, _ = run ~traced:false in
  Alcotest.(check int) "sink saw both queries" 2 traces;
  let check_same label a b =
    (match (a.Mediator.answer, b.Mediator.answer) with
    | Mediator.Complete va, Mediator.Complete vb ->
        Alcotest.check check_value (label ^ " answers equal") va vb
    | _ -> Alcotest.fail (label ^ ": expected two complete answers"));
    let sa = a.Mediator.stats and sb = b.Mediator.stats in
    Alcotest.(check int)
      (label ^ " execs")
      sa.Runtime.execs_issued sb.Runtime.execs_issued;
    Alcotest.(check int)
      (label ^ " tuples")
      sa.Runtime.tuples_shipped sb.Runtime.tuples_shipped;
    Alcotest.(check int)
      (label ^ " cache hits")
      sa.Runtime.cache_hits sb.Runtime.cache_hits;
    Alcotest.(check (float 1e-9))
      (label ^ " elapsed")
      sa.Runtime.elapsed_ms sb.Runtime.elapsed_ms
  in
  check_same "cold" o1t o1u;
  check_same "fallback" o2t o2u;
  Alcotest.(check (float 1e-9)) "virtual clocks agree" clock_t clock_u

(* -- answer round-trips through the unified answer_oql -- *)

let test_answer_roundtrip () =
  let m, _, s1, _ = federation () in
  Source.set_schedule s1 (Schedule.down_during [ (0.0, 2000.0) ]);
  let o =
    Mediator.query
      ~opts:{ Mediator.Query_opts.default with timeout_ms = 100.0 }
      m q
  in
  (match o.Mediator.answer with
  | Mediator.Partial p as answer ->
      let text = Mediator.answer_oql answer in
      (* the mediator and runtime renderers are the same function *)
      Alcotest.(check string)
        "one renderer" text
        (Runtime.answer_oql (Runtime.Partial p));
      (* the text is parseable OQL that mentions the blocked extent *)
      ignore (Disco_oql.Parser.parse text);
      let contains sub =
        let k = String.length sub and len = String.length text in
        let rec go i = i + k <= len && (String.sub text i k = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "residual mentions person1" true (contains "person1")
  | _ -> Alcotest.fail "expected partial");
  (* after recovery, resubmitting the partial gives the full answer *)
  Clock.advance (Mediator.clock m) 3000.0;
  (match (Mediator.resubmit m o.Mediator.answer).Mediator.answer with
  | Mediator.Complete v ->
      Alcotest.check check_value "resubmission completes"
        (V.bag [ V.String "Mary"; V.String "Sam" ])
        v
  | _ -> Alcotest.fail "expected complete after recovery");
  (* complete answers render as a collection literal that parses too *)
  let m2, _, _, _ = federation () in
  match (Mediator.query m2 q).Mediator.answer with
  | Mediator.Complete _ as answer ->
      ignore (Disco_oql.Parser.parse (Mediator.answer_oql answer))
  | _ -> Alcotest.fail "expected complete"

(* -- the Config/Query_opts records cover what the retired Legacy
   optional-arg aliases used to (the Legacy module is gone) -- *)

let test_config_api () =
  let m =
    Mediator.create
      ~config:{ Mediator.Config.default with plan_cache_capacity = 4 }
      ~name:"cfg" ()
  in
  let s0, _ = source ~id:0 ~host:"rodin" [ person_row 1 "Mary" 200 ] in
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
  (match
     (Mediator.query
        ~opts:{ Mediator.Query_opts.default with timeout_ms = 500.0 }
        m "select x.name from x in person")
       .Mediator.answer
   with
  | Mediator.Complete v ->
      Alcotest.check check_value "config-built mediator answers"
        (V.bag [ V.String "Mary" ])
        v
  | _ -> Alcotest.fail "expected complete");
  Alcotest.(check int)
    "plan cache capacity honored" 4
    (Mediator.plan_cache_stats m).Mediator.p_capacity

let () =
  Alcotest.run "disco_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "builder nesting" `Quick test_trace_builder;
          Alcotest.test_case "origin labels" `Quick test_origin_labels;
          Alcotest.test_case "golden pretty tree" `Quick test_golden_pretty;
          Alcotest.test_case "golden json" `Quick test_golden_json;
          Alcotest.test_case "json is consumable" `Quick test_json_consumable;
        ] );
      ( "metrics",
        [ Alcotest.test_case "registry" `Quick test_metrics_registry ] );
      ( "api",
        [
          Alcotest.test_case "no-sink equivalence" `Quick
            test_no_sink_equivalence;
          Alcotest.test_case "answer round-trip" `Quick test_answer_roundtrip;
          Alcotest.test_case "config record api" `Quick test_config_api;
        ] );
    ]
