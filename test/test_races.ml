(* Interleaving stress tests for the domain-parallel paths (PR 7's wall
   scheduler and the serving surface). The toolchain has no thread
   sanitizer for OCaml 5.1 and no dscheck, so these hammer the shared
   structures from many threads and domains and assert the invariants a
   race would break:

   - Metrics: concurrent counters and histograms lose no update;
   - Server: submit/stop churn — every admitted request is answered
     even when stop lands mid-burst, and the health counters reconcile
     exactly with the observed replies;
   - Scheduler: the wall scheduler answers exactly like the
     deterministic virtual one, under concurrent sessions too;
   - Grammar: the verdict memo of one shared grammar, asked from
     several domains and threads at once, answers like Earley. *)

module V = Disco_value.Value
module Database = Disco_relation.Database
module Source = Disco_source.Source
module Datagen = Disco_source.Datagen
module Scheduler = Disco_source.Scheduler
module Mediator = Disco_core.Mediator
module Runtime = Disco_runtime.Runtime
module Metrics = Disco_obs.Metrics
module Server = Disco_serve.Server
module Expr = Disco_algebra.Expr
module Grammar = Disco_wrapper.Grammar

(* -- metrics under domain parallelism -- *)

let test_metrics_hammer () =
  let m = Metrics.create () in
  let domains = 4 and iters = 5000 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to iters - 1 do
              Metrics.incr m "hammer.count";
              Metrics.incr ~by:2 m (Fmt.str "hammer.d%d" d);
              Metrics.observe m "hammer.lat" (float_of_int i)
            done))
  in
  List.iter Domain.join spawned;
  Alcotest.(check int)
    "shared counter lost nothing" (domains * iters)
    (Metrics.find_counter m "hammer.count");
  for d = 0 to domains - 1 do
    Alcotest.(check int)
      (Fmt.str "private counter d%d" d)
      (2 * iters)
      (Metrics.find_counter m (Fmt.str "hammer.d%d" d))
  done;
  match Metrics.find_histogram m "hammer.lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "every observation kept" (domains * iters)
        h.Metrics.h_count;
      Alcotest.(check (float 0.0)) "min" 0.0 h.Metrics.h_min;
      Alcotest.(check (float 0.0))
        "max"
        (float_of_int (iters - 1))
        h.Metrics.h_max;
      Alcotest.(check (float 0.5))
        "sum"
        (float_of_int (domains * iters * (iters - 1) / 2))
        h.Metrics.h_sum

(* -- server submit/stop churn -- *)

(* A burst of submitters racing a concurrent stop. The contract: a
   request admitted before stop is drained and answered; one arriving
   after is refused with Failed — never silently dropped, never
   double-counted. Repeated, since the interesting interleavings are
   timing-dependent. *)
let test_submit_stop_churn () =
  for round = 1 to 6 do
    let worker _i ~tenant:_ oql =
      Thread.yield ();
      Server.Answered { body = oql; elapsed_ms = 0.1 }
    in
    let srv = Server.create ~inflight:3 ~queue_bound:8 ~worker () in
    let n = 24 in
    let replies = Array.make n None in
    let submitters =
      List.init n (fun k ->
          Thread.create
            (fun () ->
              if k mod 4 = 3 then Thread.yield ();
              replies.(k) <-
                Some
                  (Server.submit srv
                     ~tenant:(Fmt.str "t%d" (k mod 3))
                     (Fmt.str "q%d" k)))
            ())
    in
    (* land stop in the middle of the burst *)
    let stopper =
      Thread.create
        (fun () ->
          if round mod 2 = 0 then Thread.yield ();
          Server.stop srv)
        ()
    in
    List.iter Thread.join submitters;
    Thread.join stopper;
    let answered = ref 0 and shed = ref 0 and refused = ref 0 in
    Array.iter
      (function
        | Some (Server.Answered _) -> incr answered
        | Some (Server.Shed _) -> incr shed
        | Some (Server.Failed _) -> incr refused
        | None -> Alcotest.fail "a submitter never got a reply")
      replies;
    let h = Server.health srv in
    Alcotest.(check int)
      (Fmt.str "round %d: replies partition the burst" round)
      n
      (!answered + !shed + !refused);
    Alcotest.(check int)
      (Fmt.str "round %d: completed = answered" round)
      !answered h.Server.h_completed;
    Alcotest.(check int)
      (Fmt.str "round %d: shed counter = shed replies" round)
      !shed h.Server.h_shed;
    Alcotest.(check int)
      (Fmt.str "round %d: no worker errors" round)
      0 h.Server.h_errors;
    Alcotest.(check int)
      (Fmt.str "round %d: backlog drained" round)
      0 h.Server.h_queued;
    Alcotest.(check int)
      (Fmt.str "round %d: nothing in flight" round)
      0 h.Server.h_inflight;
    (* the metrics registry tells the same story as the health struct *)
    let mx = Server.metrics srv in
    Alcotest.(check int)
      (Fmt.str "round %d: admitted = completed" round)
      h.Server.h_completed
      (Metrics.find_counter mx "serve.requests");
    Alcotest.(check int)
      (Fmt.str "round %d: serve.shed agrees" round)
      !shed
      (Metrics.find_counter mx "serve.shed")
  done

(* -- wall scheduler vs virtual scheduler -- *)

let federation ?sched () =
  let config =
    match sched with
    | None -> Mediator.Config.default
    | Some s -> { Mediator.Config.default with sched = Some s }
  in
  let m = Mediator.create ~config ~name:"races" () in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for i = 0 to 2 do
    let db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of db
         ~name:(Fmt.str "person%d" i)
         Datagen.person_schema
         (Datagen.person_rows ~seed:(1000 + i) ~n:8));
    Mediator.register_source m
      ~name:(Fmt.str "r%d" i)
      (Source.create ~id:(Fmt.str "p%d" i)
         ~address:
           (Source.address ~host:(Fmt.str "h%d" i) ~db_name:"db" ~ip:"0" ())
         ~latency:{ Source.base_ms = 1.0; per_row_ms = 0.01; jitter = 0.0 }
         (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="h%d", name="db", address="0");
           extent person%d of Person wrapper w0 repository r%d;|}
         i i i i)
  done;
  m

let bag_eq a b =
  let sorted v = List.sort V.compare (V.elements v) in
  List.equal V.equal (sorted a) (sorted b)

let complete = function
  | Mediator.Complete v -> v
  | _ -> Alcotest.fail "expected a complete answer"

let equivalence_queries =
  [
    "select x.name from x in person where x.salary > 100";
    "select x from x in person0 where x.id = 3";
    "select struct(n: x.name, s: x.salary) from x in person1 where x.salary \
     <= 250";
    "select x.name from x in person2";
  ]

let test_scheduler_equivalence () =
  let sched = Scheduler.wall ~domains:3 () in
  let virt = federation () and wall = federation ~sched () in
  let opts = { Mediator.Query_opts.default with timeout_ms = 5000.0 } in
  List.iter
    (fun q ->
      let a = complete (Mediator.query virt q).Mediator.answer
      and b = complete (Mediator.query ~opts wall q).Mediator.answer in
      Alcotest.(check bool)
        (Fmt.str "virtual and wall agree on %S" q)
        true (bag_eq a b))
    equivalence_queries;
  Scheduler.shutdown sched

(* Concurrent sessions over mediator replicas sharing one wall
   scheduler: everything answers and the answers are right — the
   domain-parallel batch issue loses and duplicates nothing. *)
let test_wall_concurrent_sessions () =
  let sched = Scheduler.wall ~domains:3 () in
  let expected =
    complete
      (Mediator.query (federation ())
         "select x.name from x in person where x.salary > 100")
        .Mediator.answer
    |> V.elements |> List.sort V.compare
  in
  let meds = Array.init 3 (fun _ -> federation ~sched ()) in
  let opts = { Mediator.Query_opts.default with timeout_ms = 5000.0 } in
  let worker i ~tenant:_ oql =
    match Mediator.query ~opts meds.(i) oql with
    | o -> (
        match o.Mediator.answer with
        | Mediator.Complete v ->
            Server.Answered
              {
                body =
                  String.concat ","
                    (List.map V.to_string
                       (List.sort V.compare (V.elements v)));
                elapsed_ms = o.Mediator.stats.Runtime.elapsed_ms;
              }
        | _ -> Server.Failed "degraded answer")
    | exception e -> Server.Failed (Printexc.to_string e)
  in
  let srv = Server.create ~inflight:3 ~queue_bound:64 ~worker () in
  let n = 18 in
  let replies = Array.make n None in
  let threads =
    List.init n (fun k ->
        Thread.create
          (fun () ->
            replies.(k) <-
              Some
                (Server.submit srv
                   ~tenant:(Fmt.str "t%d" (k mod 4))
                   "select x.name from x in person where x.salary > 100"))
          ())
  in
  List.iter Thread.join threads;
  let expected_body = String.concat "," (List.map V.to_string expected) in
  Array.iter
    (function
      | Some (Server.Answered { body; _ }) ->
          Alcotest.(check string) "every session got the full answer"
            expected_body body
      | Some (Server.Failed msg) -> Alcotest.fail ("session failed: " ^ msg)
      | Some (Server.Shed _) -> Alcotest.fail "nothing should shed"
      | None -> Alcotest.fail "a session never finished")
    replies;
  let h = Server.health srv in
  Alcotest.(check int) "all completed" n h.Server.h_completed;
  Alcotest.(check int) "no errors" 0 h.Server.h_errors;
  Server.stop srv;
  Scheduler.shutdown sched

(* -- one grammar memo shared by domains and threads -- *)

(* A fixed mix of distinct sentences, more than the memo holds, so
   concurrent askers also race its restart. Attribute names no other
   test uses keep the shared grammar's memo cold for them. Every third
   one is a union, which [full_relational] refuses. *)
let memo_mix =
  List.init (Grammar.memo_bound + 100) (fun i ->
      let a = Printf.sprintf "race%d" i in
      let sel =
        Expr.Select
          ( Expr.Get "s",
            Expr.Cmp (Expr.Lt, Expr.Attr [ "x"; a ], Expr.Const (V.Int i)) )
      in
      if i mod 3 = 0 then Expr.Union [ sel; Expr.Get "t" ]
      else Expr.Project (sel, [ a ]))

let test_shared_grammar_memo () =
  let g = Grammar.full_relational in
  let mix = Array.of_list memo_mix in
  let n = Array.length mix in
  let expected =
    Array.map (fun e -> Grammar.derives g (Grammar.tokens_of_expr e)) mix
  in
  (* each asker walks the mix from its own offset, twice, and counts the
     verdicts that differ from the sequential ones *)
  let ask offset () =
    let wrong = ref 0 in
    for pass = 0 to 1 do
      for k = 0 to n - 1 do
        let i = (offset + (pass * 7) + k) mod n in
        if Grammar.accepts g mix.(i) <> expected.(i) then incr wrong
      done
    done;
    !wrong
  in
  let domains = List.init 4 (fun d -> Domain.spawn (ask (d * 97))) in
  let thread_wrong = Array.make 2 0 in
  let threads =
    List.init 2 (fun t ->
        Thread.create
          (fun () -> thread_wrong.(t) <- ask (500 + (t * 131)) ())
          ())
  in
  List.iter Thread.join threads;
  let domain_wrong = List.map Domain.join domains in
  List.iteri
    (fun d w -> Alcotest.(check int) (Fmt.str "domain %d verdicts" d) 0 w)
    domain_wrong;
  Array.iteri
    (fun t w -> Alcotest.(check int) (Fmt.str "thread %d verdicts" t) 0 w)
    thread_wrong;
  Alcotest.(check bool)
    "mix has both verdicts" true
    (Array.mem true expected && Array.mem false expected)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "races"
    [
      ("metrics", [ tc "domain-parallel hammer" test_metrics_hammer ]);
      ("server", [ tc "submit/stop churn" test_submit_stop_churn ]);
      ( "scheduler",
        [
          tc "wall = virtual" test_scheduler_equivalence;
          tc "concurrent wall sessions" test_wall_concurrent_sessions;
        ] );
      ("grammar", [ tc "shared grammar memo" test_shared_grammar_memo ]);
    ]
