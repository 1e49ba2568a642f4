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
   - Mediator: one mediator queried by server workers and by domains at
     once answers like the sequential virtual one, and its plan-cache
     and source counters reconcile;
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
module Answer_cache = Disco_cache.Answer_cache
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
    let worker ~tenant:_ oql =
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

let federation ?sched ?cache ?retry
    ?(latency = { Source.base_ms = 1.0; per_row_ms = 0.01; jitter = 0.0 }) () =
  
  let config = { Mediator.Config.default with sched; cache; retry } in
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
         ~latency
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

(* Concurrent sessions over one mediator on a wall scheduler:
   everything answers and the answers are right — the domain-parallel
   batch issue loses and duplicates nothing. *)
let test_wall_concurrent_sessions () =
  let sched = Scheduler.wall ~domains:3 () in
  let expected =
    complete
      (Mediator.query (federation ())
         "select x.name from x in person where x.salary > 100")
        .Mediator.answer
    |> V.elements |> List.sort V.compare
  in
  let med = federation ~sched () in
  let opts = { Mediator.Query_opts.default with timeout_ms = 5000.0 } in
  let worker ~tenant:_ oql =
    match Mediator.query ~opts med oql with
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

(* -- one mediator shared by threads and domains -- *)

(* A complete answer's elements, sorted and printed. *)
let answer_text (o : Mediator.outcome) =
  complete o.Mediator.answer |> V.elements |> List.sort V.compare
  |> List.map V.to_string |> String.concat ","

(* One mediator, with an answer cache and a retry policy whose breaker
   is armed, queried at once by a 4-worker server (fed by six client
   threads) and by two domains. Its sources answer instantly and its
   answer cache holds one entry, so nearly every query is a plan-cache
   hit that calls its sources, and the domains' queries overlap in the
   plan cache, the answer cache, the sources' counters and the cost
   model. Every answer equals the sequential virtual one, every source
   call is one of the round trips the answers report (and, each exec
   dialling its own source, one uncached exec), and every query is one
   plan-cache hit or miss. *)
let test_one_mediator_shared () =
  let sched = Scheduler.wall ~domains:2 () in
  let retry =
    Runtime.Retry.make ~initial_ms:1.0 ~max_attempts:2 ~breaker_threshold:2 ()
  in
  let med =
    federation ~sched ~retry
      ~cache:(Answer_cache.create ~capacity:1 ())
      ~latency:{ Source.base_ms = 0.0; per_row_ms = 0.0; jitter = 0.0 }
      ()
  in
  let queries = Array.of_list equivalence_queries in
  let expected =
    let virt = federation () in
    Array.map (fun q -> answer_text (Mediator.query virt q)) queries
  in
  let opts = { Mediator.Query_opts.default with timeout_ms = 5000.0 } in
  let stats_lock = Mutex.create () in
  let stats = ref [] in
  let run k =
    let o = Mediator.query ~opts med queries.(k) in
    Mutex.protect stats_lock (fun () -> stats := o.Mediator.stats :: !stats);
    answer_text o
  in
  let index_of q =
    let rec go k = if String.equal queries.(k) q then k else go (k + 1) in
    go 0
  in
  let worker ~tenant:_ q =
    match run (index_of q) with
    | body -> Server.Answered { body; elapsed_ms = 0.0 }
    | exception e -> Server.Failed (Printexc.to_string e)
  in
  let srv = Server.create ~inflight:4 ~queue_bound:64 ~worker () in
  let clients = 6 and per_client = 20 and domains = 2 and per_domain = 2000 in
  let pick c i = (c + i) mod Array.length queries in
  let replies = Array.make_matrix clients per_client None in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () ->
            for i = 0 to per_client - 1 do
              replies.(c).(i) <-
                Some
                  (Server.submit srv ~tenant:(Fmt.str "t%d" c)
                     queries.(pick c i))
            done)
          ())
  in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            List.init per_domain (fun i ->
                let k = pick d i in
                (k, run k))))
  in
  List.iter Thread.join threads;
  let domain_answers = List.map Domain.join spawned in
  Server.stop srv;
  Scheduler.shutdown sched;
  Array.iteri
    (fun c row ->
      Array.iteri
        (fun i reply ->
          let k = pick c i in
          match reply with
          | Some (Server.Answered { body; _ }) ->
              Alcotest.(check string)
                (Fmt.str "server answer to %S" queries.(k))
                expected.(k) body
          | Some (Server.Failed msg) -> Alcotest.fail ("query failed: " ^ msg)
          | Some (Server.Shed _) -> Alcotest.fail "nothing should shed"
          | None -> Alcotest.fail "a client never got a reply")
        row)
    replies;
  let wrong =
    List.concat domain_answers
    |> List.filter (fun (k, body) -> not (String.equal expected.(k) body))
  in
  Alcotest.(check int) "domain answers equal the virtual ones" 0
    (List.length wrong);
  let n = (clients * per_client) + (domains * per_domain) in
  let stats = !stats in
  Alcotest.(check int) "every query reported" n (List.length stats);
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let calls =
    List.fold_left
      (fun acc (_, (s : Source.stats)) ->
        acc + s.Source.calls_answered + s.Source.calls_refused
        + s.Source.calls_timed_out)
      0
      (Mediator.source_stats med)
  in
  Alcotest.(check int) "source calls = round trips" calls
    (sum (fun s -> s.Runtime.round_trips));
  Alcotest.(check int) "source calls = uncached execs issued" calls
    (sum (fun s -> s.Runtime.execs_issued - s.Runtime.cache_hits));
  let p = Mediator.plan_cache_stats med in
  Alcotest.(check int) "plan-cache hits + misses = queries" n
    (p.Mediator.p_hits + p.Mediator.p_misses);
  Alcotest.(check bool) "each text missed at least once" true
    (p.Mediator.p_misses >= Array.length queries)

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
      ( "mediator",
        [
          tc "one mediator shared by threads and domains"
            test_one_mediator_shared;
        ] );
      ("grammar", [ tc "shared grammar memo" test_shared_grammar_memo ]);
    ]
