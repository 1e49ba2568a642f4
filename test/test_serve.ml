(* Tests for the serving surface: admission control observed
   deterministically through a barrier-blocking worker, per-tenant fair
   queueing, a wall-clock smoke test and the plan and answer caches of
   one mediator shared by every worker, the line protocol's request-line
   bound over a real socket, and the open-loop load generator on the
   in-process transport. *)

module V = Disco_value.Value
module Source = Disco_source.Source
module Datagen = Disco_source.Datagen
module Scheduler = Disco_source.Scheduler
module Database = Disco_relation.Database
module Runtime = Disco_runtime.Runtime
module Mediator = Disco_core.Mediator
module Answer_cache = Disco_cache.Answer_cache
module Metrics = Disco_obs.Metrics
module Server = Disco_serve.Server
module Loadgen = Disco_serve.Loadgen

(* A counting semaphore: workers block in [acquire] until the test hands
   out permits, so queue depths are observed at rest, not raced. *)
let make_gate () =
  let m = Mutex.create () and c = Condition.create () in
  let permits = ref 0 in
  let acquire () =
    Mutex.lock m;
    while !permits <= 0 do
      Condition.wait c m
    done;
    decr permits;
    Mutex.unlock m
  in
  let release n =
    Mutex.lock m;
    permits := !permits + n;
    Condition.broadcast c;
    Mutex.unlock m
  in
  (acquire, release)

let wait_until ?(timeout_s = 5.0) msg pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout_s then
      Alcotest.fail ("timed out waiting for " ^ msg)
    else (
      Thread.yield ();
      Unix.sleepf 0.001;
      go ())
  in
  go ()

(* -- admission control -- *)

let test_admission_limit () =
  let acquire, release = make_gate () in
  let worker ~tenant:_ oql =
    acquire ();
    Server.Answered { body = oql; elapsed_ms = 0.0 }
  in
  let metrics = Metrics.create () in
  let srv = Server.create ~inflight:2 ~queue_bound:2 ~metrics ~worker () in
  let replies = Array.make 4 None in
  let submit k =
    Thread.create
      (fun () ->
        replies.(k) <- Some (Server.submit srv ~tenant:"t" (Fmt.str "q%d" k)))
      ()
  in
  (* fill the in-flight limit... *)
  let t0 = submit 0 in
  let t1 = submit 1 in
  wait_until "both workers busy" (fun () ->
      (Server.health srv).Server.h_inflight = 2);
  (* ...then the backlog... *)
  let t2 = submit 2 in
  let t3 = submit 3 in
  wait_until "backlog full" (fun () ->
      (Server.health srv).Server.h_queued = 2);
  (* ...and the next arrival is shed synchronously, carrying the whole
     query as its resubmittable residual. *)
  (match Server.submit srv ~tenant:"t" "q4" with
  | Server.Shed { residual } ->
      Alcotest.(check string) "residual is the query" "q4" residual
  | Server.Answered _ | Server.Failed _ -> Alcotest.fail "expected shed");
  release 4;
  List.iter Thread.join [ t0; t1; t2; t3 ];
  Array.iter
    (function
      | Some (Server.Answered _) -> ()
      | _ -> Alcotest.fail "expected every admitted query answered")
    replies;
  let h = Server.health srv in
  Alcotest.(check int) "completed" 4 h.Server.h_completed;
  Alcotest.(check int) "shed" 1 h.Server.h_shed;
  Alcotest.(check int) "errors" 0 h.Server.h_errors;
  Alcotest.(check int) "metrics: completed" 4
    (Metrics.find_counter metrics "serve.completed");
  Alcotest.(check int) "metrics: shed" 1
    (Metrics.find_counter metrics "serve.shed");
  Server.stop srv

let test_create_validation () =
  let worker ~tenant:_ oql =
    Server.Answered { body = oql; elapsed_ms = 0.0 }
  in
  Alcotest.check_raises "inflight must be positive"
    (Invalid_argument "Server.create: inflight must be positive") (fun () ->
      ignore (Server.create ~inflight:0 ~worker ()));
  Alcotest.check_raises "queue bound must be non-negative"
    (Invalid_argument "Server.create: queue_bound must be non-negative")
    (fun () -> ignore (Server.create ~queue_bound:(-1) ~worker ()))

let test_stopped_server_fails () =
  let worker ~tenant:_ oql =
    Server.Answered { body = oql; elapsed_ms = 0.0 }
  in
  let srv = Server.create ~inflight:1 ~worker () in
  Server.stop srv;
  Server.stop srv;
  (* idempotent *)
  match Server.submit srv ~tenant:"t" "q" with
  | Server.Failed _ -> ()
  | Server.Answered _ | Server.Shed _ ->
      Alcotest.fail "expected Failed after stop"

(* -- fair queueing -- *)

let test_fair_queueing () =
  (* One worker, blocked; tenant [a] then floods three queries, tenant
     [b] files one. Round-robin drain must not serve [b] last. *)
  let acquire, release = make_gate () in
  let order = ref [] in
  let lock = Mutex.create () in
  let worker ~tenant oql =
    acquire ();
    Mutex.lock lock;
    order := (tenant, oql) :: !order;
    Mutex.unlock lock;
    Server.Answered { body = oql; elapsed_ms = 0.0 }
  in
  let srv = Server.create ~inflight:1 ~queue_bound:16 ~worker () in
  let spawn tenant oql =
    Thread.create (fun () -> ignore (Server.submit srv ~tenant oql)) ()
  in
  let warm = spawn "w" "warm" in
  wait_until "worker busy" (fun () ->
      (Server.health srv).Server.h_inflight = 1);
  let enqueue k tenant oql =
    let t = spawn tenant oql in
    wait_until (Fmt.str "queue depth %d" k) (fun () ->
        (Server.health srv).Server.h_queued = k);
    t
  in
  let ta1 = enqueue 1 "a" "a1" in
  let ta2 = enqueue 2 "a" "a2" in
  let ta3 = enqueue 3 "a" "a3" in
  let tb1 = enqueue 4 "b" "b1" in
  let ts = [ ta1; ta2; ta3; tb1 ] in
  release 5;
  List.iter Thread.join (warm :: ts);
  let executed = List.rev !order in
  (match executed with
  | ("w", "warm") :: rest ->
      let pos =
        List.mapi (fun i x -> (i, x)) rest
        |> List.find_map (fun (i, (t, _)) ->
               if String.equal t "b" then Some i else None)
      in
      (match pos with
      | Some i ->
          Alcotest.(check bool)
            "tenant b served within the first two drained requests" true
            (i < 2)
      | None -> Alcotest.fail "tenant b never served")
  | _ -> Alcotest.fail "warm-up query not executed first");
  Server.stop srv

(* -- wall-clock serving over one mediator -- *)

let federation ?cache ~sched n =
  let m =
    Mediator.create
      ~config:{ Mediator.Config.default with sched = Some sched; cache }
      ~name:"serve-test" ()
  in
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
         (Datagen.person_rows ~seed:(1000 + i) ~n:5));
    let source =
      Source.create ~id:name
        ~address:
          (Source.address ~host:(Fmt.str "site%d" i) ~db_name:"db"
             ~ip:"0.0.0.0" ())
        ~latency:{ Source.base_ms = 2.0; per_row_ms = 0.01; jitter = 0.0 }
        (Source.Relational db)
    in
    Mediator.register_source m ~name:(Fmt.str "r%d" i) source;
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="site%d", name="db", address="0.0.0.0");
           extent person%d of Person wrapper w0 repository r%d;|}
         i i i i)
  done;
  m

let test_wall_clock_smoke () =
  (* N concurrent sessions over one mediator on a wall scheduler:
     everything answers, nothing sheds, nothing errors. *)
  let sched = Scheduler.wall ~domains:2 () in
  let med = federation ~sched 3 in
  let opts = { Mediator.Query_opts.default with timeout_ms = 5000.0 } in
  let worker ~tenant:_ oql =
    match Mediator.query ~opts med oql with
    | o ->
        Server.Answered
          { body = "ok"; elapsed_ms = o.Mediator.stats.Runtime.elapsed_ms }
    | exception e -> Server.Failed (Printexc.to_string e)
  in
  let srv = Server.create ~inflight:2 ~queue_bound:32 ~worker () in
  let n = 8 in
  let replies = Array.make n None in
  let threads =
    List.init n (fun k ->
        Thread.create
          (fun () ->
            replies.(k) <-
              Some
                (Server.submit srv
                   ~tenant:(if k mod 2 = 0 then "a" else "b")
                   "select x.name from x in person where x.salary > 10"))
          ())
  in
  List.iter Thread.join threads;
  Array.iter
    (function
      | Some (Server.Answered { elapsed_ms; _ }) ->
          Alcotest.(check bool) "positive wall service time" true
            (elapsed_ms > 0.0)
      | Some (Server.Failed msg) -> Alcotest.fail ("query failed: " ^ msg)
      | _ -> Alcotest.fail "expected every query answered")
    replies;
  let h = Server.health srv in
  Alcotest.(check int) "all completed" n h.Server.h_completed;
  Alcotest.(check int) "nothing shed" 0 h.Server.h_shed;
  Alcotest.(check int) "no errors" 0 h.Server.h_errors;
  Server.stop srv;
  Scheduler.shutdown sched

let test_one_plan_per_text () =
  (* Twenty requests for one text, in sequence, to a 4-worker server:
     the workers share the mediator's plan cache and answer cache, so
     the text is planned once and every repeat is answered from the
     cache, whichever worker serves it. *)
  let sched = Scheduler.wall ~domains:2 () in
  let med = federation ~cache:(Answer_cache.create ()) ~sched 3 in
  let opts = { Mediator.Query_opts.default with timeout_ms = 5000.0 } in
  let worker ~tenant:_ oql =
    let o = Mediator.query ~opts med oql in
    Server.Answered
      {
        body =
          Fmt.str "%b %d/%d" o.Mediator.from_cache
            o.Mediator.answer_cache.Mediator.answer_hits
            o.Mediator.stats.Runtime.execs_issued;
        elapsed_ms = o.Mediator.stats.Runtime.elapsed_ms;
      }
  in
  let srv = Server.create ~inflight:4 ~queue_bound:8 ~worker () in
  let q = "select x.name from x in person where x.salary > 10" in
  let bodies =
    List.init 20 (fun _ ->
        match Server.submit srv ~tenant:"a" q with
        | Server.Answered { body; _ } -> body
        | Server.Failed msg -> Alcotest.fail ("query failed: " ^ msg)
        | Server.Shed _ -> Alcotest.fail "nothing should shed")
  in
  Server.stop srv;
  Scheduler.shutdown sched;
  let p = Mediator.plan_cache_stats med in
  Alcotest.(check int) "one plan-cache miss" 1 p.Mediator.p_misses;
  Alcotest.(check int) "nineteen hits" 19 p.Mediator.p_hits;
  Alcotest.(check string) "the first request plans and calls every source"
    "false 0/3" (List.hd bodies);
  List.iteri
    (fun i body ->
      Alcotest.(check string)
        (Fmt.str "repeat %d is a plan and answer cache hit" (i + 1))
        "true 3/3" body)
    (List.tl bodies)

(* -- the line protocol over a real socket -- *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close fd;
  port

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> (fd, Unix.in_channel_of_descr fd)
  | exception e ->
      Unix.close fd;
      raise e

let send_raw fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let test_line_bound () =
  (* a request line of exactly [max_line_bytes] is served; one byte more
     is refused with an error and the session closes, with the server
     still serving other sessions *)
  let worker ~tenant:_ oql = Server.Answered { body = oql; elapsed_ms = 0.0 } in
  let srv = Server.create ~inflight:1 ~worker () in
  let port = free_port () in
  let server = Thread.create (fun () -> Server.serve_tcp srv ~port ()) () in
  let rec dial tries =
    match connect port with
    | c -> c
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.01;
        dial (tries - 1)
  in
  let fd, ic = dial 500 in
  let health = "health" in
  send_raw fd
    (health ^ String.make (Server.max_line_bytes - String.length health) ' ' ^ "\n");
  Alcotest.(check bool) "a line at the bound is served" true
    (String.starts_with ~prefix:"ok workers=" (input_line ic));
  send_raw fd (String.make (Server.max_line_bytes + 1) 'x');
  Alcotest.(check string) "one byte more is refused" "error line too long"
    (input_line ic);
  Alcotest.(check bool) "and the session closes" true
    (match input_line ic with _ -> false | exception End_of_file -> true);
  Unix.close fd;
  let fd, ic = dial 0 in
  send_raw fd "shutdown\n";
  Alcotest.(check string) "other sessions still served" "ok shutting down"
    (input_line ic);
  Unix.close fd;
  Thread.join server

(* -- load generator -- *)

let test_loadgen_direct () =
  let worker ~tenant:_ oql =
    Server.Answered { body = oql; elapsed_ms = 0.1 }
  in
  let srv = Server.create ~inflight:4 ~queue_bound:64 ~worker () in
  let r =
    Loadgen.run ~seed:7
      ~tenants:[ "a"; "b" ]
      ~queries:[| "q1"; "q2"; "q3" |]
      ~rate:200.0 ~duration_s:0.2 (Loadgen.Direct srv)
  in
  Server.stop srv;
  Alcotest.(check int) "open loop sends rate*duration" 40 r.Loadgen.r_sent;
  Alcotest.(check int) "all completed" r.Loadgen.r_sent r.Loadgen.r_completed;
  Alcotest.(check int) "nothing shed" 0 r.Loadgen.r_shed;
  Alcotest.(check int) "no errors" 0 r.Loadgen.r_errors;
  Alcotest.(check bool) "throughput measured" true (r.Loadgen.r_qps > 0.0);
  Alcotest.(check bool) "percentiles ordered" true
    (r.Loadgen.r_p50_ms <= r.Loadgen.r_p99_ms
    && r.Loadgen.r_p99_ms <= r.Loadgen.r_p999_ms)

let test_loadgen_validation () =
  let worker ~tenant:_ oql =
    Server.Answered { body = oql; elapsed_ms = 0.0 }
  in
  let srv = Server.create ~inflight:1 ~worker () in
  Alcotest.check_raises "empty pool"
    (Invalid_argument "Loadgen.run: empty query pool") (fun () ->
      ignore
        (Loadgen.run ~queries:[||] ~rate:1.0 ~duration_s:0.1
           (Loadgen.Direct srv)));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Loadgen.run: rate must be positive") (fun () ->
      ignore
        (Loadgen.run ~queries:[| "q" |] ~rate:0.0 ~duration_s:0.1
           (Loadgen.Direct srv)));
  Server.stop srv

let () =
  Alcotest.run "disco_serve"
    [
      ( "admission",
        [
          Alcotest.test_case "limit and shedding" `Quick test_admission_limit;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "stopped server fails submissions" `Quick
            test_stopped_server_fails;
        ] );
      ( "fairness",
        [ Alcotest.test_case "round-robin drain" `Quick test_fair_queueing ] );
      ( "wall-clock",
        [
          Alcotest.test_case "concurrent sessions" `Quick test_wall_clock_smoke;
          Alcotest.test_case "one plan per text" `Quick test_one_plan_per_text;
        ] );
      ( "protocol",
        [ Alcotest.test_case "request line bound" `Quick test_line_bound ] );
      ( "loadgen",
        [
          Alcotest.test_case "direct transport" `Quick test_loadgen_direct;
          Alcotest.test_case "validation" `Quick test_loadgen_validation;
        ] );
    ]
