(* The Disco benchmark: four workloads, end-to-end metrics from untraced
   runs (--trace 0) and per-layer metrics from a staged replay
   (--trace 1). See benchmark/README.md.

     disco_bench --workload hot_repeat --seed 3 --seconds 15 --trace 0
     disco_bench --seed 42 [--traced] [--quick]      all four, each in a child
     disco_bench --compare parent.json change.json *)

module V = Disco_value.Value
module Ast = Disco_oql.Ast
module Mediator = Disco_core.Mediator
module Runtime = Disco_runtime.Runtime
module Plan = Disco_physical.Plan
module Clock = Disco_source.Clock
module Schedule = Disco_source.Schedule
module Table = Disco_relation.Table
module Stats = Disco_bench_kit.Stats
module Json = Disco_bench_kit.Json
module Gen = Disco_bench_kit.Gen

let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* -- options -- *)

let workload = ref None
let seed = ref 42
let seconds = ref 10.0
let trace = ref 0
let traced = ref false
let quick = ref false
let out = ref None
let append = ref false
let compare_files = ref []
let discoctl = ref "_build/default/bin/discoctl.exe"
let default_out = "_build/disco_bench_results.json"

(* --quick keeps every check but does 1/20 of the work *)
let scale n = if !quick then max 1 (n / 20) else n
let budget () = if !quick then !seconds /. 20.0 else !seconds

(* -- results -- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome_counts = { mutable attempted : int; mutable failed : int }

let counts = { attempted = 0; failed = 0 }

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      counts.failed <- counts.failed + 1;
      if counts.failed <= 10 then log "WRONG: %s" msg)
    fmt

let result_json ~metrics =
  Json.Obj
    [
      ("correct", Json.Bool (counts.failed = 0));
      ("attempted", Json.Num (float_of_int (max 1 counts.attempted)));
      ("failed", Json.Num (float_of_int counts.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
             metrics) );
    ]

let self_rss_mb () = Serve_load.peak_rss_mb "self"

(* -- in-process workloads -- *)

type op = Query of Gen.query | Write of { src : int; rows : V.t array list }

type inproc = {
  spec : Fed.spec;
  setup_reps : int;
  pass : int;  (** untraced run: ops in the pass every timed pass repeats *)
  replan : bool;  (** untraced run: the plan cache is cleared before each pass *)
  warmup : int;  (** traced run: ops run before counting starts *)
  prefix : int;  (** traced run: ops whose counts must repeat exactly *)
  step_ms : float;  (** virtual ms the clock advances before each query *)
  tail : float;  (** pinned tail percentile *)
  stream : unit -> unit -> op;  (** a fresh seeded op stream *)
  gate : Gen.query list;  (** texts checked against the reference first *)
  always_up : bool;  (** every answer must be complete *)
}

let person_spec ~sources ~rows ~data_seed =
  {
    Fed.sources;
    rows;
    data_seed;
    spread = true;
    wrapper = (fun _ -> "WrapperPostgres");
    schedule = (fun _ -> Schedule.always_up);
    view = None;
    indexes = false;
  }

let zipf_stream ~salt pool =
  let z = Gen.zipf ~s:1.1 ~n:(Array.length pool) in
  let r = Gen.rng ~seed:!seed ~salt in
  fun () -> Query pool.(Gen.draw z r)

let hot_repeat () =
  let pool = Gen.hot_pool ~seed:!seed in
  let pass = scale 1000 in
  {
    spec =
      {
        (person_spec ~sources:Gen.hot_sources ~rows:Gen.hot_rows ~data_seed:(fun i ->
             (!seed * 1000) + i))
        with
        Fed.view = Some Gen.hot_view;
      };
    setup_reps = 25;
    pass;
    replan = false;
    warmup = scale 500;
    prefix = scale 1000;
    step_ms = 0.0;
    tail = 0.95;
    (* a pass is one block of Zipf draws, so every pass of every seed
       holds each text equally often *)
    stream =
      (fun () ->
        let next =
          Gen.zipf_blocks (Gen.zipf ~s:1.1 ~n:(Array.length pool)) ~block:pass
            (Gen.rng ~seed:!seed ~salt:6)
        in
        fun () -> Query pool.(next ()));
    gate = Array.to_list pool;
    always_up = true;
  }

let cold_adhoc () =
  let kinds = [| "WrapperPostgres"; "WrapperSelect"; "WrapperProject"; "WrapperScan" |] in
  {
    spec =
      {
        Fed.sources = Gen.cold_sources;
        rows = Gen.cold_rows;
        data_seed = (fun i -> (!seed * 1000) + i);
        spread = true;
        wrapper = (fun i -> kinds.(i * Gen.cold_kinds / Gen.cold_sources));
        schedule =
          (fun i ->
            Schedule.flaky ~seed:((!seed * 7919) + i + 1) ~period:1000.0 ~availability:0.995);
        view = Some Gen.cold_view;
        indexes = false;
      };
    setup_reps = 9;
    (* eight cycles of the stream's 20 slots; texts never repeat within a
       pass, and every pass plans afresh *)
    pass = scale 160;
    replan = true;
    warmup = scale 50;
    prefix = scale 300;
    step_ms = 250.0;
    tail = 0.9;
    stream =
      (fun () ->
        let next = Gen.cold_stream ~seed:!seed in
        fun () -> Query (next ()));
    gate = [];
    always_up = false;
  }

let bulk_churn () =
  let data_seed i = (!seed * 1000) + i in
  {
    spec =
      {
        (person_spec ~sources:Gen.bulk_sources ~rows:Gen.bulk_rows ~data_seed) with
        Fed.indexes = true;
      };
    setup_reps = 5;
    (* four walks over the read pool, 216 reads and 24 writes, so that
       each pass's p95 has 10 samples beyond it *)
    pass = scale (4 * Gen.bulk_pass);
    replan = false;
    (* the traced run's warm-up is one walk too, so every plan is cached *)
    warmup = Gen.bulk_pass;
    prefix = scale 200;
    step_ms = 0.0;
    tail = 0.95;
    stream =
      (fun () ->
        let next = Gen.bulk_stream ~seed:!seed in
        fun () ->
          match next () with
          | Gen.Read q -> Query q
          | Gen.Write { src; salaries } ->
              Write
                { src; rows = Fed.write_rows ~seed:(data_seed src) ~rows:Gen.bulk_rows salaries });
    gate = [];
    always_up = true;
  }

(* The in-process twin of serve_zipf's server: discoctl's demo federation
   (8 WrapperPostgres sources, 200 rows of Datagen's, data seeds 42+i) under the
   serve pool, for the traced run's per-layer numbers. *)
let serve_replica () =
  let pool = Gen.serve_pool ~seed:!seed in
  {
    spec =
      {
        (person_spec ~sources:Gen.serve_sources ~rows:Gen.serve_rows ~data_seed:(fun i -> 42 + i))
        with
        Fed.spread = false;
      };
    setup_reps = 1;
    pass = 0;
    replan = false;
    warmup = scale 50;
    prefix = scale 300;
    step_ms = 0.0;
    tail = 0.9;
    stream =
      (fun () ->
        let texts = Array.map (fun text -> { Gen.text; touched = None }) pool in
        zipf_stream ~salt:7 texts);
    gate = [];
    always_up = true;
  }

let same_answer a b =
  match (a, b) with
  | Mediator.Complete x, Mediator.Complete y -> V.equal x y
  | Mediator.Partial p, Mediator.Partial q ->
      Ast.equal p.Runtime.query q.Runtime.query
      && p.Runtime.unavailable = q.Runtime.unavailable
      && p.Runtime.versions = q.Runtime.versions
  | Mediator.Unavailable x, Mediator.Unavailable y -> x = y
  | _ -> false

(* Run one query, timed on the wall clock, and check its outcome against
   the fingerprint of its reference answer. Returns the seconds it took. *)
let checked_query w (fed : Fed.t) (q : Gen.query) reference =
  let clock = Mediator.clock fed.Fed.m in
  if w.step_ms > 0.0 then Clock.advance clock w.step_ms;
  let t0 = Clock.now clock in
  counts.attempted <- counts.attempted + 1;
  let start = now () in
  let o = try Ok (Mediator.query fed.Fed.m q.Gen.text) with e -> Error e in
  let dt = now () -. start in
  (match o with
  | Error e -> fail "%s raised %s" q.Gen.text (Printexc.to_string e)
  | Ok o -> (
      let matches v = Fed.fingerprint v = reference in
      match Fed.check_outcome fed ~t0 ~t1:(Clock.now clock) q o ~matches with
      | Ok () -> ()
      | Error msg -> fail "%s: %s" q.Gen.text msg));
  dt

(* Run one op on a federation and return the fingerprint of a query's
   reference answer, which [references] keeps per text until the next
   write. Only fingerprints are kept, so the benchmark's own data adds
   little to peak_rss_mb. *)
let checked_op w (fed : Fed.t) references op =
  match op with
  | Write { src; rows } ->
      Hashtbl.reset references;
      ignore (Fed.write fed ~src rows);
      None
  | Query q ->
      let reference =
        match Hashtbl.find_opt references q.Gen.text with
        | Some r -> r
        | None ->
            let r = Fed.fingerprint (Fed.reference fed q.Gen.text) in
            Hashtbl.replace references q.Gen.text r;
            r
      in
      ignore (checked_query w fed q reference);
      Some reference

(* Writes retract the previous write's rows, so no table may end a run
   more than one write's rows beyond those built. *)
let check_sizes (fed : Fed.t) =
  let sizes = Array.to_list (Array.map Table.cardinality fed.Fed.tables) in
  let rows = fed.Fed.spec.Fed.rows in
  log "tables at the end: %s rows" (String.concat " " (List.map string_of_int sizes));
  if List.exists (fun n -> n < rows || n > rows + Gen.bulk_write_rows) sizes then
    fail "table sizes left [%d, %d]" rows (rows + Gen.bulk_write_rows)

let tail_noted = ref false

let tail_metric ~pinned latencies =
  match Stats.tail_with_fallback latencies [ pinned; 0.99; 0.95; 0.9; 0.75; 0.5 ] with
  | Some (p, v) ->
      if p <> pinned && not !tail_noted then begin
        tail_noted := true;
        log "note: too few samples for p%g, tail reported at p%g" (pinned *. 100.) (p *. 100.)
      end;
      v
  | None -> Stats.percentile latencies 1.0

(* A build and its time at the reference speed (see Speed). *)
let timed_build spec =
  let before = Speed.probe () in
  let t0 = now () in
  let fed = Fed.build spec in
  let t = now () -. t0 in
  (fed, t *. Speed.scale before (Speed.probe ()))

(* Stretches of a timed pass, each between two speed probes: 56 to 170 ms
   of work at the reference speed, so that a probe costs at most 5% of the
   pass and the speed it reads is never far from the work it scales. *)
let stretches = 8

(* The measured part of an untraced run. It takes [w.pass] operations
   from the seeded stream and repeats exactly those: once to warm up,
   computing each query's reference answer, then as timed passes until
   the time is up. Every pass starts from the same tables (written rows
   retracted), so every pass does the same work, and every answer is
   checked against its reference. A pass runs in [stretches] stretches
   with a speed probe before and after each, and every operation's time
   is brought to the reference speed by the probes around its stretch.
   Returns the metrics and the build's time. *)
let measure w =
  let fed, build_s = timed_build w.spec in
  let references = Hashtbl.create 16 in
  List.iter (fun q -> ignore (checked_op w fed references (Query q))) w.gate;
  let next = w.stream () in
  let ops = Array.init w.pass (fun _ -> next ()) in
  let start_pass () =
    if w.replan then Mediator.clear_plan_cache fed.Fed.m;
    Fed.reset fed
  in
  start_pass ();
  Hashtbl.reset references;
  let refs = Array.map (checked_op w fed references) ops in
  Hashtbl.reset references;
  Gc.compact ();
  (* Each pass is reduced to its median and tail latency, so what the
     benchmark keeps does not grow with the number of passes, and neither
     does peak_rss_mb. *)
  let p50s = ref [] and tails = ref [] and queries = ref 0 and busy = ref 0.0 in
  let segments = min stretches w.pass in
  let bounds = Array.init (segments + 1) (fun k -> k * w.pass / segments) in
  let speeds = Array.make (segments + 1) 0.0 in
  let times = Array.make w.pass 0.0 in
  let probed = ref 0.0 in
  let deadline = now () +. budget () in
  while !p50s = [] || now () < deadline do
    start_pass ();
    speeds.(0) <- Speed.probe ();
    for k = 0 to segments - 1 do
      for i = bounds.(k) to bounds.(k + 1) - 1 do
        times.(i) <-
          (match (ops.(i), refs.(i)) with
          | Write { src; rows }, _ -> Fed.write fed ~src rows
          | Query q, Some reference -> checked_query w fed q reference
          | Query _, None -> assert false)
      done;
      speeds.(k + 1) <- Speed.probe ()
    done;
    probed := Array.fold_left ( +. ) !probed speeds;
    let lat = ref [] in
    for k = 0 to segments - 1 do
      let s = Speed.scale speeds.(k) speeds.(k + 1) in
      for i = bounds.(k) to bounds.(k + 1) - 1 do
        let t = times.(i) *. s in
        busy := !busy +. t;
        match ops.(i) with Query _ -> lat := (t *. 1000.0) :: !lat | Write _ -> ()
      done
    done;
    p50s := Stats.median !lat :: !p50s;
    tails := tail_metric ~pinned:w.tail !lat :: !tails;
    queries := !queries + List.length !lat
  done;
  check_sizes fed;
  let passes = List.length !p50s in
  log "%d timed passes of %d operations; the speed probe took %.2f ms on average (reference %.2f)"
    passes w.pass
    (1000.0 *. !probed /. float_of_int (passes * (segments + 1)))
    (1000.0 *. Speed.reference_s);
  ( [
      metric "query_p50_ms" "ms" (Stats.median !p50s);
      metric "query_tail_ms" "ms" (Stats.median !tails);
      metric "queries_per_s" "1/s" (float_of_int !queries /. !busy);
      metric "peak_rss_mb" "MB" (self_rss_mb ());
    ],
    build_s )

(* --trace 0: Mediator.query with the default configuration, one client
   in a closed loop. setup_s is the median of [w.setup_reps] builds, each
   at the reference speed: the measured one, and the rest after the
   measured federation is dropped and peak_rss_mb read, so their garbage
   never counts in it. *)
let untraced w =
  let metrics, build_s = measure w in
  let rest = List.init (w.setup_reps - 1) (fun _ -> snd (timed_build w.spec)) in
  metric "setup_s" "s" (Stats.median (build_s :: rest)) :: metrics

(* -- the traced run --

   Three federations built alike from the seed see the same op stream in
   blocks of 100: twin A answers through Mediator.query, twin T through a
   mediator with a trace sink (the tracing-overhead comparison; A and T
   alternate which goes first), and twin B through the staged replay.
   Every query's plan text, plan-cache use, answer and runtime stats must
   agree between A and B. *)

let same_outcome (a : Mediator.outcome) (b : Mediator.outcome) =
  let plan o = Option.map Plan.to_string o.Mediator.plan in
  plan a = plan b
  && a.Mediator.from_cache = b.Mediator.from_cache
  && a.Mediator.fallback = b.Mediator.fallback
  && a.Mediator.stats = b.Mediator.stats
  && same_answer a.Mediator.answer b.Mediator.answer

(* A partial answer must resubmit to the reference answer in the next
   period in which its missing sources are all up. Resubmission runs on a
   separate checker federation so the twins' clocks are untouched. *)
let resubmit_check (checker : Fed.t) ~t0 (q : Gen.query) answer reference =
  match answer with
  | Mediator.Partial p ->
      let clock = Mediator.clock checker.Fed.m in
      let period = 1000.0 in
      let rec next_up t k =
        if k > 10_000 then None
        else if Fed.down_at checker p.Runtime.unavailable t = [] then Some t
        else next_up (t +. period) (k + 1)
      in
      let rec attempt from tries =
        let boundary = (Float.floor (from /. period) +. 1.0) *. period in
        match next_up boundary 0 with
        | None -> fail "%s: missing sources never come back" q.Gen.text
        | Some t -> (
            Clock.advance_to clock (Float.max t (Clock.now clock));
            match (Mediator.resubmit checker.Fed.m answer).Mediator.answer with
            | Mediator.Complete v ->
                if not (V.equal v reference) then
                  fail "%s: resubmitted partial answer differs from the reference" q.Gen.text
            | _ when tries < 3 -> attempt (Clock.now clock) (tries + 1)
            | _ -> fail "%s: resubmission did not complete" q.Gen.text)
      in
      attempt (Float.max t0 (Clock.now clock)) 0
  | Mediator.Complete _ | Mediator.Unavailable _ -> ()

(* Counts from twin A, summed over the traced run's fixed prefix. *)
type a_counts = {
  mutable n : int;
  mutable execs : int;
  mutable round_trips : int;
  mutable shipped : int;
  mutable blocked : int;
  mutable complete : int;
  mutable virtual_ms : float list;
}

let traced_inproc ?(budget_s = budget ()) w =
  let build ?config () = Fed.build ?config w.spec in
  let a = build () in
  let tw =
    build ~config:{ Mediator.Config.default with Mediator.Config.trace_sink = Some ignore } ()
  in
  let b = build () in
  let checker = if w.always_up then None else Some (build ()) in
  let rp = Replay.create b in
  let next = w.stream () in
  let step fed =
    if w.step_ms > 0.0 then Clock.advance (Mediator.clock fed.Fed.m) w.step_ms
  in
  let query fed text =
    step fed;
    Mediator.query fed.Fed.m text
  in
  (* warm-up on all three twins, then start the counters from zero *)
  for _ = 1 to w.warmup do
    match next () with
    | Write { src; rows } ->
        List.iter (fun f -> ignore (Fed.write f ~src rows)) [ a; tw ];
        Replay.write rp ~src rows
    | Query q ->
        ignore (query a q.Gen.text);
        ignore (query tw q.Gen.text);
        step b;
        ignore (Replay.query rp q.Gen.text)
  done;
  rp.Replay.acc <- Replay.new_acc ();
  Gc.compact ();
  let pc0 = Mediator.plan_cache_stats a.Fed.m in
  let ac = { n = 0; execs = 0; round_trips = 0; shipped = 0; blocked = 0; complete = 0; virtual_ms = [] } in
  let snapshot = ref None in
  let a_s = ref 0.0 and t_s = ref 0.0 and a_queries = ref 0 in
  let a_words = ref 0.0 and a_majors = ref 0 in
  let ops_done = ref 0 and queries = ref 0 in
  let deadline = now () +. budget_s in
  let block = ref 0 in
  while !ops_done < w.prefix || now () < deadline do
    let ops = List.init 100 (fun _ -> next ()) in
    let run_block fed ~on_query =
      List.filter_map
        (fun op ->
          match op with
          | Write { src; rows } ->
              ignore (Fed.write fed ~src rows);
              None
          | Query q ->
              step fed;
              let t0 = now () in
              let o = try Ok (Mediator.query fed.Fed.m q.Gen.text) with e -> Error e in
              on_query (now () -. t0);
              Some o)
        ops
    in
    let run_a () =
      let g0 = Gc.quick_stat () in
      let r = run_block a ~on_query:(fun dt -> a_s := !a_s +. dt; incr a_queries) in
      let g1 = Gc.quick_stat () in
      a_words := !a_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      a_majors := !a_majors + (g1.Gc.major_collections - g0.Gc.major_collections);
      r
    in
    let run_t () = ignore (run_block tw ~on_query:(fun dt -> t_s := !t_s +. dt)) in
    let a_out =
      if !block mod 2 = 0 then (
        let r = run_a () in
        run_t ();
        r)
      else (
        run_t ();
        run_a ())
    in
    incr block;
    let a_out = ref a_out in
    List.iter
      (fun op ->
        match op with
        | Write { src; rows } -> Replay.write rp ~src rows
        | Query q -> (
            let ao = List.hd !a_out in
            a_out := List.tl !a_out;
            counts.attempted <- counts.attempted + 1;
            step b;
            let clock = Mediator.clock b.Fed.m in
            let t0 = Clock.now clock in
            let bo = try Ok (Replay.query rp q.Gen.text) with e -> Error e in
            let t1 = Clock.now clock in
            incr queries;
            match (ao, bo) with
            | Error e, _ | _, Error e -> fail "%s raised %s" q.Gen.text (Printexc.to_string e)
            | Ok ao, Ok bo ->
                if not (same_outcome ao bo) then fail "%s: replay mismatch" q.Gen.text;
                (match ao.Mediator.answer with
                | Mediator.Complete _ -> ()
                | _ -> if w.always_up then fail "%s: incomplete answer from live sources" q.Gen.text);
                if !snapshot = None then begin
                  let st = ao.Mediator.stats in
                  ac.n <- ac.n + 1;
                  ac.execs <- ac.execs + st.Runtime.execs_issued;
                  ac.round_trips <- ac.round_trips + st.Runtime.round_trips;
                  ac.shipped <- ac.shipped + st.Runtime.tuples_shipped;
                  ac.blocked <- ac.blocked + st.Runtime.execs_blocked;
                  ac.virtual_ms <- st.Runtime.elapsed_ms :: ac.virtual_ms;
                  match ao.Mediator.answer with
                  | Mediator.Complete _ -> ac.complete <- ac.complete + 1
                  | _ -> ()
                end;
                if !queries mod 10 = 1 then begin
                  let reference = Fed.reference b q.Gen.text in
                  (match Fed.check_outcome b ~t0 ~t1 q bo ~matches:(V.equal reference) with
                  | Ok () -> ()
                  | Error msg -> fail "%s: %s" q.Gen.text msg);
                  Option.iter
                    (fun c -> resubmit_check c ~t0 q bo.Mediator.answer reference)
                    checker
                end))
      ops;
    ops_done := !ops_done + 100;
    if !ops_done >= w.prefix && !snapshot = None then
      snapshot := Some (Replay.copy_acc rp.Replay.acc, Mediator.plan_cache_stats a.Fed.m)
  done;
  check_sizes a;
  check_sizes b;
  let all = rp.Replay.acc in
  let pre, pc1 = Option.get !snapshot in
  let per_q acc x = x /. float_of_int (max 1 acc.Replay.queries) in
  let stage acc s = acc.Replay.stage_us.(Replay.stage_index s) in
  let hits = pc1.Mediator.p_hits - pc0.Mediator.p_hits
  and misses = pc1.Mediator.p_misses - pc0.Mediator.p_misses in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let nq = float_of_int (max 1 ac.n) in
  let sum_stages =
    List.fold_left (fun s st -> s +. stage all st) 0.0 Replay.stages
  in
  [
    metric "oql.parse_us" "us" (per_q all (stage all Replay.Parse));
    metric "core.expand_us" "us" (per_q all (stage all Replay.Expand_));
    metric "algebra.compile_us" "us" (per_q all (stage all Replay.Compile_));
    metric "core.plan_key_us" "us" (per_q all (stage all Replay.Plan_key));
    metric "cache.plan_hit_ratio" "ratio" (ratio hits (hits + misses));
    metric "optimizer.optimize_us" "us"
      (per_q all (stage all Replay.Optimize -. all.Replay.accepts_us));
    metric "optimizer.alternatives" "count" (ratio pre.Replay.alternatives pre.Replay.optimized);
    metric "algebra.normalize_us" "us" (per_q all all.Replay.normalize_us);
    metric "wrapper.accepts_us" "us" (per_q all all.Replay.accepts_us);
    metric "wrapper.accepts_calls" "count" (per_q pre (float_of_int pre.Replay.accepts_calls));
    metric "wrapper.accepts_repeat_ratio" "ratio"
      (ratio pre.Replay.accepts_repeats pre.Replay.accepts_calls);
    metric "check.plan_us" "us" (per_q all (stage all Replay.Check_plan));
    metric "runtime.execute_self_us" "us"
      (per_q all (stage all Replay.Execute -. all.Replay.call_us));
    metric "runtime.execs" "count" (float_of_int ac.execs /. nq);
    metric "runtime.round_trips" "count" (float_of_int ac.round_trips /. nq);
    metric "runtime.rows_shipped" "count" (float_of_int ac.shipped /. nq);
    metric "runtime.blocked_execs" "count" (float_of_int ac.blocked /. nq);
    metric "wrapper.call_us" "us" (per_q all all.Replay.call_us);
    metric "wrapper.sqlgen_us" "us" (per_q all all.Replay.sqlgen_us);
    metric "relation.sql_run_us" "us" (per_q all all.Replay.sql_run_us);
    metric "wrapper.rebuild_us" "us" (per_q all all.Replay.rebuild_us);
    metric "relation.insert_us" "us"
      (if all.Replay.writes = 0 then 0.0
       else all.Replay.insert_us /. float_of_int all.Replay.writes);
    metric "relation.first_read_after_write_us" "us"
      (if all.Replay.first_reads = 0 then 0.0
       else all.Replay.first_read_us /. float_of_int all.Replay.first_reads);
    metric "runtime.render_us" "us" (per_q all (stage all Replay.Render));
    metric "core.hybrid_us" "us" (per_q all (stage all Replay.Hybrid));
    metric "core.replay_us" "us" (per_q all all.Replay.wall_us);
    metric "core.stage_coverage_pct" "%" (100.0 *. sum_stages /. Float.max 1.0 all.Replay.wall_us);
    metric "gc.alloc_kwords_per_query" "kword" (!a_words /. 1000.0 /. float_of_int (max 1 !a_queries));
    metric "gc.major_per_kquery" "count" (1000.0 *. float_of_int !a_majors /. float_of_int (max 1 !a_queries));
    metric "obs.trace_overhead_pct" "%" (100.0 *. (!t_s -. !a_s) /. Float.max 1e-9 !a_s);
    metric "virtual_p50_ms" "virtual_ms" (if ac.virtual_ms = [] then 0.0 else Stats.median ac.virtual_ms);
    metric "complete_rate" "ratio" (float_of_int ac.complete /. nq);
  ]
  @ List.map
      (fun s ->
        metric (Replay.stage_name s ^ "_kw") "kword"
          (pre.Replay.stage_kw.(Replay.stage_index s) /. float_of_int (max 1 pre.Replay.queries)))
      Replay.stages

(* -- serve_zipf -- *)

(* the federation flags, shared by `discoctl serve` and `discoctl query` *)
let federation_args = [ "--sources"; "8"; "--rows"; "200" ]
let serve_args = federation_args @ [ "--inflight"; "4" ]

(* Send each pool text once and compare the reply body with what
   `discoctl query` prints for it under the same federation flags
   (whitespace removed); returns the verified bodies. *)
let serve_gate (srv : Serve_load.server) pool =
  let conns = Serve_load.open_conns srv.Serve_load.port in
  Fun.protect
    ~finally:(fun () -> Serve_load.close_conns conns)
    (fun () ->
      let k = ref (-1) in
      let run =
        Serve_load.open_loop conns ~texts:pool
          ~arrivals:(Array.init (Array.length pool) (fun i -> float_of_int i *. 0.02))
          ~next:(fun () -> incr k; !k)
      in
      counts.attempted <- counts.attempted + Array.length pool;
      let bodies = Array.make (Array.length pool) None in
      List.iter
        (fun s ->
          match s.Serve_load.s_reply with
          | Serve_load.Ok { body; _ } ->
              let expected = Serve_load.discoctl_answer ~discoctl:!discoctl ~args:federation_args pool.(s.Serve_load.s_idx) in
              if Serve_load.strip_ws body <> expected then
                fail "%s: serve reply differs from discoctl query" pool.(s.Serve_load.s_idx)
              else bodies.(s.Serve_load.s_idx) <- Some body
          | Serve_load.Shed | Serve_load.Failed _ ->
              fail "%s: no answer in the correctness gate" pool.(s.Serve_load.s_idx))
        run.Serve_load.samples;
      if run.Serve_load.lost > 0 then fail "%d gate requests got no reply" run.Serve_load.lost;
      bodies)

(* Count every shed, failed, missing or wrong reply of a run. *)
let audit_run ~pool bodies (run : Serve_load.run) =
  counts.attempted <- counts.attempted + run.Serve_load.sent;
  if run.Serve_load.lost > 0 then fail "%d requests got no reply" run.Serve_load.lost;
  List.iter
    (fun s ->
      match s.Serve_load.s_reply with
      | Serve_load.Ok { body; _ } -> (
          match bodies.(s.Serve_load.s_idx) with
          | Some b when b = body -> ()
          | _ -> fail "%s: reply body changed" pool.(s.Serve_load.s_idx))
      | Serve_load.Shed -> fail "request shed at the fixed rate"
      | Serve_load.Failed line -> fail "error reply: %s" line)
    run.Serve_load.samples

let serve_session f =
  let srv, spawn_s = Serve_load.spawn ~discoctl:!discoctl ~args:serve_args in
  Fun.protect ~finally:(fun () -> Serve_load.stop srv) (fun () -> f srv spawn_s)

(* The latency phase runs at 50 requests/s, a quarter of the knee, where
   requests do not overlap. At 100/s a request arrives just as the other
   connection's ~10 ms request finishes, and a whole run settles either
   near 10 ms or near 20 ms. *)
let fixed_rate = 50.0

(* The rate search starts here. *)
let ladder_start = 100.0

(* The serve stream: Zipf draws over the pool, and evenly spaced arrival
   offsets for a phase of [duration] seconds at [rate]. *)
let serve_stream pool =
  let z = Gen.zipf ~s:1.1 ~n:(Array.length pool) in
  let r = Gen.rng ~seed:!seed ~salt:7 in
  let next () = Gen.draw z r in
  let arrivals ~rate duration =
    Array.init (max 1 (int_of_float (rate *. duration))) (fun k -> float_of_int k /. rate)
  in
  (next, arrivals)

let serve_untraced () =
  let pool = Gen.serve_pool ~seed:!seed in
  let next, arrivals = serve_stream pool in
  (* set-up: spawn until health answers, three times; keep the last *)
  let spawns =
    List.init 2 (fun _ ->
        let srv, s = Serve_load.spawn ~discoctl:!discoctl ~args:serve_args in
        Serve_load.stop srv;
        s)
  in
  serve_session (fun srv spawn_s ->
      let setup_s = Stats.median (spawn_s :: spawns) in
      let bodies = serve_gate srv pool in
      let conns = Serve_load.open_conns srv.Serve_load.port in
      Fun.protect
        ~finally:(fun () -> Serve_load.close_conns conns)
        (fun () ->
          let total = budget () in
          let phase rate duration =
            Serve_load.open_loop conns ~texts:pool ~arrivals:(arrivals ~rate duration) ~next
          in
          (* warm-up *)
          audit_run ~pool bodies (phase fixed_rate (float_of_int (scale 50) /. fixed_rate));
          (* phase A: latency at the fixed rate *)
          let a = phase fixed_rate (0.35 *. total) in
          audit_run ~pool bodies a;
          if a.Serve_load.lateness_ms > 5.0 then
            log "note: the load generator ran %.1f ms late" a.Serve_load.lateness_ms;
          let lat = List.map (fun s -> s.Serve_load.s_latency_ms) a.Serve_load.samples in
          (* phase B: the offered-rate ladder *)
          let step_s = 0.1 *. total in
          let achieved = Hashtbl.create 16 in
          let best, steps =
            Stats.ladder ~start:ladder_start (fun rate ->
                let run = phase rate step_s in
                Hashtbl.replace achieved rate (Serve_load.throughput run);
                Serve_load.step_passes ~duration_s:step_s run)
          in
          List.iter (fun (rate, ok) -> log "ladder %.1f/s %s" rate (if ok then "pass" else "fail")) steps;
          let rss = Serve_load.peak_rss_mb (string_of_int srv.Serve_load.pid) in
          if lat = [] then failwith "no reply at the fixed rate";
          [
            metric "setup_s" "s" setup_s;
            metric "query_p50_ms" "ms" (Stats.median lat);
            metric "query_tail_ms" "ms" (tail_metric ~pinned:0.9 lat);
            (* replies per second in the highest passing step (the first
               step's, if none passed) *)
            metric "queries_per_s" "1/s"
              (Hashtbl.find achieved (if best > 0.0 then best else ladder_start));
            metric "peak_rss_mb" "MB" rss;
          ]))

(* The server's own latency histogram, from the [metrics] verb. *)
let server_ms_mean (srv : Serve_load.server) =
  match Serve_load.exchange srv.Serve_load.port "metrics" with
  | line when String.length line > 3 -> (
      match Json.member "serve.latency_ms" (Json.of_string (String.sub line 3 (String.length line - 3))) with
      | Some h -> (
          match (Option.bind (Json.member "sum" h) Json.to_num, Option.bind (Json.member "count" h) Json.to_num) with
          | Some s, Some c when c > 0.0 -> s /. c
          | _ -> 0.0)
      | None -> 0.0)
  | _ -> 0.0

let serve_traced () =
  let pool = Gen.serve_pool ~seed:!seed in
  (* half the time replays the pool in-process, half crosses the wire *)
  let half = budget () /. 2.0 in
  let layers = traced_inproc ~budget_s:half (serve_replica ()) in
  let next, arrivals = serve_stream pool in
  let serve =
    serve_session (fun srv _ ->
        let bodies = serve_gate srv pool in
        let conns = Serve_load.open_conns srv.Serve_load.port in
        Fun.protect
          ~finally:(fun () -> Serve_load.close_conns conns)
          (fun () ->
            let run =
              Serve_load.open_loop conns ~texts:pool
                ~arrivals:(arrivals ~rate:fixed_rate half) ~next
            in
            audit_run ~pool bodies run;
            let oks =
              List.filter_map
                (fun s ->
                  match s.Serve_load.s_reply with
                  | Serve_load.Ok { elapsed_ms; _ } -> Some (s, elapsed_ms)
                  | _ -> None)
                run.Serve_load.samples
            in
            if oks = [] then failwith "no reply at the fixed rate";
            [
              metric "serve.exec_ms_p50" "ms" (Stats.median (List.map snd oks));
              metric "serve.overhead_ms_p50" "ms"
                (Stats.median (List.map (fun (s, e) -> s.Serve_load.s_latency_ms -. e) oks));
              metric "serve.server_ms_mean" "ms" (server_ms_mean srv);
              metric "serve.reply_bytes_mean" "byte"
                (Stats.mean (List.map (fun (s, _) -> float_of_int s.Serve_load.s_bytes) oks));
              metric "serve.gen_lag_ms_max" "ms" run.Serve_load.lateness_ms;
            ]))
  in
  layers @ serve

let serve_names =
  [ "serve.exec_ms_p50"; "serve.overhead_ms_p50"; "serve.server_ms_mean"; "serve.reply_bytes_mean"; "serve.gen_lag_ms_max" ]

let serve_units = [ "ms"; "ms"; "ms"; "byte"; "ms" ]

(* -- workloads -- *)

let workloads = [ "hot_repeat"; "cold_adhoc"; "bulk_churn"; "serve_zipf" ]

let inproc_of = function
  | "hot_repeat" -> hot_repeat ()
  | "cold_adhoc" -> cold_adhoc ()
  | "bulk_churn" -> bulk_churn ()
  | w -> invalid_arg ("not an in-process workload: " ^ w)

let run_workload name =
  let metrics =
    match (name, !trace) with
    | "serve_zipf", 0 -> serve_untraced ()
    | "serve_zipf", _ -> serve_traced ()
    | w, 0 -> untraced (inproc_of w)
    | w, _ ->
        (* serve metrics exist only where the line protocol is crossed *)
        traced_inproc (inproc_of w) @ List.map2 (fun n u -> metric n u 0.0) serve_names serve_units
  in
  print_endline (Json.to_string (result_json ~metrics))

(* -- all workloads, each in a child process -- *)

let git_head () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let run_child args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let last = ref "" in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then last := l
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, !last)

let orchestrate () =
  let names = match !workload with Some w -> [ w ] | None -> workloads in
  let traces = if !traced then [ 0; 1 ] else [ 0 ] in
  let ok = ref true in
  let runs =
    List.concat_map
      (fun w ->
        List.map
          (fun t ->
            let args =
              [ "--workload"; w; "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%g" !seconds;
                "--trace"; string_of_int t; "--discoctl"; !discoctl ]
              @ if !quick then [ "--quick" ] else []
            in
            log "== %s (trace %d)" w t;
            let t0 = now () in
            let status, last = run_child args in
            let res = try Some (Json.of_string last) with Json.Parse_error _ -> None in
            let correct = Option.bind res (Json.member "correct") = Some (Json.Bool true) in
            if status <> Unix.WEXITED 0 || not correct then ok := false;
            Printf.printf "%s (trace %d, %.1f s)%s\n" w t (now () -. t0)
              (if correct then "" else "  ** WRONG ANSWERS OR FAILED RUN **");
            (match Option.bind res (Json.member "metrics") with
            | Some (Json.Obj ms) ->
                List.iter
                  (fun (k, v) ->
                    match (Option.bind (Json.member "value" v) Json.to_num, Option.bind (Json.member "unit" v) Json.to_str) with
                    | Some x, Some u -> Printf.printf "  %-40s %14.4f %s\n" k x u
                    | _ -> ())
                  ms
            | _ -> ());
            (match res with
            | Some r ->
                Printf.printf "  attempted %s, failed %s\n%!"
                  (Option.fold ~none:"?" ~some:Json.to_string (Json.member "attempted" r))
                  (Option.fold ~none:"?" ~some:Json.to_string (Json.member "failed" r))
            | None -> ());
            Json.Obj
              [ ("workload", Json.Str w); ("seed", Json.Num (float_of_int !seed));
                ("trace", Json.Num (float_of_int t));
                ("result", Option.value res ~default:Json.Null) ])
          traces)
      names
  in
  let file =
    match !out with
    | Some f -> f
    | None ->
        (* under dune's build directory, which git ignores *)
        if not (Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
        default_out
  in
  let previous =
    if !append && Sys.file_exists file then
      match Json.of_string (In_channel.with_open_text file In_channel.input_all) with
      | v -> Json.to_list (Option.value (Json.member "runs" v) ~default:(Json.Arr []))
      | exception Json.Parse_error _ -> []
    else []
  in
  let doc =
    Json.Obj
      [
        ( "meta",
          Json.Obj
            [
              ("seed", Json.Num (float_of_int !seed));
              ("git", Json.Str (git_head ()));
              ("ocaml", Json.Str Sys.ocaml_version);
              ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
              ("seconds", Json.Num !seconds);
              ("quick", Json.Bool !quick);
            ] );
        ("runs", Json.Arr (previous @ runs));
      ]
  in
  Out_channel.with_open_text file (fun oc -> output_string oc (Json.to_string doc ^ "\n"));
  log "results written to %s" file;
  if not !ok then exit 1

(* -- --compare -- *)

(* Per-layer figures that repeat exactly for a seed, because they count
   work on a fixed prefix of the stream or on the virtual clock. Any
   difference between two results files means the program does other
   work, so --compare fails on it whichever way it moved. *)
let deterministic name =
  List.mem name
    [
      "virtual_p50_ms"; "complete_rate"; "cache.plan_hit_ratio"; "optimizer.alternatives";
      "wrapper.accepts_calls"; "wrapper.accepts_repeat_ratio"; "runtime.execs";
      "runtime.round_trips"; "runtime.rows_shipped"; "runtime.blocked_execs";
    ]
  || String.ends_with ~suffix:"_kw" name

let compare_results a_file b_file =
  let load f = Json.of_string (In_channel.with_open_text f In_channel.input_all) in
  let bench = load "BENCHMARK.json" in
  let metric_specs key =
    List.filter_map
      (fun e ->
        match (Option.bind (Json.member "name" e) Json.to_str, Option.bind (Json.member "better" e) Json.to_str) with
        | Some name, Some better ->
            let bound = Option.value (Option.bind (Json.member "bound" e) Json.to_num) ~default:0.0 in
            Some (name, (if better = "higher" then Stats.Higher else Stats.Lower), bound)
        | _ -> None)
      (Json.to_list (Option.value (Json.member key bench) ~default:(Json.Arr [])))
  in
  let values doc ~workload ~trace name =
    List.filter_map
      (fun run ->
        if
          Json.member "workload" run = Some (Json.Str workload)
          && Option.bind (Json.member "trace" run) Json.to_num = Some (float_of_int trace)
        then
          Option.bind (Json.member "result" run) (fun r ->
              Option.bind (Json.member "metrics" r) (fun ms ->
                  Option.bind (Json.member name ms) (fun v -> Option.bind (Json.member "value" v) Json.to_num)))
        else None)
      (Json.to_list (Option.value (Json.member "runs" doc) ~default:(Json.Arr [])))
  in
  let a = load a_file and b = load b_file in
  let failed = ref false in
  List.iter
    (fun w ->
      let row trace specs =
        List.filter_map
          (fun (name, better, bound) ->
            let pa = values a ~workload:w ~trace name and pb = values b ~workload:w ~trace name in
            if pa = [] || pb = [] then None
            else if deterministic name then begin
              let v = Stats.count_verdict ~better ~parent:pa ~change:pb in
              if v <> Stats.Unchanged then failed := true;
              Some (name, v, pa, pb)
            end
            else
              let v = Stats.verdict ~better ~bound ~parent:pa ~change:pb in
              if trace = 0 && v = Stats.Regressed then failed := true;
              Some (name, v, pa, pb))
          specs
      in
      let e2e = row 0 (metric_specs "end_to_end") in
      if e2e <> [] then begin
        Printf.printf "%-11s %s\n" w
          (String.concat "  "
             (List.map (fun (n, v, _, _) -> n ^ "=" ^ Stats.verdict_name v) e2e));
        List.iter
          (fun (n, v, pa, pb) ->
            let ma = Stats.median pa and mb = Stats.median pb in
            Printf.printf "    %-38s %-10s %12.4f -> %12.4f (%+.1f%%, %d pairs)\n" n
              (Stats.verdict_name v) ma mb
              (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. ma)
              (min (List.length pa) (List.length pb)))
          (e2e @ row 1 (metric_specs "per_layer"))
      end)
    workloads;
  if !failed then exit 1

(* -- command line -- *)

let () =
  let trace_given = ref false in
  let add_compare = Arg.String (fun f -> compare_files := !compare_files @ [ f ]) in
  let specs =
    [
      ( "--workload",
        Arg.String (fun w -> workload := Some w),
        "NAME run one workload (" ^ String.concat ", " workloads ^ ")" );
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured wall time per run (default 10)");
      ( "--trace",
        Arg.Int
          (fun t ->
            trace := t;
            trace_given := true),
        "0|1 with --workload: run it here and print its end-to-end (0) or per-layer (1) \
         metrics as one JSON line" );
      ("--traced", Arg.Set traced, " also run the traced run of each workload");
      ("--quick", Arg.Set quick, " 1/20 of the work, every check kept");
      ( "--out",
        Arg.String (fun f -> out := Some f),
        "FILE results file (default " ^ default_out ^ ")" );
      ("--append", Arg.Set append, " add the runs to an existing results file");
      ( "--compare",
        Arg.Tuple [ add_compare; add_compare ],
        "PARENT CHANGE compare two results files under BENCHMARK.json's bounds" );
      ("--discoctl", Arg.Set_string discoctl, "PATH the discoctl binary serve_zipf runs");
    ]
  in
  let usage =
    "disco_bench [--seed N] [--seconds S] [--traced] [--quick] [--workload NAME [--trace 0|1]]\n\
    \       disco_bench --compare PARENT.json CHANGE.json"
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match (!compare_files, !workload) with
  | [ a; b ], _ -> compare_results a b
  | _ :: _, _ -> raise (Arg.Bad "--compare takes two files")
  | [], Some w when not (List.mem w workloads) ->
      log "unknown workload %s (expected one of %s)" w (String.concat ", " workloads);
      exit 2
  | [], Some w when !trace_given -> (
      try run_workload w
      with e ->
        log "disco_bench: %s" (Printexc.to_string e);
        exit 2)
  | [], _ -> orchestrate ()
