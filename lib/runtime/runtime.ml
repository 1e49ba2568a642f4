module Expr = Disco_algebra.Expr
module Decompile = Disco_algebra.Decompile
module Plan = Disco_physical.Plan
module Cost_model = Disco_cost.Cost_model
module Source = Disco_source.Source
module Clock = Disco_source.Clock
module Scheduler = Disco_source.Scheduler
module Wrapper = Disco_wrapper.Wrapper
module Translate = Disco_wrapper.Translate
module Typemap = Disco_odl.Typemap
module Ast = Disco_oql.Ast
module V = Disco_value.Value
module Answer_cache = Disco_cache.Answer_cache
module Check = Disco_check.Check
module Trace = Disco_obs.Trace
module Metrics = Disco_obs.Metrics

let log_src = Logs.Src.create "disco.runtime" ~doc:"Disco run-time system"

module Log = (val Logs.src_log log_src)

exception Runtime_error of string

let runtime_error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type binding = {
  b_extent : string;
  b_repo : string;
  b_source : Source.t;
  b_replicas : (string * Source.t) list;
  b_wrapper : Wrapper.t;
  b_map : Typemap.t;
  b_check : (V.t -> bool) option;
}

(* Deadline-aware retry policy: how blocked/timed-out execs are
   re-polled inside the query's time budget, whether slow primaries are
   hedged with a replica, and when a consistently-refusing source trips
   its circuit breaker. *)
module Retry = struct
  type t = {
    initial_ms : float;
    multiplier : float;
    max_attempts : int;
    hedge_ms : float option;
    breaker_threshold : int option;
    breaker_cooldown_ms : float;
  }

  let make ?(initial_ms = 50.0) ?(multiplier = 2.0) ?(max_attempts = 4)
      ?hedge_ms ?breaker_threshold ?(breaker_cooldown_ms = 400.0) () =
    if initial_ms <= 0.0 then
      invalid_arg "Retry.make: initial_ms must be positive";
    if multiplier < 1.0 then
      invalid_arg "Retry.make: multiplier must be at least 1";
    if max_attempts < 0 then
      invalid_arg "Retry.make: max_attempts must be non-negative";
    (match hedge_ms with
    | Some h when h < 0.0 -> invalid_arg "Retry.make: hedge_ms must be non-negative"
    | _ -> ());
    (match breaker_threshold with
    | Some n when n < 1 ->
        invalid_arg "Retry.make: breaker_threshold must be at least 1"
    | _ -> ());
    if breaker_cooldown_ms < 0.0 then
      invalid_arg "Retry.make: breaker_cooldown_ms must be non-negative";
    {
      initial_ms;
      multiplier;
      max_attempts;
      hedge_ms;
      breaker_threshold;
      breaker_cooldown_ms;
    }

  let default = make ()
end

(* Per-source circuit breaker: after [breaker_threshold] consecutive
   refusals the source is skipped by re-polls and hedges until
   [breaker_cooldown_ms] has passed, when one half-open probe is allowed
   through (success closes the breaker, failure re-opens it).  The table
   is keyed by source id and meant to outlive a single query — the
   mediator holds one per federation so the state is visible across
   queries. *)
module Breaker = struct
  type entry = { mutable fails : int; mutable opened_at : float option }

  (* Queries on several threads share one table; [lock] guards it and
     its entries, and is held only across their own reads and writes. *)
  type t = { lock : Mutex.t; tbl : (string, entry) Hashtbl.t }

  let create () = { lock = Mutex.create (); tbl = Hashtbl.create 8 }

  let entry t id =
    match Hashtbl.find_opt t.tbl id with
    | Some e -> e
    | None ->
        let e = { fails = 0; opened_at = None } in
        Hashtbl.replace t.tbl id e;
        e

  let allows t ~cooldown_ms ~now id =
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.tbl id with
    | None | Some { opened_at = None; _ } -> true
    | Some { opened_at = Some since; _ } -> now >= since +. cooldown_ms

  (* true when this failure opened (or re-opened after a failed
     half-open probe) the breaker *)
  let note_failure t ~threshold ~cooldown_ms ~now id =
    Mutex.protect t.lock @@ fun () ->
    let e = entry t id in
    e.fails <- e.fails + 1;
    match e.opened_at with
    | None when e.fails >= threshold ->
        e.opened_at <- Some now;
        true
    | Some since when now >= since +. cooldown_ms ->
        e.opened_at <- Some now;
        true
    | _ -> false

  let note_success t id =
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.tbl id with
    | Some e ->
        e.fails <- 0;
        e.opened_at <- None
    | None -> ()

  let snapshot t =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold
          (fun id e acc -> (id, e.fails, e.opened_at) :: acc)
          t.tbl [])
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
end

module Config = struct
  type t = {
    clock : Clock.t;
    sched : Scheduler.t option;
    cost : Cost_model.t;
    cache : Answer_cache.t option;
    serve_stale_ms : float option;
    trace : Trace.t option;
    metrics : Metrics.t;
    batch : bool;
    check : Check.mode;
    checker : Check.t option;
    retry : Retry.t option;
    breaker : Breaker.t option;
  }

  let make ?sched ?cache ?serve_stale_ms ?trace ?(metrics = Metrics.default)
      ?(batch = true) ?(check = Check.Warn) ?checker ?retry ?breaker ~clock
      ~cost () =
    {
      clock;
      sched;
      cost;
      cache;
      serve_stale_ms;
      trace;
      metrics;
      batch;
      check;
      checker;
      retry;
      breaker;
    }
end

type env = {
  sched : Scheduler.t;
  cost : Cost_model.t;
  bindings : (string, binding) Hashtbl.t;
      (* by extent name; what [execute] prepares its plan with *)
  cache : Answer_cache.t option;
  serve_stale_ms : float option;
      (* when set, execs to unavailable sources are answered from cached
         fragments no older than this (the Cached_fallback semantics) *)
  trace : Trace.t option;
  metrics : Metrics.t;
  batch : bool;
      (* let same-destination execs share one wrapper round-trip; off,
         every exec rides alone (the only effect of the flag) *)
  batch_seq : int ref; (* distinguishes batched round-trips in traces *)
  check : Check.mode;
  checker : Check.t option;
  retry : Retry.t option;
      (* when set, blocked execs are re-polled until the deadline
         instead of finalizing at issue time; None is the
         historical one-shot behavior, reproduced exactly *)
  breaker : Breaker.t;
  extra_trips : int ref;
      (* wrapper round-trips issued by the retry scheduler and hedging
         on top of the round's own calls *)
  type_check : bool;  (* apply the bindings' [b_check]s *)
}

(* Bindings by extent name; the first binding of an extent wins. *)
let by_extent bindings =
  let table = Hashtbl.create (List.length bindings) in
  List.iter
    (fun b ->
      if not (Hashtbl.mem table b.b_extent) then
        Hashtbl.replace table b.b_extent b)
    bindings;
  table

let env (c : Config.t) bindings =
  {
    sched =
      (match c.Config.sched with
      | Some s -> s
      | None -> Scheduler.of_clock c.Config.clock);
    cost = c.Config.cost;
    bindings = by_extent bindings;
    cache = c.Config.cache;
    serve_stale_ms = c.Config.serve_stale_ms;
    trace = c.Config.trace;
    metrics = c.Config.metrics;
    batch = c.Config.batch;
    batch_seq = ref 0;
    check = c.Config.check;
    checker = c.Config.checker;
    retry = c.Config.retry;
    breaker =
      (match c.Config.breaker with
      | Some b -> b
      | None -> Breaker.create ());
    extra_trips = ref 0;
    type_check = true;
  }

let binding_of bindings extent =
  match Hashtbl.find_opt bindings extent with
  | Some b -> b
  | None -> runtime_error "no binding for extent %s" extent

type partial = {
  query : Ast.query;
  unavailable : string list;
  versions : (string * int) list;
}

type answer = Complete of V.t | Partial of partial

let answer_oql = function
  | Complete v -> V.to_string v
  | Partial { query; _ } -> Ast.to_string query

type stats = {
  execs_issued : int;
  execs_answered : int;
  execs_blocked : int;
  tuples_shipped : int;
  elapsed_ms : float;
  cache_hits : int;
  cache_stale_hits : int;
  cache_stale_ms : float;
  round_trips : int;
}

type exec_done = {
  value : V.t;  (* reduced through the exec's chain when [reduced] *)
  reduced : bool;
  finish : float;
  shipped : int;
  origin : Trace.origin;
  answered_by : string * int;
      (* the repository that actually produced the answer (primary,
         failover replica, hedge winner, or the cache's key repository)
         and its data version at answer time — what Section 4's
         staleness check must validate against *)
}

type exec_result = Done of exec_done | Blocked

let cardinal v = try V.cardinal v with V.Type_error _ -> 1

(* Every exec — whichever round issued it, alone or sharing a
   round-trip, first issue or re-poll, hedged or not — is prepared once
   ([prepare_exec]: binding resolution, translation, the answer renamer,
   the cost-model and answer-cache keys; [table_of] adds the reducer of
   its chain) and, each time it is issued, only picks a live copy
   ([issue]). It then gets at most one answer-cache lookup and one of two
   completions: [complete_group] for an answer that came over the wire
   (renamed, type-checked and reduced by its round-trip's job, [receive]),
   [unanswered] for a refusal or timeout.  A prepared exec is immutable,
   so a prepared program can be shared by concurrent runs. *)

type prepared = {
  p_repo : string;
  p_logical : Expr.expr;
  p_binding : binding;
  p_copies : (string * Source.t) list;  (* primary, then replicas *)
  p_source_expr : Expr.expr;
  p_call : Source.t -> (V.t * int, Wrapper.error) result;
      (* [Wrapper.prepare] of [p_source_expr]: compiles on its first call *)
  p_rename : V.t -> V.t;
  p_reduce : (V.t -> V.t) option;
      (* the exec's chain (see [chained_execs]) run over its answer *)
  p_cost : Cost_model.key;
  p_cache_key : string option;  (* made when an answer cache is in use *)
}

let prepare_exec bindings ~cache repo logical =
  let extents = Expr.gets logical in
  let bindings = List.map (binding_of bindings) extents in
  let binding =
    match bindings with
    | [] -> runtime_error "exec(%s) references no extent" repo
    | first :: _ -> first
  in
  List.iter
    (fun b ->
      if not (String.equal b.b_repo repo) then
        runtime_error "exec(%s) references extent %s bound to %s" repo
          b.b_extent b.b_repo)
    bindings;
  let map_of extent =
    match
      List.find_opt (fun b -> String.equal b.b_extent extent) bindings
    with
    | Some b -> b.b_map
    | None -> Typemap.identity
  in
  let source_expr = Translate.to_source ~map_of logical in
  {
    p_repo = repo;
    p_logical = logical;
    p_binding = binding;
    p_copies = (binding.b_repo, binding.b_source) :: binding.b_replicas;
    p_source_expr = source_expr;
    p_call = Wrapper.prepare binding.b_wrapper source_expr;
    p_rename = Translate.answer_renamer ~map_of logical;
    p_reduce = None;
    p_cost = Cost_model.key ~repo logical;
    p_cache_key =
      (if cache then Some (Answer_cache.key ~repo logical) else None);
  }

let cache_key p =
  match p.p_cache_key with
  | Some key -> key
  | None -> Answer_cache.key ~repo:p.p_repo p.p_logical

(* One issue of a prepared exec at [now]: the first live copy (the
   primary when none is up) and, when traced, the cost model's
   prediction at that instant. *)
type issued = {
  prep : prepared;
  chosen_repo : string;
  chosen : Source.t;
  predicted : Cost_model.estimate option;
}

let issue env ~now p =
  let chosen_repo, chosen =
    match List.find_opt (fun (_, src) -> Source.is_up src now) p.p_copies with
    | Some (replica_repo, src) ->
        if not (String.equal replica_repo p.p_binding.b_repo) then
          Log.info (fun m ->
              m "exec(%s): primary down, failing over to replica %s" p.p_repo
                replica_repo);
        (replica_repo, src)
    | None -> (p.p_binding.b_repo, p.p_binding.b_source)
  in
  let predicted =
    match env.trace with
    | None -> None
    | Some _ -> Some (Cost_model.estimate_key env.cost p.p_cost)
  in
  { prep = p; chosen_repo; chosen; predicted }

let typecheck_answer env p renamed =
  match p.p_binding.b_check with
  | Some check when env.type_check && V.is_collection renamed ->
      List.iter
        (fun elem ->
          if not (check elem) then
            runtime_error "type mismatch: source %s returned %s for extent %s"
              p.p_repo (V.to_string elem) p.p_binding.b_extent)
        (V.elements renamed)
  | _ -> ()

(* An answer run through its exec's chain, or [None] when the exec has
   no reducer or the chain raises. The unreduced chain then stays in the
   plan and raises where it would have without the reducer, when the plan
   runs. *)
let reduce p value =
  match p.p_reduce with
  | None -> None
  | Some chain -> ( try Some (chain value) with _ -> None)

(* A main-thread answer (a cache hit, a stale fragment) as [exec_done]
   carries it. *)
let reduce_done p value =
  match reduce p value with
  | Some reduced -> (reduced, true)
  | None -> (value, false)

let origin_metric = function
  | Trace.Source -> "exec.origin.source"
  | Trace.Cache -> "exec.origin.cache"
  | Trace.Stale _ -> "exec.origin.stale"
  | Trace.Failover _ -> "exec.origin.failover"
  | Trace.Blocked -> "exec.origin.blocked"

(* every exec outcome lands in the metrics registry; the trace leaf is
   built only when a trace is attached.  [batch] is the shared
   round-trip's (id, size) when the exec did not ride alone. *)
let observe ?(attempts = []) ?batch env (x : issued) ~start ~finish ~origin
    ~shipped ~rows =
  Metrics.incr env.metrics (origin_metric origin);
  if shipped > 0 then Metrics.incr ~by:shipped env.metrics "exec.tuples_shipped";
  match env.trace with
  | None -> ()
  | Some tr ->
      let p_ms, p_rows =
        match x.predicted with
        | Some (e : Cost_model.estimate) ->
            (Some e.Cost_model.est_time_ms, Some e.Cost_model.est_rows)
        | None -> (None, None)
      in
      let batch_id, batch_size =
        match batch with
        | Some (id, size) -> (Some id, size)
        | None -> (None, 1)
      in
      Trace.exec ~attempts tr
        {
          Trace.x_repo = x.prep.p_repo;
          x_wrapper = Wrapper.name x.prep.p_binding.b_wrapper;
          x_expr = Cost_model.printed x.prep.p_cost;
          x_origin = origin;
          x_start_ms = start;
          x_elapsed_ms = finish -. start;
          x_tuples = shipped;
          x_rows = rows;
          x_predicted_ms = p_ms;
          x_predicted_rows = p_rows;
          x_batch_id = batch_id;
          x_batch_size = batch_size;
        }

(* The exec's one answer-cache lookup: a fragment cached at the chosen
   source's current data version answers it without touching the wire. *)
let fresh_hit env (x : issued) ~now =
  match env.cache with
  | None -> None
  | Some cache ->
      let version = Source.data_version x.chosen in
      Answer_cache.find_fresh cache ~key:(cache_key x.prep) ~version
      |> Option.map (fun value ->
             Log.debug (fun m ->
                 m "exec(%s) answered from cache: %s" x.prep.p_repo
                   (Cost_model.printed x.prep.p_cost));
             observe env x ~start:now ~finish:now ~origin:Trace.Cache
               ~shipped:0 ~rows:(cardinal value);
             let value, reduced = reduce_done x.prep value in
             {
               value;
               reduced;
               finish = now;
               shipped = 0;
               origin = Trace.Cache;
               answered_by = (x.chosen_repo, version);
             })

(* A source answer as its round-trip's job leaves it: renamed into the
   mediator name space, type-checked and, when its exec has a reducer,
   reduced. What the completion reads of the unreduced answer travels
   beside it: its cardinality, and the answer itself only when an answer
   cache will store it. A wrapper error or a failed renaming or type check
   is carried as the exception its completion raises. *)
type landed =
  | Kept of { value : V.t; shipped : int }
  | Reduced of { value : V.t; renamed : V.t option; shipped : int }
  | Failed of exn

let land_one env wrapper x = function
  | Error err ->
      Failed
        (Runtime_error
           (Printf.sprintf "wrapper %s on %s: %s" (Wrapper.name wrapper)
              x.prep.p_repo (Wrapper.error_message err)))
  | Ok (v, _rows) -> (
      match
        let renamed = x.prep.p_rename v in
        typecheck_answer env x.prep renamed;
        renamed
      with
      | exception e -> Failed e
      | renamed -> (
          let shipped = cardinal renamed in
          match reduce x.prep renamed with
          | None -> Kept { value = renamed; shipped }
          | Some value ->
              let renamed = Option.map (fun _ -> renamed) env.cache in
              Reduced { value; renamed; shipped }))

(* A round-trip's answers, landed one per member in order, or [Error n]
   when the wrapper returned [n] answers for a group of another size. *)
let receive env group answers =
  let wrapper = (List.hd group).prep.p_binding.b_wrapper in
  let count = List.length answers in
  if count <> List.length group then Error count
  else Ok (List.map2 (land_one env wrapper) group answers)

(* One wrapper round-trip carrying a group of execs to [src]: the
   source's [base_ms] (and a single jitter draw) is paid once for the
   group. Each answer is landed as soon as the wrapper returns it, so the
   raw rows the source shipped die before the next round-trip's arrive. *)
let wire_call env ~now ~deadline src group =
  Source.call_at src ~now ~deadline (fun () ->
      let answers =
        Wrapper.execute_prepared (List.hd group).prep.p_binding.b_wrapper src
          (List.map (fun x -> (x.prep.p_source_expr, x.prep.p_call)) group)
      in
      let rows =
        List.fold_left
          (fun acc r -> match r with Ok (_, n) -> acc + n | Error _ -> acc)
          0 answers
      in
      (receive env group answers, rows))

(* -- circuit breaker hooks (active only under Config.retry with a
   breaker_threshold) -- *)

let breaker_allows env ~now src =
  match env.retry with
  | Some
      { Retry.breaker_threshold = Some _; Retry.breaker_cooldown_ms; _ } ->
      Breaker.allows env.breaker ~cooldown_ms:breaker_cooldown_ms ~now
        (Source.id src)
  | _ -> true

let breaker_note env ~now src outcome =
  match env.retry with
  | Some
      { Retry.breaker_threshold = Some n; Retry.breaker_cooldown_ms; _ } -> (
      match outcome with
      | Source.Answered _ -> Breaker.note_success env.breaker (Source.id src)
      | Source.Unavailable | Source.Timed_out _ ->
          if
            Breaker.note_failure env.breaker ~threshold:n
              ~cooldown_ms:breaker_cooldown_ms ~now (Source.id src)
          then Metrics.incr env.metrics "runtime.breaker.open")
  | _ -> ()

(* Replica hedging (Config.retry.hedge_ms): when the chosen source's
   answer would land later than [now + hedge_ms] — or not at all within
   the deadline — race the first live, breaker-permitted replica, issued
   at the hedge instant, and keep whichever completion is earlier.  In
   the discrete-event simulation both completions are known at issue
   time, so the race resolves immediately.  A primary that is down at
   issue time is not hedged: issue-time failover already switched to a
   replica, and the retry scheduler covers later recovery.  Returns the
   answering repository, its source, and the winning outcome. *)
let hedge env ~now ~deadline (x : issued) primary =
  let candidate =
    match env.retry with
    | Some { Retry.hedge_ms = Some h; _ } ->
        let hedge_at = now +. h in
        let worth =
          hedge_at < deadline
          &&
          match primary with
          | Source.Answered (_, finish) -> finish > hedge_at
          | Source.Timed_out _ -> true
          | Source.Unavailable -> false
        in
        if not worth then None
        else
          List.find_opt
            (fun (repo, src) ->
              (not (String.equal repo x.chosen_repo))
              && Source.is_up src hedge_at
              && breaker_allows env ~now:hedge_at src)
            x.prep.p_copies
          |> Option.map (fun c -> (c, hedge_at))
    | _ -> None
  in
  match candidate with
  | None -> (x.chosen_repo, x.chosen, primary)
  | Some ((hrepo, hsrc), hedge_at) ->
      Metrics.incr env.metrics "runtime.hedge.issued";
      incr env.extra_trips;
      let hedged = wire_call env ~now:hedge_at ~deadline hsrc [ x ] in
      breaker_note env ~now:hedge_at hsrc hedged;
      let hedge_wins =
        match (primary, hedged) with
        | Source.Answered (_, fp), Source.Answered (_, fh) -> fh < fp
        | (Source.Unavailable | Source.Timed_out _), Source.Answered _ -> true
        | _, (Source.Unavailable | Source.Timed_out _) -> false
      in
      if hedge_wins then (
        Metrics.incr env.metrics "runtime.hedge.won";
        Log.info (fun m ->
            m "exec(%s): hedge to replica %s won the race" x.prep.p_repo hrepo);
        (hrepo, hsrc, hedged))
      else (x.chosen_repo, x.chosen, primary)

(* What follows every round-trip: the circuit breaker observes the
   outcome, and a lone exec may be hedged.  Multi-member batches are
   never hedged — one racing replica per wrapper call would undo the
   batching win. *)
let settle env ~now ~deadline group outcome =
  let x = List.hd group in
  breaker_note env ~now x.chosen outcome;
  match group with
  | [ _ ] -> hedge env ~now ~deadline x outcome
  | _ -> (x.chosen_repo, x.chosen, outcome)

(* Completion of one landed source answer: store the unreduced fragment
   in the answer cache, record the call in the cost model, emit the trace
   leaf, and stamp the answer with the repository that actually produced
   it.  Only source answers feed the learned cost model — cache serves
   complete in zero time and would corrupt the estimates; a shared
   round-trip is amortized across its [size] members so the per-call
   Section 3.3 estimates stay comparable with execs that rode alone. *)
let complete_answer ?attempts ?batch env (x : issued) ~start ~finish ~size
    ~answered_repo ~answered_src landed =
  let p = x.prep in
  let value, reduced, shipped =
    match landed with
    | Kept { value; shipped } -> (value, false, shipped)
    | Reduced { value; shipped; _ } -> (value, true, shipped)
    | Failed e -> raise e
  in
  Log.debug (fun m ->
      m "exec(%s) answered %d rows at t=%.1f" p.p_repo shipped finish);
  let version = Source.data_version answered_src in
  (match (env.cache, landed) with
  | ( Some cache,
      (Kept { value = renamed; _ } | Reduced { renamed = Some renamed; _ }) )
    ->
      Answer_cache.store cache ~key:(cache_key p) ~version ~now:finish renamed
  | _ -> ());
  let origin =
    if String.equal answered_repo p.p_binding.b_repo then Trace.Source
    else Trace.Failover answered_repo
  in
  Cost_model.record_key env.cost p.p_cost
    ~time_ms:((finish -. start) /. float_of_int size)
    ~rows:shipped;
  observe ?attempts ?batch env x ~start ~finish ~origin ~shipped
    ~rows:shipped;
  Done
    {
      value;
      reduced;
      finish;
      shipped;
      origin;
      answered_by = (answered_repo, version);
    }

(* A round-trip that came back: one landed answer per member, in order;
   the first member whose answer did not land raises its exception.  The
   round-trip itself calibrates the source's batched cost (a hedge
   winner's time includes the hedge delay — it is what the exec cost). *)
let complete_group ?attempts ?batch env group ~start ~finish ~answered_repo
    ~answered_src arrival =
  let size = List.length group in
  let landed =
    match arrival with
    | Ok landed -> landed
    | Error count ->
        runtime_error "wrapper %s on %s answered %d of a batch of %d"
          (Wrapper.name (List.hd group).prep.p_binding.b_wrapper)
          answered_repo count size
  in
  Cost_model.record_batch env.cost ~repo:answered_repo ~size
    ~time_ms:(finish -. start);
  List.map2
    (fun x landed ->
      complete_answer ?attempts ?batch env x ~start ~finish ~size
        ~answered_repo ~answered_src landed)
    group landed

(* An exec whose source refused or timed out: answered from a stale
   fragment when the Cached_fallback semantics allow it, else blocked.
   Under Config.retry a blocked exec is observed by the retry scheduler
   (which owns its final outcome), not here. *)
let unanswered ?batch env ~now ~deadline (x : issued) =
  let p = x.prep in
  let stale =
    match (env.cache, env.serve_stale_ms) with
    | Some cache, Some max_stale_ms ->
        Answer_cache.find_stale cache ~key:(cache_key p) ~now ~max_stale_ms
    | _ -> None
  in
  match stale with
  | Some (value, age) ->
      observe env x ~start:now ~finish:now ~origin:(Trace.Stale age) ~shipped:0
        ~rows:(cardinal value);
      let value, reduced = reduce_done p value in
      Done
        {
          value;
          reduced;
          finish = now;
          shipped = 0;
          origin = Trace.Stale age;
          answered_by = (p.p_repo, Source.data_version p.p_binding.b_source);
        }
  | None ->
      Log.debug (fun m ->
          m "exec(%s) blocked: %s" p.p_repo (Cost_model.printed p.p_cost));
      if env.retry = None then
        observe ?batch env x ~start:now ~finish:deadline ~origin:Trace.Blocked
          ~shipped:0 ~rows:0;
      Blocked

(* An exec's chain is the maximal run of unary mediator operators
   directly above it: [chain_child] is the child of such an operator, and
   [chain_exec] finds the exec under a chain's top node. *)
let chain_child = function
  | Plan.Mk_select (c, _) | Plan.Mk_project (c, _) | Plan.Mk_map (c, _)
  | Plan.Mk_distinct c ->
      Some c
  | _ -> None

let rec chain_exec = function
  | Plan.Exec (repo, logical) -> Some (repo, logical)
  | p -> Option.bind (chain_child p) chain_exec

(* [Plan.execs plan], each with the top node of its chain ([None] when no
   unary operator sits directly above it). *)
let chained_execs plan =
  let rec go top acc = function
    | Plan.Exec (repo, logical) -> (repo, logical, top) :: acc
    | p -> (
        match chain_child p with
        | Some c -> go (Some (Option.value top ~default:p)) acc c
        | None -> Plan.fold_children (go None) acc p)
  in
  List.rev (go None [] plan)

(* A chain's reducer: the chain's operators over an answer, which is what
   [Plan.run_local] computes for the chain once the answer is
   substituted. *)
let reducer top value =
  Plan.run_local (Plan.substitute_execs (fun _ _ -> Plan.Mk_data value) top)

(* A round's execs, prepared: one per distinct [(repository, expr)]
   exec, in first-appearance order, found by repository and then by
   [Expr.equal] within that repository's bucket.  Dedup builds it once;
   a run keeps the outcomes in an array beside it, which completions and
   re-polls write and substitution, the blocked list and the version
   vector read back.  A table never changes once built.  When an exec
   cannot be prepared, [t_execs] stops before it and [t_failure] holds
   the exception, which the round raises where it would have issued that
   exec.  An exec gets its chain's reducer when every occurrence of it
   has the same chain. *)
type table = {
  t_execs : prepared array;
  t_by_repo : (string, (int * Expr.expr) list) Hashtbl.t;
  t_count : int;  (* execs before dedup *)
  t_distinct : int;
  t_failure : exn option;
}

let bucket by_repo repo =
  Option.value ~default:[] (Hashtbl.find_opt by_repo repo)

let same_chain a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Expr.equal (Plan.to_logical a) (Plan.to_logical b)
  | _ -> false

let table_of bindings ~cache execs =
  let by_repo = Hashtbl.create (List.length execs) in
  let count = ref 0 in
  (* each distinct exec's chain; [None] once two occurrences differ *)
  let chains = Hashtbl.create 16 in
  let distinct =
    List.filter_map
      (fun (repo, logical, top) ->
        let b = bucket by_repo repo in
        match List.find_opt (fun (_, l) -> Expr.equal l logical) b with
        | Some (k, _) ->
            if not (same_chain (Hashtbl.find chains k) top) then
              Hashtbl.replace chains k None;
            None
        | None ->
            let k = !count in
            Hashtbl.replace by_repo repo ((k, logical) :: b);
            Hashtbl.replace chains k top;
            incr count;
            Some (k, repo, logical))
      execs
  in
  let failure = ref None in
  let prepared =
    List.filter_map
      (fun (k, repo, logical) ->
        if Option.is_some !failure then None
        else
          match prepare_exec bindings ~cache repo logical with
          | p -> (
              match Hashtbl.find chains k with
              | Some top -> Some { p with p_reduce = Some (reducer top) }
              | None -> Some p)
          | exception e ->
              failure := Some e;
              None)
      distinct
  in
  {
    t_execs = Array.of_list prepared;
    t_by_repo = by_repo;
    t_count = List.length execs;
    t_distinct = !count;
    t_failure = !failure;
  }

let find_exec table repo logical =
  List.find_map
    (fun (k, l) -> if l == logical || Expr.equal l logical then Some k else None)
    (bucket table.t_by_repo repo)

(* A plan prepared to run any number of times: its bindings and its first
   round's execs.  Later rounds (semi-join reductions) issue execs built
   at run time; those are prepared when issued, by the same function. *)
type program = {
  g_plan : Plan.plan;
  g_bindings : (string, binding) Hashtbl.t;
  g_first : table;
}

let prepare_in bindings ~cache plan =
  {
    g_plan = plan;
    g_bindings = bindings;
    g_first = table_of bindings ~cache (chained_execs plan);
  }

let prepare ?cache bindings plan =
  prepare_in (by_extent bindings) ~cache:(cache <> None) plan

(* -- deadline-aware retry scheduler (Config.retry) --

   Blocked execs do not finalize at issue time: each is re-polled on
   exponential backoff ([initial_ms], [multiplier]) until it recovers,
   exhausts [max_attempts], or runs out of deadline.  Every exec of a
   round was issued at the same instant and backs off by the same
   formula, so re-poll [k] of every exec falls on one instant, and the
   instants grow with [k]: draining attempt by attempt, each pass in
   table order, is the virtual-time order of a real event loop, so shared
   state (the circuit breaker, source call counters) evolves as it would
   under a reactor.  Each re-poll re-issues the prepared exec, so
   failover re-chooses the live copy at the re-poll instant: a source
   whose schedule flips up at t=300ms answers a 1000ms-deadline query
   instead of forcing a partial answer.

   A retried exec contributes exactly one trace leaf: Done (with its
   failed attempts as child spans) if some re-poll recovered, else
   Blocked at the deadline. *)
let apply_retries env ~deadline table results =
  match env.retry with
  | None -> ()
  | Some r ->
      let t0 = Scheduler.now env.sched in
      (* one blocked exec's re-poll [attempt] at [at]: [Some] with its
         history (newest first) while it stays blocked *)
      let repoll ~attempt ~at (k, history) =
        let p = table.t_execs.(k) in
        let attempt_of ~elapsed outcome =
          {
            Trace.a_number = attempt;
            a_start_ms = at;
            a_elapsed_ms = elapsed;
            a_outcome = outcome;
          }
        in
        let again ~elapsed outcome =
          Some (k, attempt_of ~elapsed outcome :: history)
        in
        if at >= deadline || attempt > r.Retry.max_attempts then (
          (* out of budget: finalize as blocked, with the re-poll history
             attached to the leaf *)
          observe ~attempts:(List.rev history) env
            (issue env ~now:deadline p)
            ~start:t0 ~finish:deadline ~origin:Trace.Blocked ~shipped:0
            ~rows:0;
          None)
        else
          let x = issue env ~now:at p in
          if not (breaker_allows env ~now:at x.chosen) then
            again ~elapsed:0.0 "breaker-open"
          else (
            Metrics.incr env.metrics "runtime.retry.attempts";
            incr env.extra_trips;
            let answered_repo, answered_src, outcome =
              settle env ~now:at ~deadline [ x ]
                (wire_call env ~now:at ~deadline x.chosen [ x ])
            in
            match outcome with
            | Source.Unavailable -> again ~elapsed:0.0 "unavailable"
            | Source.Timed_out completion ->
                again ~elapsed:(completion -. at) "timed-out"
            | Source.Answered (answers, finish) ->
                let won = attempt_of ~elapsed:(finish -. at) "recovered" in
                complete_group
                  ~attempts:(List.rev (won :: history))
                  env [ x ] ~start:at ~finish ~answered_repo ~answered_src
                  answers
                |> List.iter (fun res -> results.(k) <- res);
                Metrics.incr env.metrics "runtime.retry.recovered";
                Log.info (fun m ->
                    m "exec(%s) recovered on re-poll %d at t=%.1f" p.p_repo
                      attempt finish);
                None)
      in
      let rec drain attempt at waiting =
        if waiting <> [] then (
          (* wall schedulers really wait for the attempt's instant; the
             virtual drain resolves it immediately *)
          Scheduler.pace env.sched (Float.min at deadline);
          let waiting = List.filter_map (repoll ~attempt ~at) waiting in
          drain (attempt + 1)
            (at
            +. (r.Retry.initial_ms *. (r.Retry.multiplier ** float_of_int attempt)))
            waiting)
      in
      drain 1 (t0 +. r.Retry.initial_ms)
        (List.filter_map
           (fun k ->
             match results.(k) with Blocked -> Some (k, []) | Done _ -> None)
           (List.init (Array.length results) Fun.id))

(* [xs] grouped by [key] through one insertion-ordered table: groups in
   first-appearance order, members in input order. *)
let grouped key xs =
  let table = Hashtbl.create (List.length xs) in
  List.fold_left
    (fun order x ->
      let k = key x in
      match Hashtbl.find_opt table k with
      | Some members ->
          Hashtbl.replace table k (x :: members);
          order
      | None ->
          Hashtbl.replace table k [ x ];
          k :: order)
    [] xs
  |> List.rev_map (fun k -> List.rev (Hashtbl.find table k))

(* One parallel round of a table's execs (structurally identical execs
   share an entry: the answer is computed once and substituted
   everywhere).  Each is issued — a live copy chosen — and looked up in
   the answer cache once; the rest are grouped by destination — (chosen
   repository, wrapper) — and each group rides one
   [Wrapper.execute_batch] round-trip.  Config.batch only caps the group
   size: without it every exec rides alone.  Returns the outcomes, one
   per table entry, and the round's stats. *)
let issue_round env ~deadline table =
  let now = Scheduler.now env.sched in
  let trips0 = !(env.extra_trips) in
  let results = Array.make (Array.length table.t_execs) Blocked in
  let issued = table.t_distinct in
  let dedup_hits = table.t_count - issued in
  if dedup_hits > 0 then (
    Log.debug (fun m ->
        m "dedup: %d duplicate exec(s) share answers this round" dedup_hits);
    Metrics.incr ~by:dedup_hits env.metrics "runtime.batch.dedup_hits");
  let pending = ref [] in
  Array.iteri
    (fun k p ->
      let x = issue env ~now p in
      match fresh_hit env x ~now with
      | Some d -> results.(k) <- Done d
      | None -> pending := (k, x) :: !pending)
    table.t_execs;
  Option.iter raise table.t_failure;
  let pending = List.rev !pending in
  let groups =
    if env.batch then
      grouped
        (fun (_, x) -> (x.chosen_repo, Wrapper.name x.prep.p_binding.b_wrapper))
        pending
    else List.map (fun m -> [ m ]) pending
  in
  (* batch ids, trip counts and metrics are assigned before any wire
     call, so they are identical whichever scheduler runs the calls *)
  let groups =
    List.map
      (fun members ->
        Metrics.incr env.metrics "runtime.batch.rounds";
        incr env.batch_seq;
        (!(env.batch_seq), List.map fst members, List.map snd members))
      groups
  in
  (* Only the wire exchanges go through the scheduler, which may fan them
     out across domains, one job per group; under the virtual scheduler
     jobs run sequentially in this exact order.  A source's jitter
     depends only on its own call order, which the grouping keeps.
     Breaker and hedge state are shared, so [settle] runs afterwards,
     off the parallel pool. *)
  let outcomes =
    Scheduler.map_rounds env.sched
      (fun (_, _, group) ->
        wire_call env ~now ~deadline (List.hd group).chosen group)
      groups
  in
  List.iter2
    (fun (id, ks, group) wire ->
      let batch =
        match group with [ _ ] -> None | _ -> Some (id, List.length group)
      in
      let answered_repo, answered_src, outcome =
        settle env ~now ~deadline group wire
      in
      let done_ =
        match outcome with
        | Source.Answered (answers, finish) ->
            complete_group ?batch env group ~start:now ~finish ~answered_repo
              ~answered_src answers
        | Source.Unavailable | Source.Timed_out _ ->
            List.map (unanswered ?batch env ~now ~deadline) group
      in
      List.iter2 (fun k r -> results.(k) <- r) ks done_)
    groups outcomes;
  apply_retries env ~deadline table results;
  let answered =
    Array.fold_right
      (fun r acc -> match r with Done d -> d :: acc | Blocked -> acc)
      results []
  in
  let blocked = issued - List.length answered in
  let finish_time =
    if blocked > 0 then deadline
    else List.fold_left (fun acc d -> Float.max acc d.finish) now answered
  in
  Scheduler.advance_to env.sched finish_time;
  let stale_hits, stale_ms =
    List.fold_left
      (fun (n, age) d ->
        match d.origin with
        | Trace.Stale a -> (n + 1, Float.max age a)
        | _ -> (n, age))
      (0, 0.0) answered
  in
  ( results,
    {
      execs_issued = issued;
      execs_answered = List.length answered;
      execs_blocked = blocked;
      tuples_shipped = List.fold_left (fun acc d -> acc + d.shipped) 0 answered;
      elapsed_ms = finish_time -. now;
      cache_hits =
        List.length (List.filter (fun d -> d.origin = Trace.Cache) answered);
      cache_stale_hits = stale_hits;
      cache_stale_ms = stale_ms;
      round_trips = List.length groups + !(env.extra_trips) - trips0;
    } )

(* Fold every exec-free subtree into materialized data: "processing as
   much of the query as is possible" (Section 1.3). *)
let rec fold_ready plan =
  match Plan.execs plan with
  | [] -> Plan.Mk_data (Plan.run_local plan)
  | _ -> Plan.map_children fold_ready plan

(* One round of a plan: issue the ready execs of [table] (the plan's,
   prepared), then substitute the answers into the plan and collect the
   blocked repositories and the version vector.  An answer its exec's
   reducer already ran through the exec's chain replaces the whole chain
   and exec; any other answer replaces the exec alone, and a blocked exec
   keeps its chain, so a partial answer's residual is the one the
   unreduced plan folds to.  The walk visits children left to right (it
   is a walk over [Plan.map_children]), but each exec is still looked up
   in the table, never matched by position. *)
let run_round env ~deadline table plan =
  let results, stats = issue_round env ~deadline table in
  let answer repo logical =
    match find_exec table repo logical with
    | Some k -> (
        match results.(k) with Done d -> Some d | Blocked -> None)
    | None -> None
  in
  let leaf repo logical =
    match answer repo logical with
    | Some d -> Plan.Mk_data d.value
    | None -> Plan.Exec (repo, logical)
  in
  let chain_answer p =
    match chain_exec p with
    | Some (repo, logical) -> answer repo logical
    | None -> None
  in
  let rec substitute = function
    | Plan.Exec (repo, logical) -> leaf repo logical
    | p -> (
        match chain_answer p with
        | Some d when d.reduced -> Plan.Mk_data d.value
        | Some _ | None -> Plan.map_children substitute p)
  in
  let substituted = substitute plan in
  (* the version vector records who actually answered — when a replica
     served the exec, pinning the primary's version here would make the
     staleness check (Section 4) watch the wrong repository *)
  let rec collect k blocked versions =
    if k < 0 then (blocked, versions)
    else
      match results.(k) with
      | Blocked -> collect (k - 1) (table.t_execs.(k).p_repo :: blocked) versions
      | Done d -> collect (k - 1) blocked (d.answered_by :: versions)
  in
  let blocked, versions = collect (Array.length results - 1) [] [] in
  (substituted, blocked, versions, stats)

(* Resolve semi-joins whose left side is fully materialized: compute the
   distinct keys and turn the node into a hash join over the reduced
   right exec. Bounded key lists; the wrapper's grammar is consulted and
   the filter dropped when refused. *)
let max_semijoin_keys = 1000

let rec resolve_semi_joins bindings plan =
  match plan with
  | Plan.Semi_join (l, (repo, rexpr), pairs) ->
      let l = resolve_semi_joins bindings l in
      if Plan.execs l <> [] || Plan.semi_joins l > 0 then
        Plan.Semi_join (l, (repo, rexpr), pairs)
      else
        let left_v = Plan.run_local l in
        let keys_for (lpath, _) =
          List.sort_uniq V.compare
            (List.map
               (fun elem -> Expr.eval_scalar elem (Expr.Attr lpath))
               (V.elements left_v))
        in
        let filters =
          List.map
            (fun ((_, rpath) as pair) ->
              Expr.Member (Expr.Attr rpath, V.bag (keys_for pair)))
            pairs
        in
        let small =
          List.for_all
            (fun (pair : string list * string list) ->
              List.length (keys_for pair) <= max_semijoin_keys)
            pairs
        in
        let reduced =
          match filters with
          | [] -> rexpr
          | first :: rest ->
              Expr.Select
                (rexpr, List.fold_left (fun acc f -> Expr.And (acc, f)) first rest)
        in
        let wrapper_accepts =
          match Expr.gets rexpr with
          | extent :: _ ->
              let b = binding_of bindings extent in
              Wrapper.accepts b.b_wrapper reduced
          | [] -> false
        in
        let final_expr =
          if small && wrapper_accepts then (
            Log.info (fun m ->
                m "semijoin: reducing exec(%s) with %d key filter(s)" repo
                  (List.length filters));
            reduced)
          else (
            Log.info (fun m ->
                m "semijoin: falling back to the unreduced exec(%s)" repo);
            rexpr)
        in
        Plan.Hash_join (Plan.Mk_data left_v, Plan.Exec (repo, final_expr), pairs)
  | _ -> Plan.map_children (resolve_semi_joins bindings) plan

let add_stats a b =
  {
    execs_issued = a.execs_issued + b.execs_issued;
    execs_answered = a.execs_answered + b.execs_answered;
    execs_blocked = a.execs_blocked + b.execs_blocked;
    tuples_shipped = a.tuples_shipped + b.tuples_shipped;
    elapsed_ms = a.elapsed_ms +. b.elapsed_ms;
    cache_hits = a.cache_hits + b.cache_hits;
    cache_stale_hits = a.cache_stale_hits + b.cache_stale_hits;
    cache_stale_ms = Float.max a.cache_stale_ms b.cache_stale_ms;
    round_trips = a.round_trips + b.round_trips;
  }

let zero_stats =
  {
    execs_issued = 0;
    execs_answered = 0;
    execs_blocked = 0;
    tuples_shipped = 0;
    elapsed_ms = 0.0;
    cache_hits = 0;
    cache_stale_hits = 0;
    cache_stale_ms = 0.0;
    round_trips = 0;
  }

(* The runtime's debug gate: report a plan's verdict before issuing
   anything. The verdict normally comes with the plan (the optimizer
   computed it); it is computed here only for plans the optimizer never
   saw. When the caller supplied no checker (standalone runtime use), one
   is derived from the bindings — wrappers and repositories are known,
   the schema is not. *)
let checker_of_bindings bindings =
  let find = Hashtbl.find_opt bindings in
  let repos =
    Hashtbl.fold
      (fun _ b acc -> (b.b_repo :: List.map fst b.b_replicas) @ acc)
      bindings []
  in
  Check.make
    ~wrapper_of:(fun ext -> Option.map (fun b -> b.b_wrapper) (find ext))
    ~repo_of:(fun ext -> Option.map (fun b -> b.b_repo) (find ext))
    ~repo_known:(fun r -> List.mem r repos)
    ()

let verify ?verdict env program =
  if env.check <> Check.Off then (
    let diags =
      match (verdict, env.checker) with
      | Some ds, _ -> ds
      | None, Some checker -> Check.check_plan checker program.g_plan
      | None, None ->
          Check.check_plan (checker_of_bindings program.g_bindings)
            program.g_plan
    in
    Check.report ~metrics:env.metrics diags;
    if env.check = Check.Enforce && Check.has_errors diags then
      raise (Check.Check_error (Check.errors diags)))

let run ?(timeout_ms = 1000.0) ?verdict ?(type_check = true) env program =
  let env = if type_check = env.type_check then env else { env with type_check } in
  verify ?verdict env program;
  let deadline = Scheduler.now env.sched +. timeout_ms in
  (* Rounds: each issues every ready exec in parallel, then resolves the
     semi-joins unlocked by the new data. A plan without semi-joins is
     exactly one round — the paper's model. *)
  let rec loop table plan stats_acc versions_acc =
    let substituted, blocked, versions, stats =
      run_round env ~deadline table plan
    in
    let stats_acc = add_stats stats_acc stats in
    let versions_acc = versions @ versions_acc in
    if blocked <> [] then (
      let degraded = Plan.degrade_semi_joins substituted in
      let folded = fold_ready degraded in
      let residual_logical = Plan.to_logical folded in
      let query = Decompile.decompile residual_logical in
      let unavailable = List.sort_uniq String.compare blocked in
      Log.info (fun m ->
          m "partial answer: %d execs blocked (%s)" (List.length blocked)
            (String.concat ", " unavailable));
      ( Partial
          {
            query;
            unavailable;
            versions = List.sort_uniq compare versions_acc;
          },
        stats_acc ))
    else if Plan.semi_joins substituted > 0 then
      let next = prepare_in program.g_bindings ~cache:(env.cache <> None)
          (resolve_semi_joins program.g_bindings substituted)
      in
      loop next.g_first next.g_plan stats_acc versions_acc
    else (
      Log.info (fun m ->
          m "executed %d execs: %d answered, %d tuples, %.1f ms"
            stats_acc.execs_issued stats_acc.execs_answered
            stats_acc.tuples_shipped stats_acc.elapsed_ms);
      (Complete (Plan.run_local substituted), stats_acc))
  in
  loop program.g_first program.g_plan zero_stats []

let execute ?timeout_ms ?verdict env plan =
  run ?timeout_ms ?verdict env
    (prepare_in env.bindings ~cache:(env.cache <> None) plan)
