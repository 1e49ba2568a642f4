module V = Disco_value.Value
module Registry = Disco_odl.Registry
module Shard = Disco_shard.Shard
module Odl = Disco_odl.Odl_parser
module Typemap = Disco_odl.Typemap
module Ast = Disco_oql.Ast
module Eval = Disco_oql.Eval
module Expr = Disco_algebra.Expr
module Rules = Disco_algebra.Rules
module Plan = Disco_physical.Plan
module Optimizer = Disco_optimizer.Optimizer
module Check = Disco_check.Check
module Cost_model = Disco_cost.Cost_model
module Runtime = Disco_runtime.Runtime
module Source = Disco_source.Source
module Clock = Disco_source.Clock
module Scheduler = Disco_source.Scheduler
module Wrapper = Disco_wrapper.Wrapper
module Catalog = Disco_catalog.Catalog
module Lru = Disco_cache.Lru
module Answer_cache = Disco_cache.Answer_cache
module Resubmission = Disco_cache.Resubmission
module Trace = Disco_obs.Trace
module Metrics = Disco_obs.Metrics

let log_src = Logs.Src.create "disco.mediator" ~doc:"Disco mediator"

module Log = (val Logs.src_log log_src)

exception Mediator_error of string

let mediator_error fmt = Format.kasprintf (fun s -> raise (Mediator_error s)) fmt

type semantics =
  | Partial_answers
  | Wait_all
  | Null_sources
  | Skip_sources
  | Cached_fallback of { max_stale_ms : float }

module Config = struct
  type t = {
    clock : Clock.t option;
    sched : Scheduler.t option;
    cost : Cost_model.t option;
    params : Plan.params;
    plan_cache_capacity : int;
    cache : Answer_cache.t option;
    trace_sink : Trace.sink option;
    metrics : Metrics.t;
    batch : bool;
    check : Check.mode;
    retry : Runtime.Retry.t option;
  }

  let default =
    {
      clock = None;
      sched = None;
      cost = None;
      params = Plan.default_params;
      plan_cache_capacity = 128;
      cache = None;
      trace_sink = None;
      metrics = Metrics.default;
      batch = true;
      check = Check.Warn;
      retry = None;
    }
end

module Query_opts = struct
  type t = {
    timeout_ms : float;
    semantics : semantics;
    type_check : bool;
    static_check : bool;
  }

  let default =
    {
      timeout_ms = 1000.0;
      semantics = Partial_answers;
      type_check = false;
      static_check = false;
    }
end

type answer =
  | Complete of V.t
  | Partial of Runtime.partial
  | Unavailable of string list

type answer_cache_use = {
  answer_hits : int;
  stale_hits : int;
  stale_ms : float;
}

type outcome = {
  answer : answer;
  stats : Runtime.stats;
  plan : Plan.plan option;
  from_cache : bool;
  answer_cache : answer_cache_use;
  fallback : bool;
}

type plan_cache_stats = {
  p_hits : int;
  p_misses : int;
  p_size : int;
  p_capacity : int;
  p_evictions : int;
}

(* A plan-cache key. A whole query is keyed on its text as received and
   its [static_check] flag, so a hit needs no front-end work. A hybrid
   fragment, and a [Skip_sources] query (whose expansion depends on which
   sources are up at that instant), is keyed on its printed expansion. *)
type plan_key = Text of string * bool | Expansion of string

(* What running a plan needs that depends only on the plan and the
   federation, made once: the number of shard children it scans (for the
   scatter-gather round's span) and the plan prepared over the bindings
   of its extents — or the error building a binding raised, raised again
   by each run. *)
type prepared = { shards : int; program : (Runtime.program, exn) result }

(* Everything derived from a key, valid while the registry stays at
   [c_version] and no source, wrapper or index is registered (each
   clears the cache): the located expression (replanned without pushdown
   on a capability fallback), the optimizer's choice with its verdict (so
   the runtime gate reports the verdict without re-verifying the plan),
   and the plan prepared to run. *)
type cached_plan = {
  c_located : Expr.expr;
  c_choice : Optimizer.choice;
  c_prepared : prepared;
  c_version : int;
}

type t = {
  m_name : string;
  registry : Registry.t;
  clock : Clock.t;
  sched : Scheduler.t;
  cost : Cost_model.t;
  sources : (string, Source.t) Hashtbl.t;
  pipeline : Pipeline.t;
  plan_cache : (plan_key, cached_plan) Lru.t;
  plan_lock : Mutex.t;
      (* one mediator serves queries from several threads and domains:
         this guards [plan_cache], and is held only across its own reads
         and writes, never while planning *)
  plan_hits : int Atomic.t;
  plan_misses : int Atomic.t;
  cache : Answer_cache.t option;
  trace_sink : Trace.sink option;
  metrics : Metrics.t;
  batch : bool;
  check : Check.mode;
  retry : Runtime.Retry.t option;
  breaker : Runtime.Breaker.t;
      (* one breaker table per federation, threaded into every runtime
         env so circuit state persists across queries *)
}

let create ?(config = Config.default) ~name () =
  let clock = Option.value config.Config.clock ~default:(Clock.create ()) in
  let registry = Registry.create () in
  let cost = Option.value config.Config.cost ~default:(Cost_model.create ()) in
  let sources = Hashtbl.create 16 in
  {
    m_name = name;
    registry;
    clock;
    sched =
      Option.value config.Config.sched ~default:(Scheduler.of_clock clock);
    cost;
    sources;
    pipeline =
      Pipeline.create ~source_known:(Hashtbl.mem sources)
        ~params:config.Config.params ~metrics:config.Config.metrics
        ~batch:config.Config.batch ~check:config.Config.check ~cost registry;
    plan_cache = Lru.create ~capacity:config.Config.plan_cache_capacity ();
    plan_lock = Mutex.create ();
    plan_hits = Atomic.make 0;
    plan_misses = Atomic.make 0;
    cache = config.Config.cache;
    trace_sink = config.Config.trace_sink;
    metrics = config.Config.metrics;
    batch = config.Config.batch;
    check = config.Config.check;
    retry = config.Config.retry;
    breaker = Runtime.Breaker.create ();
  }

let name t = t.m_name
let clock t = t.clock
let scheduler t = t.sched
let registry t = t.registry
let cost_model t = t.cost
let answer_cache t = t.cache
let answer_cache_stats t = Option.map Answer_cache.stats t.cache
let metrics t = t.metrics
let retry_policy t = t.retry
let breaker_snapshot t = Runtime.Breaker.snapshot t.breaker
let with_plans t f = Mutex.protect t.plan_lock (fun () -> f t.plan_cache)
let clear_plans t = with_plans t Lru.clear

(* A new source or wrapper changes what [can_push] and the verifier
   resolve, so cached plans and their verdicts no longer hold. *)
let register_source t ~name source =
  Hashtbl.replace t.sources name source;
  clear_plans t

let register_wrapper t ~name wrapper =
  Pipeline.register_wrapper t.pipeline ~name wrapper;
  clear_plans t

let find_source t name = Hashtbl.find_opt t.sources name

let declare_index t ~repo ~table ~column ~kind =
  let module Table = Disco_relation.Table in
  let module Index = Disco_relation.Index in
  let module Schema = Disco_relation.Schema in
  match Hashtbl.find_opt t.sources repo with
  | None -> mediator_error "declare_index: no source registered as %s" repo
  | Some source -> (
      match Source.kind source with
      | Source.Key_value _ | Source.Flat_file _ | Source.Text _ ->
          mediator_error "declare_index: source %s is not relational" repo
      | Source.Relational db -> (
          match Disco_relation.Database.find_table db table with
          | None ->
              mediator_error "declare_index: %s has no table named %s" repo
                table
          | Some tbl -> (
              let ikind =
                match kind with `Hash -> Index.Hash | `Sorted -> Index.Sorted
              in
              match Table.declare_index tbl ~column ikind with
              | () ->
                  Cost_model.declare_index t.cost ~repo ~attr:column ~kind;
                  (* estimates for this repo just changed shape *)
                  clear_plans t
              | exception Schema.Schema_error m ->
                  mediator_error "declare_index: %s" m)))

let load_odl t text =
  match Odl.load t.registry text with
  | () -> ()
  | exception Registry.Odl_error m -> mediator_error "ODL error: %s" m
  | exception Typemap.Map_error m -> mediator_error "map error: %s" m
  | exception Disco_lex.Lexer.Error (m, pos) ->
      mediator_error "ODL parse error at offset %d: %s" pos m

(* -- name resolution -- *)

(* A binding carries its extent's run-time type check; a query without
   [type_check] runs with the checks off. *)
let binding_for t extent_name =
  match Registry.find_extent t.registry extent_name with
  | None -> mediator_error "no extent named %s" extent_name
  | Some ext -> (
      match
        ( find_source t ext.Registry.me_repository,
          Pipeline.wrapper_object t.pipeline ext.Registry.me_wrapper )
      with
      | None, _ ->
          mediator_error "repository %s of extent %s has no attached source"
            ext.Registry.me_repository extent_name
      | _, None ->
          mediator_error "wrapper %s of extent %s cannot be constructed"
            ext.Registry.me_wrapper extent_name
      | Some source, Some wrapper ->
          let replicas =
            List.filter_map
              (fun repo ->
                match find_source t repo with
                | Some src -> Some (repo, src)
                | None ->
                    mediator_error
                      "replica repository %s of extent %s has no attached \
                       source"
                      repo extent_name)
              ext.Registry.me_replicas
          in
          {
            Runtime.b_extent = extent_name;
            b_repo = ext.Registry.me_repository;
            b_source = source;
            b_replicas = replicas;
            b_wrapper = wrapper;
            b_map = ext.Registry.me_map;
            b_check =
              Some
                (fun v ->
                  Registry.struct_conforms t.registry ext.Registry.me_interface
                    v);
          })

(* Cached_fallback is partial-answer semantics with the runtime allowed
   to answer blocked execs from cached fragments within the staleness
   budget. *)
let serve_stale_of = function
  | Cached_fallback { max_stale_ms } -> Some max_stale_ms
  | Partial_answers | Wait_all | Null_sources | Skip_sources -> None

(* The per-query runtime env. Programs carry their own bindings. *)
let runtime_env t ~semantics ~tr =
  Runtime.env
    (Runtime.Config.make ~sched:t.sched ?cache:t.cache
       ?serve_stale_ms:(serve_stale_of semantics)
       ?trace:tr ~metrics:t.metrics ~batch:t.batch ~check:t.check
       ~checker:(Pipeline.checker t.pipeline) ?retry:t.retry ~breaker:t.breaker
       ~clock:t.clock ~cost:t.cost ())
    []

(* -- tracing helpers --

   [tr] is [Some builder] only when the mediator was created with a
   trace sink; the [None] path never touches the clock or allocates, so
   disabled tracing costs nothing. *)

let in_span t tr name f =
  match tr with
  | None -> f ()
  | Some b -> (
      Trace.enter b ~now:(Scheduler.now t.sched) name;
      match f () with
      | r ->
          Trace.leave b ~now:(Scheduler.now t.sched);
          r
      | exception e ->
          Trace.leave b ~now:(Scheduler.now t.sched);
          raise e)

let span_meta tr k v = Option.iter (fun b -> Trace.meta b k v) tr

(* The runtime binds exactly the extents the plan's execs scan. *)
let prepare t plan =
  let extents =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, e) -> Expr.gets e) (Plan.all_source_exprs plan))
  in
  {
    shards =
      List.length
        (List.filter (fun name -> Pipeline.shard_of t.pipeline name <> None)
           extents);
    program =
      (match List.map (binding_for t) extents with
      | bindings -> Ok (Runtime.prepare ?cache:t.cache bindings plan)
      | exception (Mediator_error _ as e) -> Error e);
  }

(* -- answers -- *)

let cache_use_of (stats : Runtime.stats) =
  {
    answer_hits = stats.Runtime.cache_hits;
    stale_hits = stats.Runtime.cache_stale_hits;
    stale_ms = stats.Runtime.cache_stale_ms;
  }

let no_cache_use = { answer_hits = 0; stale_hits = 0; stale_ms = 0.0 }

let eval_env t =
  Eval.env ~interface_names:(Registry.interface_names t.registry) ()

(* The runtime and the mediator share one partial-answer payload
   ([Runtime.partial]); converting is constructor renaming only. *)
let answer_of_runtime = function
  | Runtime.Complete v -> Complete v
  | Runtime.Partial p -> Partial p

let runtime_of_answer = function
  | Complete v -> Some (Runtime.Complete v)
  | Partial p -> Some (Runtime.Partial p)
  | Unavailable _ -> None

let answer_oql answer =
  match runtime_of_answer answer with
  | Some a -> Runtime.answer_oql a
  | None -> mediator_error "no answer to render: every source unavailable"

(* The staleness check of Section 4: which sources that answered have
   already changed their data? Computed on demand from the versions the
   partial answer recorded. *)
let stale_hint t = function
  | Complete _ | Unavailable _ -> []
  | Partial { Runtime.versions; _ } ->
      List.filter_map
        (fun (repo, recorded_version) ->
          match find_source t repo with
          | Some s when Source.data_version s <> recorded_version -> Some repo
          | Some _ | None -> None)
        versions

(* Apply the chosen unavailable-data semantics to a runtime partial
   answer. *)
let apply_semantics t semantics answer =
  match (semantics, answer) with
  | (Partial_answers | Skip_sources | Cached_fallback _), a -> a
  | Wait_all, Partial { Runtime.unavailable; _ } -> Unavailable unavailable
  | Null_sources, Partial { Runtime.query = residual; _ } -> (
      (* unavailable sources contribute no tuples: replace the residual
         extents with empty bags and finish locally *)
      let emptied =
        Expand.substitute_collections
          (fun name ->
            if Registry.find_extent t.registry name <> None then
              Some (Ast.Const (V.Bag []))
            else None)
          residual
      in
      match Eval.eval (eval_env t) emptied with
      | v -> Complete v
      | exception Eval.Eval_error m ->
          mediator_error "null-semantics evaluation failed: %s" m)
  | (Wait_all | Null_sources), a -> a

(* -- planning and running: the one path every algebraic query takes --

   Whole compiled queries, hybrid fragments and [explain] all plan
   through [plan] (a whole query's hit goes to [plan_hit] before any
   front-end work) and execute through [run], so each shares the plan
   cache, the stage spans and the capability fallback. *)

(* The entry cached under [key], if it was made at the current registry
   version. Every query looks here, so the lock is taken without a
   closure. *)
let cached t key =
  Mutex.lock t.plan_lock;
  let found = Lru.find t.plan_cache key in
  Mutex.unlock t.plan_lock;
  match found with
  | Some entry when entry.c_version = Registry.version t.registry -> Some entry
  | Some _ | None -> None

let plan_hit t ~tr entry =
  in_span t tr "optimize" (fun () ->
      Atomic.incr t.plan_hits;
      Metrics.incr t.metrics "plan_cache.hit";
      span_meta tr "plan_cache" "hit";
      (entry, true))

(* The plan-cache entry for [located] under [key], optimized and cached
   on a miss. Returns the entry and whether it came from the cache. *)
let plan t ~tr ~key located =
  match cached t key with
  | Some entry -> plan_hit t ~tr entry
  | None ->
      in_span t tr "optimize" (fun () ->
          Atomic.incr t.plan_misses;
          Metrics.incr t.metrics "plan_cache.miss";
          span_meta tr "plan_cache" "miss";
          let choice = Pipeline.optimize t.pipeline located in
          span_meta tr "alternatives"
            (string_of_int choice.Optimizer.alternatives);
          span_meta tr "est_time_ms"
            (Printf.sprintf "%.3f" choice.Optimizer.cost.Plan.time_ms);
          let entry =
            {
              c_located = located;
              c_choice = choice;
              c_prepared = prepare t choice.Optimizer.plan;
              c_version = Registry.version t.registry;
            }
          in
          with_plans t (fun plans -> Lru.add plans key entry);
          (entry, false))

(* Execute a planned query. The outcome carries the runtime's answer,
   before [semantics] is applied to it. When a wrapper refuses its
   expression at run time, the located expression is replanned without
   pushdown and run instead. *)
let run t ~timeout_ms ~type_check ~semantics ~tr (entry, from_cache) =
  let { c_located; c_choice = { Optimizer.plan; verdict; _ }; c_prepared; _ } =
    entry
  in
  let env = runtime_env t ~semantics ~tr in
  let execute ?verdict plan { shards; program } =
    let program = Result.fold ~ok:Fun.id ~error:raise program in
    let issue () = Runtime.run ~timeout_ms ?verdict ~type_check env program in
    let round () =
      if shards = 0 then issue ()
      else (
        (* the scatter-gather round over a partitioned extent gets its
           own span so traces show the fan-out width *)
        Metrics.incr t.metrics "shard.rounds";
        in_span t tr "shard" (fun () ->
            span_meta tr "shards" (string_of_int shards);
            issue ()))
    in
    (* execution-layer failures (bad maps, misbehaving wrappers) surface
       as clean mediator errors, never raw engine exceptions *)
    match in_span t tr "execute" round with
    | answer, stats ->
        {
          answer = answer_of_runtime answer;
          stats;
          plan = Some plan;
          from_cache;
          answer_cache = cache_use_of stats;
          fallback = false;
        }
    | exception Plan.Physical_error m -> mediator_error "execution failed: %s" m
    | exception Expr.Algebra_error m -> mediator_error "execution failed: %s" m
    | exception V.Type_error m -> mediator_error "execution failed: %s" m
  in
  match execute ?verdict plan c_prepared with
  | outcome -> outcome
  | exception Runtime.Runtime_error reason ->
      (* a wrapper refused its expression: replan without pushdown *)
      Log.warn (fun m -> m "capability fallback: %s" reason);
      Metrics.incr t.metrics "mediator.capability_fallback";
      let conservative =
        in_span t tr "replan" (fun () ->
            Plan.implement
              (Rules.normalize ~can_push:Rules.push_none c_located))
      in
      {
        (execute conservative (prepare t conservative)) with
        from_cache = false;
        fallback = true;
      }

(* -- the hybrid path: full OQL with engine-executed fragments --

   A query outside the algebraic subset (aggregates, correlated
   subqueries, quantifiers, order by) still contains closed fragments
   that ARE algebraic; each maximal such fragment is planned and run like
   a compiled query — so capability pushdown and the plan cache keep
   working — and the rest is evaluated on the mediator. A bare extent is
   a fragment too, and a fragment that answers partially is replaced by
   its own residual, so each fragment runs once. Fragments run as
   successive parallel rounds against the virtual clock. *)

let hybrid_outcome t ~timeout_ms ~type_check ~semantics ~tr expanded =
  (match
     List.find_opt
       (fun name -> Registry.find_extent t.registry name = None)
       (Ast.free_collections expanded)
   with
  | Some unknown -> mediator_error "unresolved name %s after expansion" unknown
  | None -> ());
  span_meta tr "mode" "hybrid";
  let stats_acc = ref Runtime.zero_stats in
  let blocked_repos = ref [] in
  let fallback = ref false in
  let try_fragment ~free sub =
    (* every free name was checked above to be an extent *)
    if free = [] then None
    else
      match Pipeline.compile t.pipeline sub with
      | Error _ -> None
      | Ok located -> (
          let o =
            run t ~timeout_ms ~type_check ~semantics ~tr
              (plan t ~tr ~key:(Expansion (Ast.to_string sub)) located)
          in
          stats_acc := Runtime.add_stats !stats_acc o.stats;
          fallback := !fallback || o.fallback;
          match o.answer with
          | Complete v -> Some (Ast.Const v)
          | Partial { Runtime.query; unavailable; _ } ->
              (* the fragment's own residual stands in for it, closed
                 because the fragment was *)
              blocked_repos := unavailable @ !blocked_repos;
              Some query
          | Unavailable unavailable ->
              blocked_repos := unavailable @ !blocked_repos;
              None)
  in
  let substituted = Expand.map_closed_subqueries try_fragment expanded in
  let stats = !stats_acc in
  let answer =
    if !blocked_repos = [] then
      (* every extent was inside a fragment that answered *)
      match Eval.eval (eval_env t) substituted with
      | v -> Complete v
      | exception Eval.Eval_error m -> mediator_error "evaluation failed: %s" m
    else
      apply_semantics t semantics
        (Partial
           {
             Runtime.query = substituted;
             unavailable = List.sort_uniq String.compare !blocked_repos;
             versions = [];
           })
  in
  {
    answer;
    stats;
    plan = None;
    from_cache = false;
    answer_cache = cache_use_of stats;
    fallback = !fallback;
  }

(* -- entry points -- *)

let front_message = function
  | Pipeline.Parse_error (pos, m) ->
      Fmt.str "OQL parse error at offset %d: %s" pos m
  | Pipeline.Expand_error m -> m
  | Pipeline.Type_error m -> "type error: " ^ m

let front_exn ?span ?typecheck t oql =
  match Pipeline.front ?span ?typecheck t.pipeline oql with
  | Ok expanded -> expanded
  | Error e -> mediator_error "%s" (front_message e)

(* Skip_sources: drop extents whose source is down right now, before
   planning — "as if the data source objects ... do not exist". An extent
   with replicas is only skipped when every copy is down. *)
let apply_skip t expanded =
  let now = Scheduler.now t.sched in
  let copy_up repo =
    match find_source t repo with
    | Some source -> Source.is_up source now
    | None -> false
  in
  Expand.substitute_collections
    (fun name ->
      match Registry.find_extent t.registry name with
      | None -> None
      | Some ext ->
          if
            List.exists copy_up
              (ext.Registry.me_repository :: ext.Registry.me_replicas)
          then None
          else Some (Ast.Const (V.Bag [])))
    expanded

(* A whole query's plan. A hit under its text at the current registry
   version goes straight to the cached entry, with no parse, expand,
   compile or printing. Otherwise the query is parsed, expanded and
   compiled, and planned under its text (or, under [Skip_sources], its
   printed expansion); [Error] carries the expansion of a query outside
   the algebra, for the hybrid path, which adds no whole-query entry. *)
let plan_query t ~tr ~static_check ~skip oql =
  let key = if skip then None else Some (Text (oql, static_check)) in
  match Option.bind key (cached t) with
  | Some entry -> Ok (plan_hit t ~tr entry)
  | None -> (
      let expanded =
        front_exn
          ~span:{ Pipeline.span = (fun name f -> in_span t tr name f) }
          ?typecheck:(if static_check then Some `Parsed else None)
          t oql
      in
      let expanded = if skip then apply_skip t expanded else expanded in
      match
        in_span t tr "compile" (fun () -> Pipeline.compile t.pipeline expanded)
      with
      | Ok located ->
          let key =
            match key with
            | Some key -> key
            | None -> Expansion (Ast.to_string expanded)
          in
          Ok (plan t ~tr ~key located)
      | Error reason -> Error (expanded, reason))

let typecheck t oql =
  match Pipeline.parse oql with
  | Ok ast ->
      Disco_oql.Typecheck.check
        (Disco_oql.Typecheck.env_of_registry t.registry)
        ast
  | Error e -> Error (front_message e)

let validate_views t =
  List.filter_map
    (fun name ->
      match
        Disco_oql.Typecheck.check
          (Disco_oql.Typecheck.env_of_registry t.registry)
          (Ast.Ident name)
      with
      | Ok _ -> None
      | Error m -> Some (name, m))
    (Registry.view_names t.registry)

let query ?(opts = Query_opts.default) t oql =
  let { Query_opts.timeout_ms; semantics; type_check; static_check } = opts in
  Log.info (fun m -> m "[%s] query: %s" t.m_name oql);
  Metrics.incr t.metrics "mediator.queries";
  let tr =
    Option.map
      (fun _ -> Trace.make ~query:oql ~now:(Scheduler.now t.sched))
      t.trace_sink
  in
  let outcome =
    let skip =
      match semantics with
      | Skip_sources -> true
      | Partial_answers | Wait_all | Null_sources | Cached_fallback _ -> false
    in
    match plan_query t ~tr ~static_check ~skip oql with
    | Ok planned ->
        let outcome = run t ~timeout_ms ~type_check ~semantics ~tr planned in
        { outcome with answer = apply_semantics t semantics outcome.answer }
    | Error (expanded, _) ->
        hybrid_outcome t ~timeout_ms ~type_check ~semantics ~tr expanded
  in
  (match outcome.answer with
  | Complete _ -> Metrics.incr t.metrics "mediator.answers.complete"
  | Partial _ -> Metrics.incr t.metrics "mediator.answers.partial"
  | Unavailable _ -> Metrics.incr t.metrics "mediator.answers.unavailable");
  Metrics.observe t.metrics "query.elapsed_virtual_ms"
    outcome.stats.Runtime.elapsed_ms;
  (match (tr, t.trace_sink) with
  | Some b, Some sink ->
      span_meta tr "answer"
        (match outcome.answer with
        | Complete _ -> "complete"
        | Partial _ -> "partial"
        | Unavailable _ -> "unavailable");
      span_meta tr "execs"
        (string_of_int outcome.stats.Runtime.execs_answered);
      span_meta tr "tuples_shipped"
        (string_of_int outcome.stats.Runtime.tuples_shipped);
      if outcome.fallback then span_meta tr "fallback" "capability";
      sink (Trace.finish b ~now:(Scheduler.now t.sched))
  | _ -> ());
  outcome

let resubmit ?opts t answer =
  match answer with
  | Complete v ->
      {
        answer = Complete v;
        stats = Runtime.zero_stats;
        plan = None;
        from_cache = false;
        answer_cache = no_cache_use;
        fallback = false;
      }
  | Partial p -> query ?opts t (Ast.to_string p.Runtime.query)
  | Unavailable repos ->
      mediator_error "nothing to resubmit: no answer from %s"
        (String.concat ", " repos)

(* Feed the resubmission manager: replay a residual query and classify
   the result. Records fresh data into the answer cache as a side effect
   when the mediator runs with one. *)
let resubmission_runner ?opts t oql =
  Metrics.incr t.metrics "resubmission.replays";
  match (query ?opts t oql).answer with
  | Complete _ ->
      Metrics.incr t.metrics "resubmission.converged";
      Resubmission.Run_complete
  | Partial p ->
      Resubmission.Run_partial
        { oql = Ast.to_string p.Runtime.query; unavailable = p.Runtime.unavailable }
  | Unavailable unavailable -> Resubmission.Run_partial { oql; unavailable }

let record_partial resubmissions outcome =
  match outcome.answer with
  | Partial p ->
      Some
        (Resubmission.record resubmissions
           ~oql:(Ast.to_string p.Runtime.query)
           ~unavailable:p.Runtime.unavailable)
  | Complete _ | Unavailable _ -> None

let explain t oql =
  match plan_query t ~tr:None ~static_check:false ~skip:false oql with
  | Ok ({ c_choice = choice; _ }, _) ->
      Fmt.str "plan (%d alternatives, est. %.3f ms, %.1f rows shipped):@\n%s"
        choice.Optimizer.alternatives choice.Optimizer.cost.Plan.time_ms
        choice.Optimizer.cost.Plan.shipped
        (Plan.to_string choice.Optimizer.plan)
  | Error (_, reason) -> Fmt.str "hybrid evaluation (%s)" reason

let register_in_catalog t catalog =
  Catalog.register catalog
    {
      Catalog.e_kind = Catalog.Mediator;
      e_name = t.m_name;
      e_owner = t.m_name;
      e_info =
        [
          ("interfaces", string_of_int (List.length (Registry.interface_names t.registry)));
          ("extents", string_of_int (List.length (Registry.all_extents t.registry)));
        ];
    };
  Hashtbl.iter
    (fun name source ->
      Catalog.register catalog
        {
          Catalog.e_kind = Catalog.Repository;
          e_name = name;
          e_owner = t.m_name;
          e_info =
            [
              ("host", (Source.addr source).Source.host);
              ("db", (Source.addr source).Source.db_name);
            ];
        })
    t.sources;
  List.iter
    (fun wname ->
      match Registry.find_object t.registry wname with
      | Some obj
        when String.length obj.Registry.obj_constructor >= 7
             && String.sub obj.Registry.obj_constructor 0 7 = "Wrapper" ->
          Catalog.register catalog
            {
              Catalog.e_kind = Catalog.Wrapper;
              e_name = wname;
              e_owner = t.m_name;
              e_info = [ ("constructor", obj.Registry.obj_constructor) ];
            }
      | Some _ | None -> ())
    (Registry.object_names t.registry);
  (* partitioned extents publish their layout so peers can see how a
     logical collection scales out *)
  List.iter
    (fun me ->
      match me.Registry.me_partition with
      | None -> ()
      | Some p ->
          Catalog.register catalog
            {
              Catalog.e_kind = Catalog.Extent;
              e_name = me.Registry.me_name;
              e_owner = t.m_name;
              e_info =
                [
                  ("interface", me.Registry.me_interface);
                  ("key", p.Shard.p_key);
                  ("scheme", Fmt.str "%a" Shard.pp_scheme p.Shard.p_scheme);
                  ("shards", string_of_int (List.length p.Shard.p_shards));
                  ( "repositories",
                    String.concat " "
                      (List.map
                         (fun s -> s.Shard.s_repository)
                         p.Shard.p_shards) );
                ];
            })
    (Registry.all_extents t.registry)

let source_stats t =
  Hashtbl.fold (fun name src acc -> (name, Source.stats src) :: acc) t.sources []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let plan_cache_size t = with_plans t Lru.length

let plan_cache_stats t =
  with_plans t @@ fun plans ->
  {
    p_hits = Atomic.get t.plan_hits;
    p_misses = Atomic.get t.plan_misses;
    p_size = Lru.length plans;
    p_capacity = Lru.capacity plans;
    p_evictions = Lru.evictions plans;
  }

let clear_plan_cache t =
  clear_plans t;
  Atomic.set t.plan_hits 0;
  Atomic.set t.plan_misses 0