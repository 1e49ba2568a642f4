(** The Disco mediator — the system's primary component (paper Figure 2).

    A mediator bundles the internal database (schema registry with
    interfaces, meta-extents, views, named objects), connections to
    simulated sources and wrappers, the learned cost model, a plan cache,
    and the query manager that drives parse → expand → compile → optimize
    → execute → (partial) answer.

    Typical setup, mirroring Section 2.1:

    {[
      let m = Mediator.create ~name:"m0" () in
      Mediator.register_source m ~name:"r0" source0;   (* simulated site *)
      Mediator.load_odl m {|
        r0 := Repository(host="rodin", name="db", address="123.45.6.7");
        w0 := WrapperPostgres();
        interface Person (extent person) {
          attribute String name;
          attribute Short salary; }
        extent person0 of Person wrapper w0 repository r0;
      |};
      match Mediator.query m "select x.name from x in person where x.salary > 10" with
      | { answer = Complete v; _ } -> ...
      | { answer = Partial _; _ } -> ...
    ]} *)

module V := Disco_value.Value
module Runtime := Disco_runtime.Runtime

exception Mediator_error of string

(** Semantics for queries touching unavailable sources (Section 4
    discusses the first four; Disco's contribution is [Partial_answers],
    and [Cached_fallback] is the answer-cache extension of its staleness
    discussion). *)
type semantics =
  | Partial_answers
      (** the answer is a query: partial evaluation (Disco's choice) *)
  | Wait_all
      (** classic distributed-DB semantics: no answer unless every source
          answers — the query outcome is {!Unavailable} *)
  | Null_sources
      (** "the data source can be considered to have no tuples" *)
  | Skip_sources
      (** "as if the data source objects which reference unavailable
          sources do not exist": implicit type extents range over
          available sources only *)
  | Cached_fallback of { max_stale_ms : float }
      (** partial-answer semantics, but execs to unavailable sources are
          answered from cached fragments no older than [max_stale_ms]
          virtual ms (requires a mediator created with [?cache]); the
          served staleness is reported in [outcome.answer_cache]. Only
          fragments with no eligible cache entry remain residual. *)

(** How the answer cache contributed to one outcome ([outcome.from_cache]
    reports the {e plan} cache; these fields report the {e answer}
    cache — the two are independent). *)
type answer_cache_use = {
  answer_hits : int;
      (** execs answered from cache at a fresh data version *)
  stale_hits : int;
      (** execs to unavailable sources served stale under
          {!Cached_fallback} *)
  stale_ms : float;  (** maximum staleness age served, virtual ms *)
}

type outcome = {
  answer : answer;
  stats : Runtime.stats;
  plan : Disco_physical.Plan.plan option;
      (** the physical plan, when the compiled path ran. [None] for
          hybrid-evaluated queries, whose fragments each have their own
          plan. *)
  from_cache : bool;
      (** the plan came from the plan cache. Always [false] for hybrid
          queries: their fragments' cache use shows in
          {!plan_cache_stats}, the [plan_cache.*] metrics and the
          trace. *)
  answer_cache : answer_cache_use;
  fallback : bool;
      (** a wrapper refused its expression at run time and the query (or,
          on the hybrid path, one of its fragments) was replanned without
          pushdown *)
}

and answer =
  | Complete of V.t
  | Partial of Runtime.partial
      (** the answer-as-query (see {!Disco_runtime.Runtime.partial}):
          the residual query, the repositories that did not answer, and
          the data versions of those that did. Render with
          {!answer_oql}; check staleness with {!stale_hint}. *)
  | Unavailable of string list
      (** [Wait_all] semantics with blocked sources *)

(** Plan-cache counters ({!plan_cache_stats}). *)
type plan_cache_stats = {
  p_hits : int;
  p_misses : int;
  p_size : int;
  p_capacity : int;
  p_evictions : int;
}

type t

(** Everything {!create} accepts, as one record. Build with
    [{ Config.default with ... }]. *)
module Config : sig
  type t = {
    clock : Disco_source.Clock.t option;
        (** [None]: a fresh virtual clock per mediator *)
    sched : Disco_source.Scheduler.t option;
        (** the time-and-execution scheduler every query runs on.
            [None] (the default) wraps the mediator's clock in the
            deterministic virtual scheduler — the historical
            single-threaded simulation, bit-for-bit.  Pass a
            {!Disco_source.Scheduler.wall} scheduler to read real time
            and issue each round's per-source batches in parallel on
            OCaml 5 domains (the serving mode); the clock is then
            unused. *)
    cost : Disco_cost.Cost_model.t option;
        (** [None]: a fresh (empty) learned cost model *)
    params : Disco_physical.Plan.params;
    plan_cache_capacity : int;
        (** bound of the LRU plan cache (default 128 entries) *)
    cache : Disco_cache.Answer_cache.t option;
        (** semantic answer cache: completed execs are recorded in it
            and later execs served from it (see
            {!Disco_cache.Answer_cache}); [None], the mediator never
            caches answers *)
    trace_sink : Disco_obs.Trace.sink option;
        (** called with the finished span tree of every query; [None]
            disables tracing entirely (no builder is ever allocated) *)
    metrics : Disco_obs.Metrics.t;
        (** registry receiving the mediator's counters (defaults to
            {!Disco_obs.Metrics.default}) *)
    batch : bool;
        (** per-source exec batching and shared-scan deduplication
            (default [true]): within an execution round, structurally
            identical execs are answered once, and execs bound for the
            same repository share one wrapper round-trip (one [base_ms],
            one jitter draw).  The optimizer costs plans batch-aware.
            [false] restores the historical one-call-per-exec transport
            bit-for-bit — answers, stats and the virtual clock are
            identical to pre-batching builds. *)
    check : Disco_check.Check.mode;
        (** static verification of plans ({!Disco_check.Check}): [Warn]
            (the default) runs the verifier over the optimizer's chosen
            plan only, caches its verdict with it, and reports that
            verdict on every execution (a plan the optimizer never saw,
            such as the capability fallback, is verified at execution),
            counting violations into [check.violations] /
            [check.warnings] metrics; [Enforce] instead chooses the
            cheapest plan without error diagnostics, verifying down the
            optimizer's ranking, and raises
            {!Disco_check.Check.Check_error} if a plan about to execute
            (or every candidate of a query) fails; [Off] skips
            verification. *)
    retry : Disco_runtime.Runtime.Retry.t option;
        (** deadline-aware retry scheduler
            ({!Disco_runtime.Runtime.Retry}): blocked execs are re-polled
            on exponential backoff within the query deadline, slow
            primaries are optionally hedged with a replica, and
            consistently-refusing sources trip a per-federation circuit
            breaker.  [None] (the default) reproduces the one-shot
            behavior bit-for-bit. *)
  }

  val default : t
end

(** Everything {!query} accepts besides the OQL text. Build with
    [{ Query_opts.default with ... }]. *)
module Query_opts : sig
  type t = {
    timeout_ms : float;  (** designated deadline, virtual ms *)
    semantics : semantics;
    type_check : bool;
        (** run-time source-type check — enable it to detect sources
            returning wrongly-typed tuples *)
    static_check : bool;
        (** run the OQL type checker before planning, rejecting
            ill-typed queries with {!Mediator_error} *)
  }

  val default : t
  (** 1000 virtual ms, [Partial_answers], both checks off. *)
end

val create : ?config:Config.t -> name:string -> unit -> t

val name : t -> string

val clock : t -> Disco_source.Clock.t

val scheduler : t -> Disco_source.Scheduler.t
(** The scheduler queries run on — the virtual wrap of {!clock} unless
    [Config.sched] supplied another. *)

val registry : t -> Disco_odl.Registry.t
val cost_model : t -> Disco_cost.Cost_model.t

val metrics : t -> Disco_obs.Metrics.t
(** The registry this mediator reports into. *)

val retry_policy : t -> Disco_runtime.Runtime.Retry.t option
(** The retry policy this mediator was created with, if any. *)

val breaker_snapshot : t -> (string * int * float option) list
(** Current circuit-breaker state, one row per source the breaker has
    seen: [(source id, consecutive failures, opened-at virtual time)].
    Empty until a retry policy with [breaker_threshold] records its
    first failure. *)

val answer_cache : t -> Disco_cache.Answer_cache.t option
val answer_cache_stats : t -> Disco_cache.Answer_cache.stats option

val register_source : t -> name:string -> Disco_source.Source.t -> unit
(** Attach a simulated source under a repository object name. Define the
    matching [name := Repository(...)] object in ODL (in either order —
    the binding is looked up at query time). Drops cached plans: the
    verifier's view of known repositories changed. *)

val register_wrapper : t -> name:string -> Disco_wrapper.Wrapper.t -> unit
(** Provide a custom wrapper object directly, bypassing the constructor
    table. Drops cached plans, whose pushdown and verdicts were decided
    against the previous wrapper. *)

val find_source : t -> string -> Disco_source.Source.t option

val declare_index :
  t ->
  repo:string ->
  table:string ->
  column:string ->
  kind:[ `Hash | `Sorted ] ->
  unit
(** Declare a source-side secondary index: builds the access path on the
    source's table ({!Disco_relation.Table.declare_index}) and tells the
    cost model that lookups on [column] at [repo] are index-served
    ({!Disco_cost.Cost_model.declare_index}), so the optimizer treats
    such submits as informed even before any call history exists. Also
    drops cached plans, whose estimates may have changed shape. Raises
    {!Mediator_error} if the source is missing or not relational, the
    table or column is absent, or the kind does not support the column
    type ([`Sorted] requires a numeric column). Without any declaration,
    answers, stats and the virtual clock are bit-for-bit unchanged. *)

val load_odl : t -> string -> unit
(** Parse and apply ODL text: interfaces, extents, views, and object
    definitions. [w := WrapperX();] resolves through
    {!Disco_wrapper.Wrapper.of_constructor_args} unless [w] was registered
    explicitly. Raises {!Mediator_error} (wrapping parse and registry
    errors) on failure. *)

val query : ?opts:Query_opts.t -> t -> string -> outcome
(** Run an OQL query ([opts] defaults to {!Query_opts.default}). Raises
    {!Mediator_error} on parse/expansion errors and on execution
    failures. An algebraic query is planned through the plan cache and
    run. Its entry is keyed on the query text exactly as received
    together with [static_check], so a hit skips parsing, expansion and
    compilation as well as optimization; under [Skip_sources] the key is
    the printed expansion instead, because which extents the expansion
    keeps depends on which sources are up at that instant. A query
    outside the algebra takes the hybrid path, where each closed
    algebraic fragment, a bare extent name included, is planned through
    the same cache (keyed on the fragment's printed text) and run once
    the same way, and the rest is evaluated on the mediator; the hybrid
    query itself adds no entry. A fragment that answers partially is
    replaced by its own residual query, so the hybrid answer is then the
    query with that residual in the fragment's place.
    When the mediator was created with a [trace_sink], the sink receives
    the query's span tree after the outcome is computed: phases parse →
    expand → compile → optimize → execute with one exec leaf per issued
    exec on a plan-cache miss, only optimize → execute on a hit, and one
    optimize/execute pair per hybrid fragment.
    Queries may run concurrently on one mediator, from several threads
    and domains (as [discoctl serve]'s workers do): the plan cache, cost
    model, breaker table, answer cache and source counters it shares
    are each safe to use at once. Two concurrent misses on one key may
    both plan it. Registering sources, wrappers, indexes or ODL while
    queries run is not supported. *)

val answer_oql : answer -> string
(** The OQL text of an answer: a collection literal for {!Complete}, the
    residual query for {!Partial} (delegates to
    {!Disco_runtime.Runtime.answer_oql} — the single renderer). Raises
    {!Mediator_error} for {!Unavailable}, which carries no answer. *)

val stale_hint : t -> answer -> string list
(** For a partial answer: the repositories that answered but whose data
    has already changed since — resubmitting would yield fresher data
    (Section 4's staleness check). Empty otherwise. *)

val typecheck : t -> string -> (Disco_odl.Otype.t, string) result
(** Statically type a query against the mediator schema without running
    it. *)

val validate_views : t -> (string * string) list
(** Type-check every view definition against the current schema;
    returns [(view, error)] pairs for the ones that no longer parse or
    type — the DBA's consistency check after schema evolution. *)

val resubmit : ?opts:Query_opts.t -> t -> answer -> outcome
(** Resubmit a (partial) answer as a new query (Section 4: "this partial
    answer could be submitted as a new query"). A [Complete] answer
    returns itself. *)

val resubmission_runner :
  ?opts:Query_opts.t -> t -> string -> Disco_cache.Resubmission.run_result
(** The [run] callback for {!Disco_cache.Resubmission.drain}: replays a
    residual OQL query through this mediator and classifies the result
    (counted as [resubmission.replays] / [resubmission.converged] in the
    metrics registry). With an answer cache attached, recovered data is
    folded into the cache as it arrives. *)

val record_partial : Disco_cache.Resubmission.t -> outcome -> int option
(** Enqueue an outcome's partial answer on a resubmission queue; [None]
    for complete answers ([Unavailable] outcomes carry no residual to
    replay either). *)

val explain : t -> string -> string
(** The physical plan {!query} would run (or the hybrid-evaluation
    notice), without executing it. It reads the plan cache under the
    same key as a [query] of the same text without [static_check], and
    fills it on a miss, so a later [query] of that text is a cache hit
    (and [explain] after such a [query] is one too); once a plan is
    cached [explain] prints it rather than what a fresh optimization
    would now choose. *)

val register_in_catalog : t -> Disco_catalog.Catalog.t -> unit
(** Advertise this mediator, its repositories and wrappers. *)

val source_stats : t -> (string * Disco_source.Source.stats) list
(** Cumulative per-repository call statistics (answered/refused calls,
    rows shipped, busy time), sorted by repository name. *)

val plan_cache_size : t -> int

val plan_cache_stats : t -> plan_cache_stats
(** Hit/miss/eviction counters of the LRU-bounded plan cache. An entry
    is keyed on a whole query's text and [static_check] flag, or on the
    printed expansion of a hybrid fragment or [Skip_sources] query
    (see {!query}). It holds the located expression, the optimizer's
    plan with its verdict, and the extents the plan scans, and is used
    only at the registry version it was made at: any ODL load replans
    it, and {!register_source}, {!register_wrapper} and {!declare_index}
    drop every entry. *)

val clear_plan_cache : t -> unit
(** Drop every cached plan {e and} reset the hit/miss counters. *)
