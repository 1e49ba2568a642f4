(** The mediator run-time system (paper Sections 3.3 and 4).

    Executes a physical plan: [exec] nodes are issued {e in parallel}
    against their sources at the current virtual time; calls to available
    sources complete at [now + latency], calls to unavailable sources
    block. "After a designated time period, query evaluation stops" — the
    runtime classifies sources, folds every answered subtree into data,
    converts the remainder back to a logical expression and then to OQL,
    and returns it as a {!Partial} answer. When every source answers, the
    mediator-side operators run locally and the answer is {!Complete}.

    Each [exec] that completes is recorded in the {!Disco_cost.Cost_model}
    with its elapsed time and row count (Section 3.3). *)

module Expr := Disco_algebra.Expr
module Ast := Disco_oql.Ast
module V := Disco_value.Value

exception Runtime_error of string
(** Raised when a wrapper refuses an expression at run time (a capability
    mismatch the optimizer should have prevented — the mediator retries
    with pushdown disabled), when an extent has no binding, or when a
    run-time type check fails. *)

(** How one extent reaches its data (assembled by the mediator from the
    registry: extent → wrapper object, repository object, map). *)
type binding = {
  b_extent : string;  (** mediator extent name *)
  b_repo : string;  (** primary repository object name *)
  b_source : Disco_source.Source.t;
  b_replicas : (string * Disco_source.Source.t) list;
      (** failover copies tried in order when the primary is down at
          issue time (replication extension; see DESIGN.md §4b) *)
  b_wrapper : Disco_wrapper.Wrapper.t;
  b_map : Disco_odl.Typemap.t;
  b_check : (V.t -> bool) option;
      (** run-time element type check (Section 2.1: "at run-time, the
          wrapper checks that these types are indeed the same") *)
}

type env

(** Deadline-aware retry policy (DESIGN.md §4g).  When attached to
    {!Config.t}, blocked execs do not finalize at issue time: each is
    re-polled on exponential backoff until it recovers, exhausts
    [max_attempts], or runs out of deadline — a source whose schedule
    flips up mid-query answers instead of forcing a partial answer.  The
    round's blocked execs are drained attempt by attempt, each pass in
    issue order: every exec of a round starts at the same instant and
    backs off by the same formula, so re-poll [k] of each lands on one
    instant, and this order is exactly the virtual-time order of an
    event loop.  [hedge_ms] additionally races a replica against a slow
    (or timed-out) primary; the first completion wins. *)
module Retry : sig
  type t = {
    initial_ms : float;  (** delay before the first re-poll *)
    multiplier : float;  (** backoff factor between re-polls (>= 1) *)
    max_attempts : int;  (** re-polls per exec; 0 disables re-polling *)
    hedge_ms : float option;
        (** when set, an exec whose primary answer would land after
            [issue + hedge_ms] also dials the first live replica at that
            instant and keeps the earlier completion *)
    breaker_threshold : int option;
        (** consecutive failures after which a source's circuit breaker
            opens; [None] disables the breaker *)
    breaker_cooldown_ms : float;
        (** how long an open breaker rejects re-polls/hedges before one
            half-open probe is allowed through *)
  }

  val make :
    ?initial_ms:float ->
    ?multiplier:float ->
    ?max_attempts:int ->
    ?hedge_ms:float ->
    ?breaker_threshold:int ->
    ?breaker_cooldown_ms:float ->
    unit ->
    t
  (** Defaults: 50 ms initial, multiplier 2, 4 attempts, no hedging, no
      breaker, 400 ms cooldown.  Raises [Invalid_argument] on
      non-positive [initial_ms], [multiplier < 1], negative
      [max_attempts]/[hedge_ms]/[breaker_cooldown_ms], or
      [breaker_threshold < 1]. *)

  val default : t
end

(** Per-source circuit breaker state, keyed by source id.  The mediator
    holds one per federation so breaker state persists across queries;
    it only gates re-polls and hedge candidates — the initial issue of
    an exec is never blocked (the first refusal per query must be
    observed to count failures). *)
module Breaker : sig
  type t

  val create : unit -> t

  val snapshot : t -> (string * int * float option) list
  (** [(source id, consecutive failures, opened-at virtual time)] for
      every source the breaker has seen, sorted by id.  [opened_at =
      None] means closed. *)
end

(** Everything the runtime needs besides the bindings, as one record —
    the single configuration surface [Mediator] builds internally. *)
module Config : sig
  type t = {
    clock : Disco_source.Clock.t;
    sched : Disco_source.Scheduler.t option;
        (** the time-and-execution scheduler the env runs on.  [None]
            (the default) wraps [clock] in the deterministic virtual
            scheduler — the historical single-threaded simulation,
            reproduced bit-for-bit.  Pass
            {!Disco_source.Scheduler.wall} to issue each round's
            per-source batches genuinely in parallel on OCaml 5 domains
            with simulated latencies becoming real wall-clock waits;
            [clock] is then unused. *)
    cost : Disco_cost.Cost_model.t;
    cache : Disco_cache.Answer_cache.t option;
        (** semantic answer cache: every completed exec is recorded
            under its (repository, normalized expression) key, and later
            execs whose key is cached at the source's current data
            version are answered without touching the source (shipping 0
            tuples) *)
    serve_stale_ms : float option;
        (** additionally answer execs to {e unavailable} sources from
            cached fragments no older than this — the mediator's
            [Cached_fallback] semantics; without it, blocked execs yield
            partial answers as usual *)
    trace : Disco_obs.Trace.t option;
        (** trace builder to receive one exec span per issued exec; when
            [None] the runtime never consults the cost model for
            predictions, so the untraced path is unchanged *)
    metrics : Disco_obs.Metrics.t;
        (** registry receiving [exec.origin.*], [exec.tuples_shipped],
            [runtime.batch.rounds] and [runtime.batch.dedup_hits] *)
    batch : bool;
        (** let execs share a round-trip: within a round, the execs the
            answer cache cannot serve are grouped by destination (chosen
            repository and wrapper) so each group rides one
            {!Disco_wrapper.Wrapper.execute_batch} round-trip, paying the
            source's [base_ms] (and a single jitter draw) once.  When
            [false], every group holds one exec.  That cap is the flag's
            only effect: structurally identical [(repo, expr)] execs are
            deduplicated either way (the answer is computed once and
            substituted everywhere), and every exec takes the same issue
            path. *)
    check : Disco_check.Check.mode;
        (** the debug gate: {!execute} reports every plan's static
            verdict before issuing anything. [Warn] (the default)
            reports it with {!Disco_check.Check.report} (counters and log
            lines); [Enforce] additionally raises
            {!Disco_check.Check.Check_error} on any error-severity
            diagnostic, refusing the plan before execution; [Off] skips
            the gate. The verdict is the optimizer's when the caller
            passes it with the plan; otherwise the gate computes it *)
    checker : Disco_check.Check.t option;
        (** the checker the gate computes verdicts with; when [None] one
            is derived from the bindings (wrappers and repositories
            known, no schema) *)
    retry : Retry.t option;
        (** deadline-aware retry scheduler; [None] (the default) is the
            historical one-shot behavior — blocked execs finalize at
            issue time — reproduced bit-for-bit *)
    breaker : Breaker.t option;
        (** circuit-breaker state to use (and mutate); when [None] a
            fresh table is created per env, so breaker state is
            per-query.  Pass a shared one to persist across queries. *)
  }

  val make :
    ?sched:Disco_source.Scheduler.t ->
    ?cache:Disco_cache.Answer_cache.t ->
    ?serve_stale_ms:float ->
    ?trace:Disco_obs.Trace.t ->
    ?metrics:Disco_obs.Metrics.t ->
    ?batch:bool ->
    ?check:Disco_check.Check.mode ->
    ?checker:Disco_check.Check.t ->
    ?retry:Retry.t ->
    ?breaker:Breaker.t ->
    clock:Disco_source.Clock.t ->
    cost:Disco_cost.Cost_model.t ->
    unit ->
    t
  (** [metrics] defaults to {!Disco_obs.Metrics.default}; [batch]
      defaults to [true]; [check] defaults to [Warn]; [retry] defaults
      to [None] (no re-polling, no hedging, no breaker). *)
end

val env : Config.t -> binding list -> env
(** One query's run-time state. The bindings are the ones {!execute}
    prepares its plan with; {!run} uses the program's own. *)

type partial = {
  query : Ast.query;
      (** the whole answer, as a query — resubmit it when sources
          recover (Section 4) *)
  unavailable : string list;  (** repositories that did not answer *)
  versions : (string * int) list;
      (** data versions of the sources that {e did} answer, for the
          staleness check of Section 4's discussion *)
}
(** The payload of a partial answer — shared verbatim with
    [Mediator.answer], so the residual-query renderer exists once. *)

type answer = Complete of V.t | Partial of partial

val answer_oql : answer -> string
(** The OQL text of an answer: a collection literal for {!Complete}, the
    residual query for {!Partial}. *)

(** Per-execution statistics (drives experiments E2/E4/E11). *)
type stats = {
  execs_issued : int;
  execs_answered : int;
  execs_blocked : int;
  tuples_shipped : int;
  elapsed_ms : float;  (** virtual time from issue to answer *)
  cache_hits : int;  (** execs answered from the cache at a fresh version *)
  cache_stale_hits : int;
      (** execs to unavailable sources answered from stale cache entries
          (only under [serve_stale_ms]) *)
  cache_stale_ms : float;  (** maximum staleness age served, virtual ms *)
  round_trips : int;
      (** wrapper round-trips attempted on the (simulated) wire — under
          the batched transport one round-trip can carry several execs,
          so this is the number the batching layer actually reduces *)
}

val zero_stats : stats

val add_stats : stats -> stats -> stats
(** Stats of two executions in sequence: counts and elapsed times add,
    [cache_stale_ms] keeps the maximum. *)

type program
(** A plan prepared to run any number of times (DESIGN.md §4m): its
    bindings by extent and, for each distinct [(repository, expression)]
    exec of its first round, the binding, the translated source
    expression, the answer renamer, the cost-model keys, (when prepared
    with an answer cache) the answer-cache key, and the reducer of its
    chain: the unary mediator operators directly above it, which a
    round runs over its answer as it lands (DESIGN.md §4p). Immutable, so
    concurrent runs may share one. Execs built at run time (semi-join
    reductions) are prepared when issued, by the same function. *)

val prepare :
  ?cache:Disco_cache.Answer_cache.t ->
  binding list ->
  Disco_physical.Plan.plan ->
  program
(** Never raises: an exec that cannot be prepared (no binding, an
    extent bound elsewhere, a failing translation) raises its error when
    {!run} reaches it, exactly where {!execute} would have. [cache] only
    says whether to make answer-cache keys; its contents are not read. *)

val run :
  ?timeout_ms:float ->
  ?verdict:Disco_check.Check.diag list ->
  ?type_check:bool ->
  env ->
  program ->
  answer * stats
(** Run a prepared program: per exec only the choice of a live copy, the
    answer-cache lookup, the wire call, the completion and the keyed
    cost-model record. The env's bindings are not used (the program
    carries its own). [type_check] (default [true]) applies the
    bindings' [b_check]s; [false] skips them. Otherwise as {!execute}. *)

val execute :
  ?timeout_ms:float ->
  ?verdict:Disco_check.Check.diag list ->
  env ->
  Disco_physical.Plan.plan ->
  answer * stats
(** [run env (prepare bindings plan)], with [env]'s bindings and answer
    cache. Whole queries and the mediator's hybrid fragments all run
    through {!run}. [timeout_ms] is the designated
    deadline (default 1000 virtual ms). Advances the env's clock to the
    completion (or deadline) time.

    Before issuing anything the gate ({!Config.check}) reports the plan's
    [verdict]: the diagnostics the optimizer already computed for it
    (its choice's [verdict]), which the mediator caches with the plan.
    Without [verdict] — a plan the optimizer never saw, such as the
    mediator's capability-fallback plan or a standalone call — the gate
    runs {!Disco_check.Check.check_plan} itself. Either way the report
    is the same: {!Disco_check.Check.report}, and under [Enforce] the
    refusal. *)
