(** Whole-federation static analysis: availability, pushdown and
    coverage, computed without contacting any source.

    Where {!Disco_check.Check} verifies one tree at a time, this module
    analyses a {e federation} — an ODL registry plus an OQL workload
    corpus — planned by the mediator's own {!Disco_core.Pipeline} with
    the mediator's default settings: every workload query is expanded,
    typed, compiled, located and optimized against an empty cost model
    (the paper's designed bias toward maximal pushdown), and the chosen
    logical plan is then interrogated instead of executed.

    Three families of facts come out:

    - {e Availability}: the minimal set of repositories each query
      contacts, and — replaying the runtime's replica-failover rule
      submit by submit — exactly which answer fragments survive each
      single-repository outage. A repository whose outage loses data for
      some query, with no replica covering it, is a single point of
      failure ([DISCO-A001]).
    - {e Pushdown profile}: which queries push entirely to their
      sources, which leave mediator-side work, and which grammar
      productions of each wrapper the workload can never reach
      ([DISCO-A002]) — dead capability that either documents an unused
      source feature or reveals a workload/capability mismatch.
    - {e Cross-subsystem consistency}: declared shard keys no workload
      predicate ever constrains, so partition pruning can never fire
      ([DISCO-A003]); index-backed lookups no query filters on
      ([DISCO-A004]); type maps and views naming attributes the schema
      does not provide ([DISCO-A005]); answer-cache key collisions
      between inequivalent queries ([DISCO-A006]).

    {b Diagnostic codes} ([A] codes are this module's; they share
    {!Disco_check.Check.diag} and its JSON rendering, so [discoctl lint
    --json] and [discoctl analyze --json] emit one schema):
    - [DISCO-A001] (warning) single point of failure: a repository with
      no covering replica whose outage loses answer fragments for at
      least one workload query.
    - [DISCO-A002] (warning) dead grammar productions: productions of a
      wrapper's capability grammar that no workload submit ever
      exercises.
    - [DISCO-A003] (warning) unconstrained shard key: a partitioned
      extent is scanned by the workload, but no predicate ever
      constrains its shard key, so every query scatters to all shards.
    - [DISCO-A004] (warning) unused index advertisement: an extent's
      wrapper advertises index-served lookups on an attribute no
      workload query filters on.
    - [DISCO-A005] (error) schema inconsistency: a view fails to parse,
      expand or type against the schema, or a type map binds a mediator
      attribute its extent's interface does not declare.
    - [DISCO-A006] (error) cache-key collision: two inequivalent
      submits normalize to the same answer-cache key, so one could be
      served the other's cached rows.

    The analysis is deterministic: reports and diagnostics are stably
    ordered, so [--json] output is diffable across runs. *)

module V := Disco_value.Value
module Registry := Disco_odl.Registry
module Expr := Disco_algebra.Expr
module Check := Disco_check.Check
module Catalog := Disco_catalog.Catalog

(** How the mediator would treat a workload query. *)
type query_class =
  | Invalid  (** fails parsing, expansion or typing — see diagnostics *)
  | Hybrid  (** outside the algebraic subset; evaluated hybrid *)
  | Pushed  (** the chosen plan is entirely submits (full pushdown) *)
  | Mixed  (** submits plus mediator-side operators *)

val class_name : query_class -> string

(** The effect of one single-repository outage on one query. Only
    outages that actually lose data are reported. *)
type outage = {
  o_down : string;  (** the repository taken down *)
  o_unavailable : string list;
      (** primary repositories whose submits go unanswered — what the
          runtime would report in [Partial.unavailable] *)
  o_fragments : string list;
      (** the lost work, decompiled to OQL (one per blocked submit) *)
}

type query_report = {
  q_loc : string;  (** [file:line] *)
  q_text : string;
  q_class : query_class;
  q_sources : string list;
      (** minimal repository set a complete answer contacts, sorted *)
  q_outages : outage list;  (** sorted by [o_down] *)
}

type wrapper_report = {
  w_object : string;  (** registry object name, e.g. [w0] *)
  w_constructor : string;
  w_extents : string list;  (** extents served, sorted *)
  w_submits : int;  (** workload submits routed through this wrapper *)
  w_dead : string list;
      (** grammar productions no workload submit exercises *)
}

type summary = {
  s_interfaces : int;
  s_extents : int;  (** top-level extents (shard children not counted) *)
  s_repositories : int;
  s_wrappers : int;
  s_views : int;
  s_queries : int;
}

type report = {
  r_summary : summary;
  r_queries : query_report list;  (** workload order *)
  r_wrappers : wrapper_report list;  (** sorted by object name *)
  r_spofs : string list;  (** single-point-of-failure repositories *)
  r_diags : (string * Check.diag) list;
      (** (file, diagnostic), sorted like {!Check.json_of_diags} *)
}

val queries_of_corpus : file:string -> string -> (string * string) list
(** Split an [.oql] corpus into [(loc, query)] pairs — one query per
    line, blank lines, [--] comments and [--@] directives skipped,
    [loc = file:lineno]. The same convention [discoctl lint] reads. *)

val analyze : ?workload:(string * string) list -> Registry.t -> report
(** [analyze ~workload reg] runs the whole analysis. [workload] is a
    list of [(filename, contents)] pairs of OQL corpora (split with
    {!queries_of_corpus}). Without a workload only the schema-side
    checks fire ([DISCO-A005], and [DISCO-A001] over whole-extent
    scans is skipped since there is nothing to lose). *)

(** {1 Pieces the property tests replay}

    The availability prediction must track the runtime {e exactly}:
    under a forced outage, the analyzer's predicted unavailable set and
    residual must match what {!Disco_core.Mediator.query} actually
    degrades to. These entry points expose the prediction on its own. *)

val plan_logical : Registry.t -> string -> (Expr.expr, string) result
(** Plan one OQL query exactly as {!analyze} does — through a fresh
    {!Disco_core.Pipeline} over [reg] — and return the chosen logical
    tree. [Error] carries the first failure. *)

val predict_unavailable :
  Registry.t -> down:(string -> bool) -> Expr.expr -> string list
(** The primary repositories whose submits go unanswered when the
    [down] repositories are out, replaying the runtime failover rule: a
    submit is blocked iff its primary repository is down {e and} every
    replica of its first-scanned extent is down too. Sorted, deduped —
    the runtime's [Partial.unavailable]. *)

val predicted_residual :
  resolve:(string -> V.t option) ->
  down:(string -> bool) ->
  Registry.t ->
  Expr.expr ->
  string option
(** The residual query the runtime would return under the outage:
    blocked submits stay symbolic, ready submits fold to the rows
    [resolve] provides (the test supplies the sources' ground-truth
    data), and the result decompiles to OQL. [None] when nothing is
    blocked — the answer would be complete. *)

val collision_diags :
  resolve:(string -> V.t option) ->
  (string * Expr.expr) list ->
  Check.diag list
(** The [DISCO-A006] check on its own: group [(repository, submit
    body)] pairs by answer-cache key and report groups whose members
    are not equivalent — proven by evaluating both on [resolve]-backed
    data. Exposed separately so tests can inject crafted collisions
    that no parsable corpus produces. *)

(** {1 Rendering} *)

val code_registry : (string * Check.severity * string) list
(** The analyzer's [DISCO-Axxx] codes, same shape as
    {!Check.code_registry}. *)

val diagnostics_doc : unit -> string
(** The generated [doc/diagnostics.md]: every [Exxx]/[Wxxx]/[Axxx] code
    with severity and summary, from {!Check.code_registry} and
    {!code_registry}. A test asserts the committed file matches. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable rendering ([discoctl analyze]). *)

val json_of_report : report -> string
(** Deterministic JSON object: [{"federation": .., "queries": [..],
    "wrappers": [..], "spofs": [..], "diagnostics": [..]}] where
    [diagnostics] is byte-compatible with [discoctl lint --json]
    ({!Check.json_of_diags}). *)

val publish : Catalog.t -> owner:string -> report -> unit
(** Register the availability findings in a catalog: one [Repository]
    entry per single point of failure, carrying the number of affected
    queries in [e_info] — so peers see fragility without re-running the
    analysis. *)
