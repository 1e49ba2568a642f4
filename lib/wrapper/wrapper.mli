(** The wrapper interface and the built-in wrapper implementations.

    A wrapper (paper Sections 1.4 and 3.2) advertises its functionality as
    a {!Grammar.t} (the [submit-functionality] call) and executes logical
    expressions against a data source, translating them to the source's
    native operations and reformatting answers. Expressions arrive in the
    {e source} name space — the mediator's [exec] applies the extent map
    before calling ({!Translate}).

    Built-in wrappers, by decreasing capability. The relational ones
    are each their grammar: an expression the grammar accepts runs on
    the one staged SQL path ({!Sqlgen}, then the source's columnar
    engine), and any other is refused.
    - {!sql_wrapper} — full relational pushdown via SQL generation
      (the paper's [WrapperPostgres]);
    - {!select_wrapper} — scan plus server-side filtering;
    - {!project_wrapper} — the paper's get/project-without-composition
      example;
    - {!indexed_wrapper} — scans plus filters on indexed attributes;
    - {!scan_wrapper} — [get] only: ships whole collections;
    - {!kv_wrapper} — key-value stores: scan or exact key lookup;
    - {!text_wrapper} — WAIS-style documents: scan or one keyword;
    - {!file_wrapper} — flat record files: scan only. *)

module Expr := Disco_algebra.Expr
module Source := Disco_source.Source
module V := Disco_value.Value

type error =
  | Refused of string
      (** the expression is outside the wrapper's functionality *)
  | Native_error of string  (** the source failed executing it *)

val error_message : error -> string

type t

val name : t -> string

val functionality : t -> Grammar.t
(** The paper's [submit-functionality] method. *)

val accepts : t -> Expr.expr -> bool
(** Grammar derivability of the serialized expression — what
    transformation rules consult before pushing an operator into a
    [Submit]. *)

val execute : t -> Source.t -> Expr.expr -> (V.t * int, error) result
(** Run a source-name-space logical expression against the source's
    native store. Returns the (source-name-space) answer and its row
    count (used to price the transfer). Never raises: native failures are
    [Error (Native_error _)], out-of-capability shapes
    [Error (Refused _)]. Every built-in wrapper checks the shape itself
    — the relational ones against their own grammar, the others in their
    executors — so a mediator that ignores {!accepts} still gets a clean
    refusal. *)

val execute_batch :
  t -> Source.t -> Expr.expr list -> (V.t * int, error) result list
(** Run several expressions against the source in one round-trip. The
    result list is positional: element [i] answers expression [i], and
    the list always has exactly one element per input expression.
    Wrappers that do not opt in (via {!make}'s [?execute_batch]) fall
    back to sequential per-expression {!execute} — semantics are
    identical either way; only the latency accounting differs (the
    runtime prices a batched call's [base_ms] once). *)

val prepare : t -> Expr.expr -> Source.t -> (V.t * int, error) result
(** Staged {!execute}: [prepare w e] is a call of [e] that may keep
    work between calls, so [prepare w e src] answers as
    [execute w src e] does, with the same errors on the same call. The
    relational wrappers judge [e] against their grammar once, when it is
    prepared, and compile the SQL path lazily: the generated SQL, the
    {!Disco_relation.Sql.prepared} query and the answer rebuilder are
    compiled by each call until the second, which keeps them for as long
    as the source's database, and the tables the generator read, stay
    the same (a failover to a replica or a replaced source compiles
    again). So a call made once, as by a cached plan whose text never
    repeats, holds no statement. Data passes and the
    index choice are made on every call. Wrappers built by {!make}
    without [?prepare] stage nothing: their calls are
    [fun src -> execute src e].

    {b Concurrency.} One prepared call may run on several domains at
    once (serve workers share a mediator's cached plans). The kept
    compilation is an immutable snapshot published through an [Atomic]:
    no lock, and a caller sees either no snapshot or a whole one. *)

val execute_prepared :
  t ->
  Source.t ->
  (Expr.expr * (Source.t -> (V.t * int, error) result)) list ->
  (V.t * int, error) result list
(** One round-trip for several prepared calls, each paired with its
    expression: a wrapper with its own [execute_batch] gets the
    expressions, as {!execute_batch} would pass them; any other runs the
    prepared calls in order. *)

val make :
  ?execute_batch:(Source.t -> Expr.expr list -> (V.t * int, error) result list) ->
  ?prepare:(Expr.expr -> Source.t -> (V.t * int, error) result) ->
  name:string ->
  grammar:Grammar.t ->
  execute:(Source.t -> Expr.expr -> (V.t * int, error) result) ->
  unit ->
  t
(** Build a custom wrapper (how a DBI extends the system).
    [?execute_batch] opts into native multi-expression round-trips; when
    omitted, {!execute_batch} falls back to per-expression {!execute}.
    An implementation must return exactly one (positional) result per
    input expression.

    [?prepare] stages [execute] (see {!prepare}): [prepare e] is applied
    once per prepared exec, and the call it returns each time that exec
    is sent to a source. It must answer as [execute src e] does, with the same
    errors on the same call. It defaults to
    [fun e src -> execute src e].

    {b Concurrency.} Under a wall-clock scheduler
    ({!Disco_source.Scheduler.wall} — serve mode) the runtime
    issues one round's batches genuinely in parallel on several
    domains, so [execute], [execute_batch] and one prepared call may be
    invoked concurrently: for different sources, or the same source,
    within one query, and for the same wrapper value or cached exec
    across the queries that share one mediator.
    Implementations must be re-entrant or take their own lock; the
    built-in wrappers are pure over the source snapshot, and keep their
    prepared compilations in atomics, so they need neither. *)

(** {1 Built-in wrappers} *)

val sql_wrapper : unit -> t
(** {!Grammar.full_relational}. *)

val select_wrapper : ?comparisons:string list -> unit -> t
(** {!Grammar.select_pushdown}: a scan, or one select over it whose
    predicate compares attributes and constants with [comparisons]
    (default all six) under [and], [or] and [not]. *)

val project_wrapper : unit -> t
(** {!Grammar.project_no_compose}: a scan, or one projection of it. *)

val scan_wrapper : unit -> t
(** {!Grammar.get_only}: whole-extent scans, read straight off the
    column store. *)

val kv_wrapper : unit -> t
(** Stored values must be structs; exact-match lookups are served by the
    store's index when the filter is an equality on the [key] field. *)

val file_wrapper : unit -> t

val text_wrapper : unit -> t
(** WAIS-style document server: scans, or single-keyword [like "%w%"]
    filters on [title] / [body] served by the inverted index. *)

val indexed_wrapper : ?eq:string list -> ?range:string list -> unit -> t
(** A relational source that advertises exactly its access paths: scans,
    plus conjunctions of comparisons on the named attributes
    ({!Grammar.indexed_lookup} — [eq] attributes accept equality, [range]
    attributes also accept [<] [<=] [>] [>=]). The columnar engine
    serves an accepted filter from the table's
    {!Disco_relation.Table.declare_index} access path when one is
    declared. *)

val of_constructor_args : string -> (string * Disco_value.Value.t) list -> t option
(** Resolve an ODL constructor ([w0 := WrapperPostgres();]) and its
    named arguments to a wrapper: [WrapperPostgres] / [WrapperSql] →
    {!sql_wrapper}, [WrapperSelect] → {!select_wrapper},
    [WrapperProject] → {!project_wrapper}, [WrapperScan] →
    {!scan_wrapper}, [WrapperKV] → {!kv_wrapper}, [WrapperFile] →
    {!file_wrapper}, [WrapperIndexed] → {!indexed_wrapper}, whose
    [eq = "id", range = "salary,age"] arguments take comma-separated
    attribute lists. Case-insensitive; unknown arguments are ignored. *)
