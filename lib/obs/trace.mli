(** Structured query tracing.

    A trace is a tree of spans recorded while the mediator answers one
    query.  Spans carry {e virtual} timestamps (the simulated clock the
    runtime already uses), which keeps traces fully deterministic: the
    same query against the same federation yields the same trace,
    byte-for-byte.  That determinism is what makes golden tests of the
    pretty printer and JSON export possible.

    The builder ({!t}) is threaded through the query path as an
    [option]; when no sink is attached the mediator never allocates a
    builder, so the disabled path costs nothing. *)

(** Where an exec's answer came from. *)
type origin =
  | Source  (** answered by the primary source *)
  | Cache  (** served from the semantic answer cache *)
  | Stale of float  (** stale cache entry served; age in virtual ms *)
  | Failover of string  (** answered by the named replica repository *)
  | Blocked  (** source down and no fallback; exec never answered *)

val origin_label : origin -> string
(** Short lowercase label: ["source"], ["cache"], ["stale"],
    ["failover"], ["blocked"].  Used as the metric-name suffix for
    [exec.origin.*] counters. *)

val pp_origin : origin Fmt.t

(** One submitted exec (a single-collection subquery shipped to a
    wrapper), as observed by the runtime. *)
type exec = {
  x_repo : string;  (** repository the exec was addressed to *)
  x_wrapper : string;  (** wrapper that owns the repository *)
  x_expr : string;  (** logical expression shipped, printed *)
  x_origin : origin;
  x_start_ms : float;  (** virtual time the exec was issued *)
  x_elapsed_ms : float;  (** virtual time until it answered/blocked *)
  x_tuples : int;  (** tuples shipped over the (simulated) wire *)
  x_rows : int;  (** rows in the materialized answer *)
  x_predicted_ms : float option;  (** cost-model prediction, if traced *)
  x_predicted_rows : float option;
  x_batch_id : int option;
      (** batched round-trip this exec rode in, if any; execs sharing an
          id shared one wrapper call (and one [base_ms]) *)
  x_batch_size : int;  (** execs in that round-trip; 1 when unbatched *)
}

(** One re-poll (or hedge) of an exec by the retry scheduler, rendered
    as a child span of the exec leaf. *)
type attempt = {
  a_number : int;  (** 1-based re-poll number within the exec *)
  a_start_ms : float;  (** virtual time the re-poll was issued *)
  a_elapsed_ms : float;  (** until its own completion or failure *)
  a_outcome : string;
      (** ["recovered"], ["unavailable"], ["timed-out"], ["breaker-open"]
          or ["hedge-won"] *)
}

type span = {
  s_name : string;
  s_start_ms : float;
  s_elapsed_ms : float;
  s_meta : (string * string) list;
  s_exec : exec option;  (** [Some _] iff this is an exec leaf *)
  s_children : span list;
}

type trace = { t_query : string; t_root : span }

type sink = trace -> unit
(** Called once per finished query with the completed trace. *)

(** {1 Building} *)

type t
(** A mutable trace under construction. *)

val make : query:string -> now:float -> t
(** [make ~query ~now] opens the root span at virtual time [now]. *)

val enter : t -> now:float -> string -> unit
(** Open a child span of the current span. *)

val leave : t -> now:float -> unit
(** Close the current span.  Closing the root is a no-op ({!finish}
    does that). *)

val meta : t -> string -> string -> unit
(** Attach a key/value annotation to the current span. *)

val exec : ?attempts:attempt list -> t -> exec -> unit
(** Record an exec leaf under the current span. [attempts] (issue order)
    become child spans named ["retry"] under the leaf, carrying the
    attempt number and outcome as span metadata — the retry scheduler's
    re-polls stay attached to the exec they served. *)

val finish : t -> now:float -> trace
(** Close any spans still open (root included) and return the
    completed trace. *)

(** {1 Rendering} *)

val pp : trace Fmt.t
(** Pretty span tree with per-span virtual timings, span metadata, and
    per-exec repository / origin / elapsed / tuples. *)

val json_string : string -> string
(** [s] as a JSON string literal: quoted, with quotes, backslashes and
    control characters escaped. The one escaper of every JSON output. *)

val to_json : trace -> string
(** The whole trace as a single JSON object:
    [{"query": ..., "root": {"name", "start_ms", "elapsed_ms", "meta",
    "exec", "children"}}].  Numbers are printed with a fixed format so
    output is deterministic. *)
