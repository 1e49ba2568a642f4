(** Simulated autonomous data sources.

    A source bundles a {e repository address} (the paper's [Repository]
    object carries host, name and network address — Section 2.1), a native
    store of one of three kinds (relational database, key-value store, or
    flat record file — Section 2.2: "the DISCO model can be applied to a
    variety of information servers"), a latency model, and an availability
    {!Schedule.t}.

    Mediators never touch sources directly: wrappers translate logical
    expressions into the source's native operations ({!exec_sql},
    {!kv_get}, {!file_records}) and the {!call} combinator simulates the
    network exchange against a virtual {!Clock.t}. *)

module V := Disco_value.Value

(** Where a source lives — the attributes of the paper's [Repository]
    example plus the open-ended extras it mentions (cost hint,
    maintainer). *)
type address = {
  host : string;
  db_name : string;
  ip : string;
  maintainer : string option;
  cost_hint : float option;  (** relative access cost, for the DBA *)
}

val address : ?maintainer:string -> ?cost_hint:float -> host:string -> db_name:string -> ip:string -> unit -> address

(** Native latency model: answering a call costs
    [base_ms + per_row_ms * rows] virtual milliseconds, plus a
    deterministic jitter of at most [jitter] fraction of the total. *)
type latency = { base_ms : float; per_row_ms : float; jitter : float }

val default_latency : latency
(** 5 ms base, 0.01 ms/row, 10% jitter. *)

(** The native store kinds. *)
type kind =
  | Relational of Disco_relation.Database.t
  | Key_value of (string, V.t) Hashtbl.t
      (** a single collection of key → struct *)
  | Flat_file of V.t list ref  (** an append-only list of record structs *)
  | Text of Text_index.t  (** a WAIS-style keyword-indexed document server *)

type t

val create : id:string -> address:address -> ?latency:latency -> ?schedule:Schedule.t -> kind -> t
(** A fresh source, up by default. *)

val id : t -> string
val addr : t -> address
val kind : t -> kind
val schedule : t -> Schedule.t
val set_schedule : t -> Schedule.t -> unit
val is_up : t -> float -> bool

val data_version : t -> int
(** Monotone under mutation of the underlying store (drives plan-cache
    invalidation). *)

(** {1 Native operations}

    These execute instantly (simulation cost is charged by {!call}). *)

val exec_sql : t -> Disco_relation.Sql.query -> Disco_relation.Sql.result
(** Raises [Sql.Sql_error] if the source is not relational. *)

val kv_get : t -> string -> V.t option
val kv_put : t -> string -> V.t -> unit
val kv_scan : t -> (string * V.t) list
(** Sorted by key. Raises [Invalid_argument] on non-key-value sources. *)

val file_append : t -> V.t -> unit
val file_records : t -> V.t list
(** Raises [Invalid_argument] on non-flat-file sources. *)

(** {1 Simulated calls} *)

(** The outcome of a network call issued at some virtual time. *)
type 'a outcome =
  | Answered of 'a * float
      (** payload and the virtual time at which the answer arrived *)
  | Unavailable  (** source down at issue time: the call never returns *)
  | Timed_out of float
      (** the answer would arrive only after the deadline; carries the
          would-be completion time *)

val call : t -> clock:Clock.t -> ?deadline:float -> (unit -> 'a * int) -> 'a outcome
(** [call src ~clock ?deadline f] issues a request at [Clock.now clock].
    [f ()] must return the payload and the number of rows it carries
    (which prices the transfer). The clock is {e not} advanced — the
    caller coordinates parallel calls and advances time itself. Statistics
    are recorded on the source. *)

val call_at : t -> now:float -> ?deadline:float -> (unit -> 'a * int) -> 'a outcome
(** Like {!call} but issued at an explicit virtual time rather than the
    clock's current reading. This is the issue-time/completion split the
    retry scheduler needs: re-polls and hedges are issued at {e future}
    virtual instants within one round, without advancing the shared
    clock. [call t ~clock] is [call_at t ~now:(Clock.now clock)]. *)

(** Cumulative per-source counters, for the experiment harness. *)
type stats = {
  calls_answered : int;
  calls_refused : int;  (** down at issue time: the source did no work *)
  calls_timed_out : int;
      (** the answer would land past the deadline; the source {e did}
          the work (its time shows in [busy_ms]) but nothing shipped *)
  rows_shipped : int;
  busy_ms : float;  (** total virtual time spent serving *)
}

val stats : t -> stats
val reset_stats : t -> unit
val pp : Format.formatter -> t -> unit
