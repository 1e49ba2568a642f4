(** The learned cost model of paper Section 3.3.

    Heterogeneous sources "may not export enough information to determine
    the run-time cost of a physical algorithm", so Disco {e records}
    every [exec] call — the submitted expression, the time taken and the
    amount of data returned — and estimates future calls from history:

    - an {b exact match} (same repository, same expression) combines the
      recorded calls with a smoothing function; only a fixed number of
      exactly matching calls are kept, for at most {!exact_bound}
      expressions;
    - a {b close match} (same expression skeleton: comparison operators
      match but constants differ — the paper's "variant of predicate-based
      caching") smooths over the close calls;
    - {b no match} falls back to the defaults: {e time 0, data 1}, which
      biases the optimizer toward maximal pushdown, exactly as the paper
      argues. *)

module Expr := Disco_algebra.Expr

type basis =
  | Exact of int  (** number of exactly matching recorded calls *)
  | Close of int  (** number of skeleton-matching recorded calls *)
  | Indexed
      (** no recorded calls, but the submit is an indexed lookup on an
          attribute declared via {!declare_index} — priced like the
          default yet treated as informed *)
  | Default

type estimate = { est_time_ms : float; est_rows : float; est_basis : basis }

val default_estimate : estimate
(** time 0, rows 1, basis Default. *)

type t

val exact_bound : int
(** The most exact keys a model keeps (4,096): recording or estimating a
    key marks it most recently used, and a new key past the bound evicts
    the least recently used one. An evicted key's calls stay in its
    skeleton's close history. Recording a key already held allocates
    nothing. *)

val create : ?history:int -> ?smoothing:float -> ?close_matching:bool -> unit -> t
(** [history] bounds the recorded calls kept per exact key (default 8).
    [smoothing] is the exponential-smoothing factor applied most-recent
    first (default 0.5). [close_matching] (default true) enables the
    skeleton-based close matches; disabling it is the A1 ablation — only
    exact repeats inform estimates. *)

val record : t -> repo:string -> expr:Expr.expr -> time_ms:float -> rows:int -> unit

val estimate : t -> repo:string -> Expr.expr -> estimate

type key
(** An exec's history keys — the exact key (repository and printed
    expression) and the close key (repository and skeleton) — printed
    once, so a caller that records or estimates the same exec many times
    prints it only when the key is made. Immutable. *)

val key : repo:string -> Expr.expr -> key

val printed : key -> string
(** The keyed expression as {!Disco_algebra.Expr.to_string} prints it. *)

val record_key : t -> key -> time_ms:float -> rows:int -> unit
(** [record_key t (key ~repo expr)] is [record t ~repo ~expr]. *)

val estimate_key : t -> key -> estimate
(** [estimate_key t (key ~repo expr)] is [estimate t ~repo expr]. *)

val declare_index :
  t -> repo:string -> attr:string -> kind:[ `Hash | `Sorted ] -> unit
(** Tell the model that [repo] serves lookups on [attr] from an index.
    When an estimate finds no recorded history, a submit shaped like a
    select-over-get whose predicate compares [attr] to a constant
    (equality for either kind; [<] [<=] [>] [>=] only for [`Sorted]) is
    priced on an {!Indexed} basis instead of {!Default}. With no
    declarations the model's behavior is unchanged. Declarations are
    DDL, not observations: {!clear} keeps them. *)

val indexed_attrs : t -> repo:string -> (string * [ `Hash | `Sorted ]) list
(** The declared indexes for [repo], sorted by attribute name. *)

val record_batch : t -> repo:string -> size:int -> time_ms:float -> unit
(** Record one batched round-trip to [repo]: [size] expressions answered
    by a single wrapper call taking [time_ms] total. Bounded by the same
    [history] window as per-call records. Raises [Invalid_argument] when
    [size < 1]. *)

val estimate_batch : t -> repo:string -> size:int -> float option
(** Predicted total time of a batched round-trip of [size] expressions to
    [repo], calibrated from recorded batches: a least-squares fit of
    [time = overhead + marginal * size] when at least two distinct batch
    sizes were observed, a proportional scaling of the mean otherwise.
    [None] when no batch to [repo] has been recorded — callers fall back
    to per-call estimates. *)

val skeleton : Expr.expr -> string
(** The close-match fingerprint: the expression with every constant
    erased. Exposed for tests. *)

val recorded_calls : t -> int
(** Total exact records currently held (after trimming to [history] per
    key and to {!exact_bound} keys). *)

val clear : t -> unit
