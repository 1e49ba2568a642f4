(** The physical algebra (paper Section 3.3).

    Implementation rules turn logical expressions into physical plans; the
    [submit] logical operator is implemented by the {!constructor:Exec}
    physical algorithm, whose second argument {e remains a logical
    expression} "because the wrapper interface accepts a logical
    expression". Mediator-side operators get real algorithms (hash join
    vs. nested loops, streaming select/map, bag union).

    Every physical operation has a corresponding logical operation
    ({!to_logical}), which is what makes partial evaluation possible:
    a partly executed plan converts back to a logical expression and then
    to OQL (Section 4). *)

module Expr := Disco_algebra.Expr
module V := Disco_value.Value

type plan =
  | Exec of string * Expr.expr
      (** [Exec (repo, logical)] — ships [logical] to [repo]'s wrapper *)
  | Mk_data of V.t
  | Mk_select of plan * Expr.pred
  | Mk_project of plan * string list
  | Mk_map of plan * Expr.head
  | Nested_loop_join of plan * plan * (string list * string list) list
  | Hash_join of plan * plan * (string list * string list) list
      (** builds a hash table on the smaller input (see
          {!hash_build_side}) and probes with the other; the joined
          struct keeps left fields first either way *)
  | Semi_join of plan * (string * Expr.expr) * (string list * string list) list
      (** [Semi_join (left, (repo, right_expr), pairs)]: evaluate [left]
          first, then ship the distinct join keys to [repo] as a
          membership filter on [right_expr] and hash-join the reduced
          answer. Extends the paper's model (Sections 3.2 / 6.2: [submit]
          alone "cannot express" semijoins); the key data flows through
          the mediator, never source-to-source. Requires the runtime's
          multi-round execution; {!run_local} rejects it. *)
  | Mk_union of plan list
  | Mk_shard_merge of plan list
      (** The gather step of a sharded scan: a bag union whose members
          are the per-shard branches of one partitioned extent. Same
          logical meaning as {!constructor:Mk_union} except that
          {!run_local} drops tuples an {e earlier} shard already
          produced (each branch's own duplicates survive — bag
          semantics within a shard): during a hash-ring rebalance two
          shards can double-cover a key range, and the merge must not
          double-count the overlap. *)
  | Mk_distinct of plan

val pp : Format.formatter -> plan -> unit
val to_string : plan -> string

exception Physical_error of string

val implement : Expr.expr -> plan
(** Implementation rules: [Submit] → [Exec], [Join] with equality pairs →
    [Hash_join], without → [Nested_loop_join], the rest one-to-one. Each
    join's algorithm is fixed by its key pairs; the optimizer does not
    enumerate alternatives to it (only {!semijoin_variants}).
    Raises {!Physical_error} on an unlocated [Get] (every source
    collection must sit under a [Submit] by planning time). *)

val semijoin_variants : informed:(string -> Expr.expr -> bool) -> plan -> plan list
(** Semijoin alternatives (both directions) for equi-joins whose sides
    are single execs to distinct repositories — generated only when
    [informed] reports real cost statistics for both calls, since the
    default estimates cannot rank the direction. The original plan is not
    included. *)

val to_logical : plan -> Expr.expr
(** The inverse correspondence used by partial evaluation. *)

val map_children : (plan -> plan) -> plan -> plan
(** As {!Disco_algebra.Expr.map_children}, over plans: a [Semi_join]'s
    child is its left input (its right side is an expression). *)

val fold_children : ('a -> plan -> 'a) -> 'a -> plan -> 'a
(** Folds over [p]'s children in {!map_children}'s order. *)

val execs : plan -> (string * Expr.expr) list
(** All [Exec] nodes ready to issue, preorder. The dependent right side
    of a {!constructor:Semi_join} is {e not} included — it only becomes
    issuable once the left side has materialized. *)

val all_source_exprs : plan -> (string * Expr.expr) list
(** Every source expression the plan may ever issue: ready [Exec]s plus
    the dependent right sides of [Semi_join]s. The mediator derives its
    runtime bindings from this. *)

val semi_joins : plan -> int
(** Number of [Semi_join] nodes remaining. *)

val degrade_semi_joins : plan -> plan
(** Replace every [Semi_join] by a plain [Hash_join] over the original
    (unreduced) right expression — used when building residual queries
    for partial answers. *)

val substitute_execs : (string -> Expr.expr -> plan) -> plan -> plan
(** Replace every [Exec] node (e.g. answered ones by [Mk_data]). *)

(** {1 Mediator-side execution}

    Executes the mediator-resident part of a plan; [Exec] nodes must have
    been substituted away ({!Physical_error} otherwise). Hash join really
    builds a hash table; the two join algorithms agree with the logical
    [Join] semantics. *)

val run_local : plan -> V.t

val hash_build_side : left:V.t -> right:V.t -> [ `Left | `Right ]
(** Which input the hash join builds its table on: the one with fewer
    elements (non-collections count as 1); ties keep the historical
    [`Right] build. Exposed for tests. *)

(** {1 Cost estimation} *)

(** Mediator-side cost constants (virtual ms per tuple). *)
type params = {
  c_select : float;
  c_project : float;
  c_hash : float;  (** per tuple hashed or probed *)
  c_nested : float;  (** per tuple pair compared *)
  c_union : float;
  c_distinct : float;
  default_selectivity : float;  (** for selects without statistics *)
  default_join_selectivity : float;
}

val default_params : params

type cost = {
  time_ms : float;
  rows : float;
  shipped : float;
  defaulted_execs : int;
      (** [exec] nodes whose estimate fell back to the default (no
          recorded calls, and no recorded scan to price them from; see
          {!estimate}) *)
}
(** [shipped] counts tuples crossing the wrapper interface (the quantity
    experiment E4 measures). *)

val mediator_op_count : plan -> int
(** Number of mediator-side physical operators ([Exec] bodies count as a
    single node). When every exec estimate is a default the optimizer
    minimizes it among the plans that push the most work to sources. *)

val estimate :
  ?params:params -> ?batch:bool -> Disco_cost.Cost_model.t -> plan -> cost
(** An exec the cost model has no history for is priced at the paper's
    default (time 0, data 1) — unless its expression is a chain of
    select, project, map and distinct over one [get(E)] whose bare scan
    the model has recorded at the same repository. Then it takes the
    scan's time, and the scan's rows scaled by
    [params.default_selectivity] per select and 0.7 per distinct (what
    the same operators cost at the mediator), and it is not counted in
    [defaulted_execs].

    [batch] (default [false]) costs the plan for the batched transport:
    first-round execs sharing a repository are charged the amortized
    share of the {!Disco_cost.Cost_model.estimate_batch} prediction when
    the model has batch calibration for that repository (falling back to
    the stand-alone call estimate otherwise). *)
