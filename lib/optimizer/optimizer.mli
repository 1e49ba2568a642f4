(** The mediator query optimizer (paper Section 3.1).

    "The optimizer searches the space of logical and physical trees for
    the physical tree with the lowest cost": starting from a located
    logical expression, the search enumerates

    - pushdown alternatives — the capability-constrained normalization
      applied or not (and the un-normalized original), so a plan that
      ships whole extents competes with maximal pushdown;
    - join alternatives — commutations of every [Join] node (bounded),
      which choose hash-build sides and submit-merge opportunities;

    implements each candidate with the physical rules (a join's
    algorithm follows from its key pairs: hash join with keys, nested
    loops without), adds semijoin reductions where the cost model has
    real statistics for both sides, costs every plan against the learned
    {!Disco_cost.Cost_model}, and ranks them, cheapest first. Only the
    plan picked from the ranking is verified.

    With an empty cost store every [exec] estimates at time 0 / data 1,
    so the maximal-pushdown plan wins — the paper's designed bias. *)

module Expr := Disco_algebra.Expr

type choice = {
  plan : Disco_physical.Plan.plan;
  logical : Expr.expr;  (** the logical tree the plan implements *)
  cost : Disco_physical.Plan.cost;
  alternatives : int;
      (** number of distinct candidates costed, in every [check] mode *)
  verdict : Disco_check.Check.diag list option;
      (** the static verifier's diagnostics for [plan], the one plan the
          search verified (see [check] below); [None] when [optimize]
          ran without [check] (or in [Off] mode). The mediator caches it
          with the plan and hands it to the runtime's gate, so each plan
          is verified once. *)
}

val optimize :
  ?params:Disco_physical.Plan.params ->
  ?metrics:Disco_obs.Metrics.t ->
  ?batch:bool ->
  ?check:Disco_check.Check.t * Disco_check.Check.mode ->
  ?shard:(string -> (Disco_shard.Shard.partition * int) option) ->
  can_push:Disco_algebra.Rules.can_push ->
  cost:Disco_cost.Cost_model.t ->
  Expr.expr ->
  choice
(** [optimize ~can_push ~cost located] plans a located logical expression.
    At most 8 join-commutation variants are explored. Plans whose every
    exec estimate is informed rank first, by estimated time; ties break
    toward fewer shipped tuples, then smaller plans. The others rank by
    the work they push to sources (the summed size of their source
    expressions, larger first), then smaller plans, time and shipped
    tuples.

    Candidate plans are structurally deduplicated before costing (the
    enumeration re-derives the same physical tree along many paths), so
    each distinct plan is costed exactly once; the first occurrence is
    kept, which preserves the choice: the ranking is a stable sort, so
    the earliest among equally good plans ranks first.

    [batch] (default [false]) costs candidates for the batched transport
    — see {!Disco_physical.Plan.estimate}.

    When [metrics] is given, the search reports into it:
    [optimizer.rules_fired] / [optimizer.rule.<stage>] count each
    normalization stage that rewrote a candidate,
    [optimizer.candidates_raw] is a histogram of enumerated candidates
    per call, and [optimizer.candidates] of the distinct candidates
    actually costed.

    When [shard] is given (a resolver mapping shard-child extent names
    to their partition and index), {!Shard_prune.prune} runs once on the
    located tree before enumeration — shards the selection predicate
    excludes are never contacted — and {!Shard_prune.merge_rewrite}
    turns hash-sharded gather unions into deduplicating
    [Mk_shard_merge]s on every implemented candidate. Without [shard]
    both passes are skipped and plans are bit-for-bit what they were.

    When [check] is given, the ranked plans are run through the static
    verifier ({!Disco_check.Check.check_plan}) one at a time, and each
    verdict is reported with {!Disco_check.Check.report} (the
    [check.violations] / [check.warnings] counters and log lines). In
    [Warn] mode only the cheapest plan is verified, and it is chosen
    whatever its verdict. In [Enforce] mode the search walks down the
    ranking to the first plan without error diagnostics, and raises
    {!Disco_check.Check.Check_error} with the errors of the first
    enumerated candidate if no plan passes. The chosen plan's
    diagnostics are returned as [verdict]. With no implementable
    candidate, the located expression's own plan is the one-element
    ranking. *)
