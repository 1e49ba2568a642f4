(** OQL → logical algebra translation (paper Section 3.2: "when the query
    optimizer transforms an OQL query into a logical expression,
    references to extents are transformed into the submit operator").

    The compiler handles the algebraic core of OQL: select-from-where
    with independent from-bindings, struct/scalar projections with
    arithmetic, boolean where-clauses, [union] / [distinct], constants.
    Anything outside that core — correlated subqueries, aggregates,
    [flatten], dependent joins — is rejected with [Error reason] and is
    executed by the mediator's hybrid evaluator instead; this mirrors the
    paper's restriction that wrappers see only the algebraic machine.

    Before compiling, the mediator must already have expanded views,
    implicit type extents and [person*] (so every free name is a concrete
    data-source extent). *)

module Ast := Disco_oql.Ast

val compile : Ast.query -> (Expr.expr, string) result
(** Translation without source placement: extents appear as [Get]. *)

val locate : repo_of:(string -> string option) -> Expr.expr -> Expr.expr
(** Wrap every [Get g] whose extent has a repository in
    [Submit (repo, Get g)] — the paper's submit introduction. [Get]s
    without a repository (already-materialized names) are left alone. *)
