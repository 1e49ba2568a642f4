(** Transformation rules over the logical algebra (paper Section 3.1-3.2).

    The rules are semantics-preserving rewrites, checked against the
    reference evaluator by property tests. The capability-sensitive rules
    consult the wrapper interface through a [can_push] callback before
    moving an operator inside a [Submit] — "when applying a transformation
    rule to the submit operator, the transformation rule consults the
    wrapper interface" (Section 3.2).

    The paper's restriction that [submit] has call semantics — no data
    flows between sources, so semijoins are inexpressible — is enforced
    structurally: no rule ever nests one source's [Submit] inside
    another's. *)

type can_push = repo:string -> Expr.expr -> bool
(** [can_push ~repo e] answers whether the wrapper serving [repo] accepts
    the logical expression [e] as a [Submit] argument. *)

val push_all : can_push
(** Accepts everything (useful for tests). *)

val push_none : can_push
(** Accepts nothing: every operator stays on the mediator. *)

val bottom_up : (Expr.expr -> Expr.expr) -> Expr.expr -> Expr.expr
(** [bottom_up f e] rewrites [e]'s children first, then applies [f] to the
    rebuilt node: the traversal every rule pass below runs. *)

val extract_join_pairs : Expr.expr -> Expr.expr
(** Move equi-join conjuncts of a [Select] above a [Join] into the join's
    pair list ([Select(Join(l,r,[]), x.id = y.id)] becomes
    [Join(l, r, [x.id = y.id])]). *)

val push_selects : Expr.expr -> Expr.expr
(** Push [Select] through [Union], [Map] (rewriting paths through the
    projection) and into the relevant side of a [Join]. *)

val push_heads : Expr.expr -> Expr.expr
(** Fuse stacked [Map]s and distribute [Map]/[Project] over [Union]. *)

val absorb : can_push:can_push -> Expr.expr -> Expr.expr
(** Move operators inside [Submit] where the wrapper allows: select,
    project, map and distinct absorb from above; two [Submit]s on the same
    repository under a [Join] merge (the paper's join pushdown,
    Section 3.2). *)

val simplify : Expr.expr -> Expr.expr
(** Cleanups: drop [Select true], collapse nested selects and singleton
    unions, remove identity maps. *)

val normalize :
  ?can_push:can_push -> ?on_rule:(string -> unit) -> Expr.expr -> Expr.expr
(** The standard pipeline:
    [simplify ∘ absorb ∘ push_heads ∘ push_selects ∘ extract_join_pairs]
    iterated to a fixpoint. Without [can_push], nothing is absorbed into
    submits (maximally conservative).

    [on_rule] is called with the stage name ([extract_join_pairs],
    [push_selects], [push_heads], [absorb] or [simplify]) each time that
    stage rewrites the expression — i.e. its output differs from its
    input.  Observability hooks (optimizer rule-fired metrics) use it;
    it has no effect on the result. *)
