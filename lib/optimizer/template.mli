(** Template planning: a union of like extents is planned once per class.

    An interface with several extents expands to the union of one located
    leaf [Submit (r, Get e)] per extent (paper Section 2). Wrapper
    grammars see an extent only as the token [SOURCE] (Section 3.2), so
    the leaves whose extents share a wrapper object and an interface are
    one planning problem: every rewrite rule treats them alike, and every
    capability question gets the same answer. {!fold} keeps one
    representative per such class; the optimizer normalizes and
    enumerates the folded tree, and {!instantiate} copies each candidate
    back to every member, in the members' original union positions,
    before anything per-extent (implementation, pricing, ranking)
    happens. *)

module Expr := Disco_algebra.Expr
module Plan := Disco_physical.Plan

type t
(** How one located tree was folded. *)

val fold :
  classes:(string -> (string * string) option) ->
  Expr.expr ->
  (Expr.expr * t) option
(** [fold ~classes located] folds every [Union] whose members are all
    located leaves [Submit (r, Get e)]. [classes e] is the class key of
    extent [e] (its wrapper object and its interface), or [None] for an
    extent that never joins a class (a shard child, an extent without a
    wrapper). Only leaves whose extent occurs once in [located] are
    folded, and a class keeps its first member as the representative.
    A union that would keep a single member keeps two, so that
    normalization never mistakes it for a singleton union. [None] when
    no class of two or more members folds: planning then proceeds on
    [located] itself. *)

val instantiate : t -> Expr.expr -> Expr.expr
(** [instantiate t e] copies each union member derived from a
    representative (its only extent is the representative's) to every
    member of its class, renaming the extent and the repository, and
    puts the members of each folded union back in their original
    order. [instantiate t folded] is the located tree [fold] was given. *)

val fold_plan : t -> Plan.plan -> Plan.plan
(** [fold_plan t p] drops from each union of an instantiated plan the
    members whose only extent was folded away: the folded plan whose
    whole-plan obligations stand for [p]'s (see
    {!Disco_check.Check.check_plan}). *)
