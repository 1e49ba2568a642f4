(** Maintenance-cost models for experiment E3 (paper Sections 1.2 and 5).

    The paper's scaling argument for DBAs: with DISCO's multi-extent
    types, adding a data source of an existing type is {e one} ODL
    statement and no query changes; with explicit per-source queries the
    query text grows with every source; with a unified-global-schema
    system (Pegasus / UniSQL-M style, Section 5) "the unified schema must
    be substantially modified as new sources are integrated".

    Each model here produces the {e actual artifacts} (ODL statements,
    query text) for integrating [n] identical person sources, so the
    experiment measures real sizes rather than asserted ones. *)

type integration_cost = {
  statements : int;  (** DBA statements issued for the n-th source *)
  query_size : int;  (** AST node count of the standing user query *)
  redefined_entities : int;
      (** schema entities that had to be touched when adding the n-th
          source *)
}

val disco : n:int -> integration_cost
(** DISCO: 1 [extent] statement; the query ([select ... from x in person])
    is unchanged. *)

val explicit_union : n:int -> integration_cost
(** No implicit extents: the user query unions all n extents explicitly
    and is rewritten on every addition. *)

val global_schema : n:int -> integration_cost
(** Unified-schema baseline: integrating source n requires revisiting the
    mapping of every previously integrated source against the unified
    type (conflict re-resolution), modeled as n touched entities, plus
    the import statement. *)

val disco_query : n:int -> string
(** The standing DISCO query text (independent of [n]). *)

val explicit_union_query : n:int -> string
(** The explicit query over n extents. *)

