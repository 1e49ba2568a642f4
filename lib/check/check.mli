(** Static verification of logical algebra trees and physical plans.

    The paper's correctness story (Sections 3–4) rests on invariants the
    rest of the system maintains only by convention: every [Submit]
    subtree must stay inside its wrapper's capability grammar after
    rewriting, every logical tree must obey the binding-struct discipline
    so it remains decompilable to OQL (the property partial answers
    depend on), and physical plans must only exec against registered
    repositories. This module proves those invariants on a concrete tree
    or plan, before execution, and reports violations as diagnostics with
    stable codes.

    {b Checks performed.}
    - {e Schema-aware typing} of the logical algebra against an ODL
      registry: [Attr] paths resolve, [Cmp]/[Arith] operand types agree,
      [Member] filters range over constant collections, and the
      binding-struct field sets of the two sides of a [Join] stay
      disjoint. Typing is lenient: only {e concretely known} mismatches
      are reported; anything the schema cannot determine types as
      unknown and is skipped.
    - {e Capability conformance}: {!Disco_wrapper.Grammar.accepts} is
      re-run on every [Submit] / [Exec] subtree, catching rewrites or
      batching that drift outside the wrapper grammar, and all extents of
      one submit must be served by one common wrapper.
    - {e Decompilability}: every checked tree must round-trip
      [Decompile → Oql.parse → Compile] to an α-equivalent tree.
    - {e Physical well-formedness}: exec leaves name registered
      repositories and extents bound to them, equi-join algorithms carry
      at least one key pair, semijoin second-round membership filters are
      pushable to the wrapper.

    {b Diagnostic codes} (stable; [E] = error, [W] = warning):
    - [DISCO-E001] unknown collection: a [Get] names an extent the
      registry does not know.
    - [DISCO-E002] unresolved attribute: an [Attr] path (or [Project]
      attribute, or join key path) does not resolve against the
      concretely known element type.
    - [DISCO-E003] operand type mismatch: [Cmp]/[Arith] operands are
      concretely incompatible ([like] over non-strings, arithmetic over
      non-numbers, comparison across kinds).
    - [DISCO-E004] non-constant membership: a [Member] filter's key set
      is not a constant collection value.
    - [DISCO-E005] capability violation: a wrapper's grammar refuses a
      [Submit]/[Exec] subtree, or one submit spans extents served by
      different wrappers.
    - [DISCO-E006] not decompilable: the tree cannot be decompiled to
      OQL, or the decompiled text fails to re-parse or re-compile.
    - [DISCO-E007] unknown repository: an exec names an unregistered
      repository, an extent bound to a different repository, or no
      extent at all.
    - [DISCO-E008] empty join key list: an equi-join algorithm
      ([Hash_join]/[Semi_join]) carries no key pairs.
    - [DISCO-E009] binding overlap: the binding-struct field sets of the
      two sides of a [Join] intersect, a struct head binds a field
      twice, or a join side concretely produces scalar elements.
    - [DISCO-E010] unresolvable wrapper: an extent's wrapper cannot be
      resolved or constructed.
    - [DISCO-E011] schema error: an ODL file fails to load (lint).
    - [DISCO-E012] parse error: an OQL query fails to parse (lint).
    - [DISCO-E013] type error: an OQL query fails expansion or static
      typing against the schema (lint).
    - [DISCO-E014] unknown shard repository: a partitioned extent names
      a shard repository that is not a registered source (shard audit).
    - [DISCO-E015] bad shard key: a partitioned extent's shard key is
      not a declared attribute of its interface, or has a non-scalar
      type (shard audit).
    - [DISCO-E016] bad range boundaries: a range-partitioned extent's
      boundaries are unsorted, duplicated, or mutually incomparable, so
      shards overlap or leave gaps (shard audit).
    - [DISCO-W001] union drift: union members have concretely
      incompatible element types.
    - [DISCO-W002] wrapper over-claim: the capability grammar derives a
      sentence whose translation leaves the grammar, or that the wrapper
      then refuses to execute (conformance audit).
    - [DISCO-W003] round-trip drift: the tree decompiles and recompiles,
      but not to an α-equivalent tree.
    - [DISCO-W004] semijoin filter not pushable: a [Semi_join]'s
      second-round membership filter is outside the wrapper grammar (the
      runtime will fall back to shipping the unreduced answer).
    - [DISCO-W005] heterogeneous shard grammars: the wrappers serving a
      sharded extent's shards advertise different capability grammars,
      so per-shard pushdown degrades to the weakest member (shard
      audit).
    - [DISCO-W006] unbacked index advertisement: an indexed wrapper's
      grammar advertises index-served lookups ([ATTRIBUTE:f] named
      terminals) on an attribute the extent does not declare, or that no
      declared index backs — the optimizer would push lookups the source
      answers with a full scan (conformance audit).

    The whole-federation static analyzer ({!Disco_analysis.Analysis})
    adds [DISCO-Axxx] codes on top of these, sharing this module's
    diagnostic type and JSON rendering. *)

module Otype := Disco_odl.Otype
module Registry := Disco_odl.Registry
module Expr := Disco_algebra.Expr
module Plan := Disco_physical.Plan
module Wrapper := Disco_wrapper.Wrapper
module Source := Disco_source.Source

type severity = Warning | Error

type diag = {
  d_code : string;  (** stable code, e.g. ["DISCO-E005"] *)
  d_severity : severity;
  d_path : string;  (** dotted descent into the tree, e.g. ["join.l.pred"] *)
  d_message : string;
}

(** How callers react to diagnostics: [Off] skips verification entirely,
    [Warn] records violations in metrics and logs, [Enforce] raises
    {!Check_error} on any error-severity diagnostic. *)
type mode = Off | Warn | Enforce

exception Check_error of diag list
(** Raised (by callers in [Enforce] mode) with the error-severity
    diagnostics of a rejected tree. *)

type t
(** A checker: schema plus capability context. Everything is optional —
    what the checker does not know it does not check. *)

val make :
  ?registry:Registry.t ->
  ?wrapper_of:(string -> Wrapper.t option) ->
  ?repo_of:(string -> string option) ->
  ?repo_known:(string -> bool) ->
  unit ->
  t
(** [wrapper_of] and [repo_of] map {e extent} names to the wrapper
    serving them / the repository they are bound to; [repo_known] says
    whether a repository name is registered. Omitted components disable
    the corresponding checks. *)

val of_registry : ?wrapper_of:(string -> Wrapper.t option) -> Registry.t -> t
(** Checker over a registry: extents type by their interfaces, wrappers
    resolve through the extent's wrapper object, its constructor applied
    to its arguments ({!Wrapper.of_constructor_args}), unless
    [wrapper_of] overrides, and repositories are known when a registry
    object of that name exists. *)

val check_expr : t -> Expr.expr -> diag list
(** Typing + capability + decompilability over a logical tree.
    Deterministic order; empty means clean. *)

val check_plan : ?folded:Plan.plan -> t -> Plan.plan -> diag list
(** Physical well-formedness over the plan, then {!check_expr}-style
    typing and decompilability over
    [Plan.to_logical (Plan.degrade_semi_joins plan)].

    [folded] is a plan whose typing and decompilability stand for
    [plan]'s: the optimizer's template planning passes [plan] with each
    union cut down to one member per class of like extents (same
    interface, same wrapper object), which types alike and decompiles
    alike. Those whole-plan obligations then run on [folded], and only
    if it yields a diagnostic are they recomputed on [plan], so the
    result is the same as without [folded]. The capability check always
    walks every exec of [plan]. *)

val audit_wrapper :
  ?source:Source.t ->
  ?indexed:(string -> bool) ->
  ?map:Disco_odl.Typemap.t ->
  extent:string ->
  attrs:(string * Otype.t) list ->
  Wrapper.t ->
  diag list
(** Wrapper-conformance audit: enumerate a catalog of small expressions
    over [extent]/[attrs], keep the sentences the wrapper's grammar
    derives, and assert each stays inside the grammar after
    {!Disco_wrapper.Translate.to_source} renames it through [map], the
    extent's own type map (default: the identity, for an extent that
    declares none) — and, when a [source]
    holding the extent's data is provided, that the wrapper actually
    executes it instead of refusing. Violations are [DISCO-W002]
    over-claims: the grammar advertises capability the wrapper does not
    deliver, which silently degrades pushdown into mediator-side work.

    Indexed wrappers additionally have every named-attribute terminal of
    their grammar ({!Disco_wrapper.Grammar.named_attributes} — how
    [indexed_lookup] advertises index-served productions) checked
    against the extent: an advertised attribute that is not declared in
    [attrs], or for which [indexed] (default: no index information, so
    every advertisement is unbacked) reports no declared index, warns
    [DISCO-W006]. *)

val code_registry : (string * severity * string) list
(** Every diagnostic code this module can emit: [(code, severity,
    one-line summary)], in code order. The generated [doc/diagnostics.md]
    is asserted against this registry (plus the analyzer's [Axxx]
    codes). *)

val audit_shards : t -> diag list
(** Shard-declaration audit over the checker's registry: every
    partitioned extent's shard repositories must be registered sources
    ([DISCO-E014]), its shard key a declared scalar attribute
    ([DISCO-E015]), its range boundaries strictly increasing
    ([DISCO-E016]); shards served through wrappers whose grammars differ
    ({!Disco_wrapper.Grammar.equal}: start symbol and productions, not
    recorded verdicts) warn [DISCO-W005]. Empty without a registry. *)

val diag :
  code:string ->
  severity:severity ->
  path:string ->
  ('a, Format.formatter, unit, diag) format4 ->
  'a
(** [diag ~code ~severity ~path fmt ...] builds one diagnostic, its
    message formatted from [fmt] — the constructor [discoctl lint] and
    the analyzer share. *)

val sort_diags : (string * diag) list -> (string * diag) list
(** Stable report order of [(file, diag)] pairs: by file, code, path,
    then message. *)

val errors : diag list -> diag list
(** The error-severity subset, order preserved. *)

val has_errors : diag list -> bool

val pp_diag : Format.formatter -> diag -> unit
(** [DISCO-E005 error at join.l: ...] *)

val report : ?metrics:Disco_obs.Metrics.t -> diag list -> unit
(** Report one plan's verdict: count its error diagnostics into
    [check.violations] and its warnings into [check.warnings] of
    [metrics], and log each diagnostic (errors at warning level,
    warnings at debug level). Whether an error refuses the plan is the
    caller's decision, by {!mode}. The optimizer reports each plan it
    verifies, the runtime gate each plan it is about to execute. *)

val severity_name : severity -> string

val json_of_diags : (string * diag) list -> string
(** Machine-readable rendering of [(file, diag)] pairs: a JSON array in
    {!sort_diags} order — stable across runs so future tooling can diff
    lint results. *)
