(** The one planning path (paper Section 3): OQL text is parsed and
    expanded against the schema, compiled to the algebra, located at its
    repositories, and optimized so that work is pushed into [submit]
    only where the serving wrapper's grammar derives it (Section 3.2).

    {!Mediator.query}, [explain], the hybrid fragments,
    {!Disco_analysis.Analysis} and [discoctl lint] all plan through these
    stages and resolve extents, wrappers, capabilities and shards through
    these resolvers, so static analysis plans a query exactly as the
    mediator does. Build one per registry. *)

module Registry := Disco_odl.Registry
module Ast := Disco_oql.Ast
module Expr := Disco_algebra.Expr
module Check := Disco_check.Check
module Wrapper := Disco_wrapper.Wrapper

type t

val create :
  ?source_known:(string -> bool) ->
  ?params:Disco_physical.Plan.params ->
  ?metrics:Disco_obs.Metrics.t ->
  ?batch:bool ->
  ?check:Check.mode ->
  ?cost:Disco_cost.Cost_model.t ->
  Registry.t ->
  t
(** The defaults are {!Mediator.Config.default}'s: default plan
    parameters, [batch], [Warn], and a fresh (empty) cost model — the
    paper's bias toward maximal pushdown. [source_known r] says a source
    is attached as repository [r] (default: none); the verifier also
    knows every repository the registry defines. Without [metrics] the
    optimizer reports nowhere. *)

(** {1 Resolvers} *)

val register_wrapper : t -> name:string -> Wrapper.t -> unit
(** Bind a wrapper object name directly, over the registry's
    constructor. *)

val wrapper_object : t -> string -> Wrapper.t option
(** The wrapper a registry object names: a registered one, otherwise the
    object's constructor applied to its arguments
    ({!Wrapper.of_constructor_args}), cached under the name. *)

val wrapper_of : t -> string -> Wrapper.t option
(** The wrapper serving an extent. *)

val repo_of : t -> string -> string option
(** The repository an extent is bound to. *)

val can_push : t -> Disco_algebra.Rules.can_push
(** Every extent of the expression is served by one common wrapper whose
    grammar accepts the expression. *)

val shard_of : t -> string -> (Disco_shard.Shard.partition * int) option
(** A shard-child extent's parent partition and its index. *)

val checker : t -> Check.t
(** The static verifier over this federation. *)

(** {1 Stages} *)

type error =
  | Parse_error of int * string  (** offset, message *)
  | Expand_error of string
  | Type_error of string

type span = { span : 'a. string -> (unit -> 'a) -> 'a }
(** Wraps a named stage (["parse"], ["expand"]): the mediator's trace
    spans. *)

val parse : string -> (Ast.query, error) result

val front :
  ?span:span ->
  ?typecheck:[ `Parsed | `Expanded ] ->
  t ->
  string ->
  (Ast.query, error) result
(** Parse, then expand views and implicit extents. With [typecheck] the
    query is also typed against the schema: as written ([`Parsed], the
    mediator's [static_check], so an interface with no source extents
    still types by its attributes) or after expansion ([`Expanded], lint
    and analysis). *)

val compile : t -> Ast.query -> (Expr.expr, string) result
(** Compile an expanded query and locate its extents; [Error] when it
    lies outside the algebraic subset (hybrid evaluation). *)

val optimize : t -> Expr.expr -> Disco_optimizer.Optimizer.choice
(** The one optimizer call, over a located expression. *)

val diag_of_error : error -> Check.diag
(** A front-end failure as a [DISCO-E012] (parse) or [DISCO-E013]
    (expansion, typing) diagnostic at path [query]. *)
