(** The logical algebra of the Disco mediator (paper Section 3).

    Queries compile to trees of logical operators; the distinguished
    {!constructor:Submit} operator marks a subtree whose "meaning is
    located at" a data source (Section 3.2) and is the unit handed to
    wrappers. Transformation rules (module {!Rules}) rewrite trees, e.g.
    pushing {!constructor:Select} / {!constructor:Project} /
    {!constructor:Join} inside a [Submit] when the wrapper's capabilities
    permit.

    {b The binding-struct discipline.} The compiler wraps each
    from-binding [x in C] as [Map(C, Hstruct [(x, whole-element)])], so
    elements flowing through multi-variable operators are structs keyed by
    variable names; scalar {!Attr} paths like [["x"; "salary"]] address
    into them. [Join] merges two binding structs (their field sets are
    disjoint by construction). This makes every logical tree decompilable
    back to OQL — the property Section 4 needs to return partial answers
    as queries. *)

module V := Disco_value.Value

type arith = Add | Sub | Mul | Div | Mod
type cmp = Eq | Ne | Lt | Le | Gt | Ge | Like

(** Scalar expressions over the current element. [Attr []] is the element
    itself; [Attr ["x"; "salary"]] is field [salary] of field [x]. *)
type scalar =
  | Attr of string list
  | Const of V.t
  | Arith of arith * scalar * scalar

type pred =
  | True
  | Cmp of cmp * scalar * scalar
  | Member of scalar * V.t
      (** membership in a constant collection — the filter a
          semijoin-reducing mediator pushes to the second source (an
          extension: the paper notes [submit]'s call semantics cannot
          express semijoins and defers them to future work, Section 3.2 /
          6.2; here the data flows through the {e mediator}, never
          source-to-source) *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

(** Projection heads. *)
type head =
  | Hstruct of (string * scalar) list  (** build a struct *)
  | Hscalar of scalar  (** produce a bare value *)

type expr =
  | Get of string  (** a named source collection, mediator namespace *)
  | Data of V.t  (** materialized data (a constant collection) *)
  | Select of expr * pred
  | Project of expr * string list
      (** keep the listed attributes (struct output) *)
  | Map of expr * head  (** generalized projection *)
  | Join of expr * expr * (string list * string list) list
      (** equi-join: pairs of (left path, right path); output merges the
          two element structs (field sets must be disjoint) *)
  | Union of expr list
  | Distinct of expr
  | Submit of string * expr
      (** [Submit (repository, e)]: evaluate [e] at the named repository.
          [e] is in the mediator's name space; the physical [exec]
          translates names through the extent's {!Disco_odl.Typemap}. *)

val pp_scalar : Format.formatter -> scalar -> unit
val pp_pred : Format.formatter -> pred -> unit
val pp : Format.formatter -> expr -> unit
(** Prints the paper's prefix notation, e.g.
    [project(name, submit(r0, get(person0)))]. *)

val to_string : expr -> string
val equal : expr -> expr -> bool
val size : expr -> int
(** Node count, including scalar/pred nodes. *)

(** {1 Structure} *)

val binding_vars : expr -> string list option
(** The binding-struct field names of the elements an expression produces,
    when statically known (see the discipline above). *)

val map_children : (expr -> expr) -> expr -> expr
(** [map_children f e] applies [f] to each immediate child of [e], left to
    right, and rebuilds [e] around the results; a [Submit]'s child is its
    body. A node whose children all come back physically equal is
    returned itself, so a rewrite that changes nothing allocates nothing
    (a [Union]'s list excepted). *)

val fold_children : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Folds over [e]'s children in {!map_children}'s order. *)

val map_pred_scalars : (scalar -> scalar) -> pred -> pred
(** Rewrites every scalar operand of a predicate, keeping its connectives
    (and a [Member]'s key set). *)

val map_head_scalars : (scalar -> scalar) -> head -> head
(** Rewrites every scalar of a head, keeping struct labels. *)

val submits : expr -> (string * expr) list
(** All [Submit] nodes, preorder. *)

val gets : expr -> string list
(** All [Get] collection names, preorder, duplicates preserved. *)

val map_submits : (string -> expr -> expr) -> expr -> expr
(** Rewrite every [Submit] node (does not recurse into replacements). *)

val scalar_paths : scalar -> string list list
val pred_paths : pred -> string list list

val prefix_heads : pred -> string list option
(** The set of distinct path heads a predicate mentions, or [None] if it
    mentions the whole element ([Attr []]). *)

(** {1 Scalar / predicate evaluation} *)

exception Algebra_error of string

val eval_scalar : V.t -> scalar -> V.t
(** Evaluate against a current element. Raises {!Algebra_error} on type
    errors. *)

val eval_pred : V.t -> pred -> bool

val get_path : V.t -> string list -> V.t
(** Follow a field path into a struct. Raises {!Disco_value.Value.Type_error}
    when a step is not a struct field. *)

val eval_head : V.t -> head -> V.t
(** Evaluate a [Map] head (scalar or struct) against an element. *)

val merge_structs : V.t -> V.t -> V.t
(** The element a [Join] produces: left fields first, then right. Raises
    {!Algebra_error} unless both are structs. *)

(** {1 Reference evaluation}

    Local evaluation of a whole tree, used as the semantics oracle in
    tests and by the mediator for subtrees left on the mediator side.
    [Submit] is location-transparent here: its body is evaluated with the
    same resolver. *)

val eval : resolve:(string -> V.t option) -> expr -> V.t
