(** Name-space translation between mediator and data source.

    The arguments of [submit] are in the mediator's name space (paper
    Section 3.2); before a wrapper executes an expression, the extent's
    local transformation map (Section 2.2.2) renames collection and field
    names to the source's, and the answer is reformatted back. This module
    implements both directions, driven by a {e shape analysis} of the
    expression: raw source tuples need renaming, binding structs rename
    per variable, computed projections keep their mediator-chosen labels.

    [map_of] supplies each extent's map ({!Disco_odl.Typemap.identity}
    when the extent has none). *)

module Expr := Disco_algebra.Expr
module Typemap := Disco_odl.Typemap
module V := Disco_value.Value

(** The element shape an expression produces. *)
type shape =
  | Opaque  (** scalars, constants: no renaming *)
  | Tuple of string  (** a raw tuple of the named (mediator) extent *)
  | Record of (string * shape) list
      (** a struct with mediator-chosen field names and per-field shapes
          (binding structs, computed heads) *)

val shape_of : Expr.expr -> shape

val to_source : map_of:(string -> Typemap.t) -> Expr.expr -> Expr.expr
(** Rename collection names ([Get]) and the field components of attribute
    paths from mediator names to source names. *)

val answer_renamer : map_of:(string -> Typemap.t) -> Expr.expr -> V.t -> V.t
(** [answer_renamer ~map_of e] reformats a source-name-space answer of the
    {e mediator-name-space} expression [e] back to mediator names
    (element-wise over collections). When no extent [e] reads has a field
    map, the answer is returned unchanged: wrappers already build answers
    in {!Disco_value.Value}'s canonical form. *)
