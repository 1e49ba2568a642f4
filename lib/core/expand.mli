(** Query expansion against the mediator schema.

    Before optimization, a mediator rewrites the parsed OQL so that every
    remaining free collection name is a concrete data-source extent:

    - {b views} ([define ... as], Section 2.2.3) are replaced by their
      (recursively expanded) bodies; cyclic views are an error ("a view
      can reference other views, as long as the references are not
      cyclic");
    - {b implicit type extents} (Section 2.1): the declared extent of an
      interface ([person] for [Person]) becomes the union of the
      interface's data-source extents — operationally the paper's
      [flatten(select x.e from x in metaextent where x.interface =
      Person)];
    - {b subtype extents} (Section 2.2.1): [person*] becomes the union
      over the subtype closure;
    - {b meta-data}: the name [metaextent] resolves to the current
      {!Disco_odl.Registry.metaextent_bag} as a constant;
    - {b interface names} used as values ([x.interface = Person]) become
      string constants.

    Bound variables shadow all of the above. *)

module Ast := Disco_oql.Ast
module Registry := Disco_odl.Registry

exception Expand_error of string
(** Unknown free names, cyclic views. *)

val expand : Registry.t -> Ast.query -> Ast.query
(** Raises {!Expand_error} if a free name is neither a view, an implicit
    extent, a concrete extent, [metaextent], nor an interface name. *)

val substitute_collections : (string -> Ast.query option) -> Ast.query -> Ast.query
(** Replace free collection names (scope-aware). [Null_sources] uses it to
    empty the extents of a residual, and [Skip_sources] to empty those of
    sources that are down before planning. *)

val map_closed_subqueries :
  (free:string list -> Ast.query -> Ast.query option) -> Ast.query -> Ast.query
(** Apply [f ~free] to every {e closed} subquery — one that references no
    enclosing binding variable — working top-down (a node before its
    children, in {!Ast.shape} order) and leaving a subtree alone once [f]
    rewrites it. [free] is the subquery's free names, sorted and
    deduplicated; every node's free names are computed once, in one
    bottom-up pass, so the search is linear in the query's size. The
    hybrid evaluator uses this to push the maximal algebra-compilable
    fragments of a non-algebraic query through the optimized engine. *)
