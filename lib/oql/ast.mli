(** Abstract syntax of the OQL subset used by Disco mediators.

    The language covers everything the paper exercises: select-from-where
    with dependent [from] clauses, struct and collection constructors,
    [union] / [flatten] / aggregate calls, correlated subqueries in
    projections, path expressions, the [person*] subtype-extent syntax
    (Section 2.2.1), and comparison of meta-data attributes against
    interface names (Section 2.1's [x.interface = Person]).

    OQL is closed: answers are expressions too (Section 4, "both queries
    and answers are simply expressions"), which is what makes partial
    answers representable. {!Const} embeds any ODMG value, so a fully
    evaluated query is just a [Const]. *)

module V := Disco_value.Value

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge | Like
  | And | Or

type unop = Not | Neg

type coll_kind = Kbag | Kset | Klist
type quant = Exists | Forall

type query =
  | Const of V.t
  | Ident of string
      (** variable, extent, view, or interface name in scope *)
  | Extent_star of string  (** [person*]: extents of the subtype closure *)
  | Path of query * string  (** [x.name] *)
  | Select of select
  | Binop of binop * query * query
  | Unop of unop * query
  | Call of string * query list
      (** built-ins: [union], [intersect], [except], [flatten],
          [distinct], [count], [sum], [avg], [min], [max], [element],
          [exists], [abs] *)
  | Struct_expr of (string * query) list
  | Coll_expr of coll_kind * query list
  | Quant of quant * string * query * query
      (** [exists x in c : p] / [for all x in c : p] *)

and select = {
  sel_distinct : bool;
  sel_proj : query;  (** projection; [Struct_expr] for multi-field *)
  sel_from : (string * query) list;
      (** [(x, coll)] bindings; later collections may reference earlier
          variables (dependent join) *)
  sel_where : query option;
  sel_order : (query * order_dir) list;
      (** [order by] keys over the binding variables; a non-empty list
          makes the result a list instead of a bag/set *)
}

and order_dir = Asc | Desc

val pp : Format.formatter -> query -> unit
(** Pretty-prints parseable OQL text. *)

val to_string : query -> string
val equal : query -> query -> bool

val shape : query -> (string list * query) list * (query list -> query)
(** OQL's scoping rules, written once. [shape q] is [q]'s immediate
    subqueries, each paired with the variables [q] binds around it, and a
    function that rebuilds [q] from new subqueries given in the same
    order (it raises [Invalid_argument] on a list of another length). A
    [from] entry binds its variable in the later entries'
    collections and in the projection, [where] and [order by] keys; a
    quantifier binds its variable in its body. Leaves ({!Const},
    {!Ident}, {!Extent_star}) have no subqueries.

    Children come in the order the walks built on [shape] visit them: the
    right operand of a {!Binop} before the left, a quantifier's body
    before its collection, and a [select]'s [from] collections, then its
    [order by] keys, then its [where], then its projection; call
    arguments, struct fields and collection elements left to right. *)

module Names : Set.S with type elt = string

(** A node's free names, with its children's trees in {!shape} order. *)
type free = Free of Names.t * free list

val free_names : query -> free
(** Every node's free names, computed bottom-up in one pass, so a walk
    that needs them at each subquery reads them off the tree instead of
    recomputing them per node. Each set is its own subquery's: a variable
    a node binds stays in the set of the child it scopes over. *)

val free_collections : query -> string list
(** Names appearing in collection position of [from] clauses or as bare
    identifiers outside any enclosing binding — the extents/views a query
    mentions. Sorted, deduplicated. Unlike in {!free_names}, an [x*] is
    never bound. *)
