(** Local transformation maps (paper Section 2.2.2).

    A map resolves the conflict between a mediator type and a data-source
    type by listing name equivalences: one optional equivalence between
    the data-source collection name and the mediator extent name, and one
    per field. In the paper's syntax,

    {v map ((person0=personprime0),(name=n),(salary=s)) v}

    associates source collection [person0] with extent [personprime0] and
    source fields [name]/[salary] with mediator fields [n]/[s]. The
    mediator applies the map to queries before passing them to wrappers
    (mediator names → source names), and wrappers apply the inverse to
    answers (source names → mediator names).

    {b Value conversions.} Section 6.2's closing example — "the mediator
    models salaries as yearly values, but the data sources model salaries
    as weekly values" — is supported by affine transforms on field
    equivalences:

    {v map ((person0=pp0),(name=n),(salary*52=s)) v}

    declares that mediator field [s] equals source field [salary] × 52
    (optionally [+ offset]). The mediator rewrites references to [s] in
    pushed queries into the matching source arithmetic, and answers are
    converted on the way back. Scales must be positive (so comparisons
    keep their direction). *)

module V := Disco_value.Value

type t

(** One field equivalence: mediator [fe_med] = source [fe_src] ×
    [fe_scale] + [fe_offset]. *)
type field_equiv = {
  fe_src : string;
  fe_med : string;
  fe_scale : float;  (** must be positive *)
  fe_offset : float;
}

exception Map_error of string

val identity : t
(** The empty map: all names coincide. *)

val make : ?collection:string * string -> (string * string) list -> t
(** [make ?collection fields]: each pair is [(source_name, mediator_name)],
    matching the paper's [source=mediator] orientation. Raises
    {!Map_error} if either side contains duplicates. *)

val make_ext : ?collection:string * string -> field_equiv list -> t
(** Full form with value transforms. Raises {!Map_error} on duplicates or
    non-positive scales. *)

val collection : t -> (string * string) option
val field_pairs : t -> (string * string) list

val source_collection : t -> string -> string
(** Translate a mediator extent name to the source collection name
    (identity when unmapped). *)

val source_field : t -> string -> string
(** Mediator field name → source field name. *)

val mediator_field : t -> string -> string
(** Source field name → mediator field name. *)

val transform_of_mediator_field : t -> string -> (string * float * float) option
(** [(source_field, scale, offset)] when the mediator field has a
    non-identity value transform. *)

val convert_value_to_mediator : t -> source_field:string -> V.t -> V.t
(** Apply the field's transform to a source value ([Int] stays [Int] when
    the transform is integral; otherwise widens to [Float]). Non-numeric
    and [Null] values pass through. *)

val rename_struct_to_mediator : t -> V.t -> V.t
(** Rewrite the field names of a struct (or of every struct in a
    collection) from source names to mediator names, converting values
    through their transforms — the answer reformatting a wrapper
    performs. *)

val compose_flat : t -> t -> t
(** [compose_flat outer inner] chains two flat maps (mediator → inner
    source names → outer source names); transforms compose. Used when a
    mediator is itself wrapped as a data source. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's [(a=b),(c*52=d)] syntax. *)

val parse_body : Disco_lex.Lexer.Stream.t -> t
(** Parse the parenthesized list form
    [((person0=pp0),(name=n),(salary*52=s))] from a token stream
    positioned at the opening parenthesis; the first pair names the
    collection equivalence (the paper's convention). *)
