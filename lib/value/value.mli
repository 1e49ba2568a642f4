(** The ODMG value domain used throughout Disco.

    Values flow between data sources, wrappers, and mediators. Collections
    come in the three ODMG flavours: bags (unordered, duplicates allowed),
    sets (unordered, no duplicates) and lists (ordered). Bags and sets are
    kept in a canonical sorted form so that structural comparison coincides
    with collection equality; use the smart constructors {!bag}, {!set} and
    {!strct} to maintain the invariants. *)

(** Object identity. OIDs never cross the wrapper interface (paper Section
    3.2): they identify mediator-resident objects such as repositories and
    wrappers. *)
type oid = {
  oid_id : int;  (** unique within a mediator *)
  oid_class : string;  (** name of the interface the object instantiates *)
}

type t =
  | Null  (** missing / unavailable value *)
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Object of oid  (** reference to a mediator object *)
  | Struct of (string * t) list
      (** invariant: field names sorted, no duplicates *)
  | Bag of t list  (** invariant: elements sorted (canonical multiset) *)
  | Set of t list  (** invariant: elements sorted and deduplicated *)
  | List of t list  (** order is significant *)

exception Type_error of string
(** Raised by operations applied to values of the wrong shape, e.g. field
    access on a non-struct. *)

(** {1 Smart constructors} *)

val bag : t list -> t
(** [bag xs] is the canonical bag of the elements of [xs]. An [xs]
    already in {!compare} order is kept as it is after one pass. *)

val merge_runs : t list list -> t
(** [merge_runs runs] is [bag (List.concat runs)], built by merging the
    runs stably instead of sorting their concatenation: each run is kept
    after one pass when already in {!compare} order (a canonical bag's
    or set's elements) and sorted first otherwise. *)

val set : t list -> t
(** [set xs] is the canonical set of the elements of [xs] (duplicates
    removed). An [xs] already strictly increasing is kept as it is after
    one pass. *)

val strct : (string * t) list -> t
(** [strct fields] sorts [fields] by name. Raises {!Type_error} on duplicate
    field names. *)

val list : t list -> t

(** {1 Comparison} *)

val compare : t -> t -> int
(** Total structural order. [Int] and [Float] carrying the same numeric
    value are {e not} equal (types are distinct); use {!numeric_compare}
    for OQL comparison semantics. *)

val equal : t -> t -> bool

val numeric_compare : t -> t -> int option
(** OQL comparison: numerics compare by value across [Int]/[Float]; values
    of incomparable types yield [None]. [Null] compares equal only to
    [Null] and is less than everything else. *)

(** {1 Accessors} *)

val field : t -> string -> t
(** [field v name] projects field [name] out of struct [v]. Accessing any
    field of [Null] yields [Null] (missing data propagates). Raises
    {!Type_error} if [v] is not a struct, or the field is absent. *)

val field_opt : t -> string -> t option

val elements : t -> t list
(** Elements of a bag, set or list. Raises {!Type_error} otherwise. *)

val is_collection : t -> bool

val to_int : t -> int
val to_float : t -> float
(** [to_float] accepts both [Int] and [Float]. *)

(** {1 Collection algebra} *)

val bag_union : t -> t -> t
(** Union of two bags is a bag (paper Section 1.3): multiset sum. Sets are
    promoted to bags. Raises {!Type_error} on non-collections. *)

val set_union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val flatten : t -> t
(** [flatten c] flattens a collection of collections one level, per OQL.
    The result is a bag unless [c] and all elements are sets/lists of the
    same flavour. *)

val distinct : t -> t
(** Bag to set conversion. *)

val map_elements : (t -> t) -> t -> t
(** Apply a function to each element, preserving the collection flavour
    (re-canonicalizing bags and sets). *)

val filter_elements : (t -> bool) -> t -> t
val cardinal : t -> int

(** {1 Aggregates} *)

val agg_count : t -> t
val agg_sum : t -> t
(** Sum of a collection of numerics; [Int 0] on the empty collection.
    [Null] elements are ignored, per SQL convention. *)

val agg_avg : t -> t
val agg_min : t -> t
(** [Null] on the empty collection. *)

val agg_max : t -> t

val like_match : pattern:string -> string -> bool
(** SQL/OQL [like] matching: [%] matches any substring, [_] any single
    character, everything else literally. *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** Renders in the paper's surface syntax, e.g.
    [Bag("Mary", "Sam")], [struct(name: "Mary", salary: 200)]. *)

val to_string : t -> string

val type_name : t -> string
(** A short name of the value's runtime type, for error messages. *)
