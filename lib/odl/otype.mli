(** Mediator-side types, following the ODMG-93 type system as used in the
    paper's examples ([String], [Short], interfaces, bags...). *)

type t =
  | TBool
  | TInt  (** covers ODL [Short] / [Long] *)
  | TFloat
  | TString
  | TVoid
  | TInterface of string  (** objects of a named interface *)
  | TStruct of (string * t) list
  | TBag of t
  | TSet of t
  | TList of t

val of_odl_name : string -> t option
(** Recognize ODL atomic type names ([String], [Short], [Long], [Float],
    [Double], [Boolean], ...). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

val to_col_type : t -> Disco_relation.Schema.col_type option
(** The relational column type corresponding to an atomic mediator type,
    when one exists. *)
