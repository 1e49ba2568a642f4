(** Relational schemas: ordered, typed column lists.

    Data sources wrapped by Disco store flat relations; this module defines
    their schemas and checks value conformance. *)

(** Column types of the source-side relational engine. *)
type col_type = TInt | TFloat | TString | TBool

val col_type_name : col_type -> string

val value_conforms : col_type -> Disco_value.Value.t -> bool
(** [Null] conforms to every column type. *)

type t = { columns : (string * col_type) list }
(** invariant: column names are unique; order is the storage order. *)

exception Schema_error of string

val make : (string * col_type) list -> t
(** Raises {!Schema_error} on duplicate column names. *)

val arity : t -> int
val column_names : t -> string list

val index_of : t -> string -> int
(** Position of a column. Raises {!Schema_error} if absent. *)

val index_of_opt : t -> string -> int option
val type_of : t -> string -> col_type option
val mem : t -> string -> bool

val check_row : t -> Disco_value.Value.t array -> unit
(** Raises {!Schema_error} if the row has the wrong arity or a value of the
    wrong type. *)

val row_to_struct : t -> Disco_value.Value.t array -> Disco_value.Value.t
(** View a row as an ODMG struct with the column names as fields. *)

val struct_to_row : t -> Disco_value.Value.t -> Disco_value.Value.t array
(** Inverse of {!row_to_struct}; missing fields become [Null]. Raises
    {!Schema_error} if the value is not a struct. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
