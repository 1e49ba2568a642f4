(** A named collection of tables — the storage behind one repository. *)

type t

val create : name:string -> t
val name : t -> string

val create_table : t -> name:string -> Schema.t -> Table.t
(** Raises [Schema.Schema_error] if a table with that name exists. *)

val drop_table : t -> string -> unit
(** Remove a table; a no-op when there is none by that name. A table
    created afterwards under the same name is a new table, which
    prepared SQL queries over the name compile against again. The
    dropped table's version stays counted in {!version}. *)

val find_table : t -> string -> Table.t option

val get_table : t -> string -> Table.t
(** Raises [Schema.Schema_error] if absent. *)

val table_names : t -> string list
(** Sorted. *)

val version : t -> int
(** Sum of all table versions plus a counter of DDL operations; monotone
    under any mutation. *)

val pp : Format.formatter -> t -> unit
