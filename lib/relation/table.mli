(** A named in-memory relation: a schema plus a mutable columnar store.

    Rows are decomposed into per-column typed vectors ({!Column}) on
    insert and materialized back on demand; the row-oriented API below is
    a façade over that store, so wrappers and tests are unaffected by the
    storage layout. Optional secondary indexes ({!Index}) are declared
    per column, built on first use and kept across writes: the next read
    after an append merges the new rows into the index, and a delete
    remaps it. *)

type t

val create : name:string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

val insert : t -> Disco_value.Value.t array -> unit
(** Append a row. Raises {!Schema.Schema_error} if the row does not
    conform, leaving the table unchanged. *)

val insert_all : t -> Disco_value.Value.t array list -> unit
(** Bulk insert. Bumps {!version} once for the whole batch (not once per
    row), so one logical load invalidates data-version-keyed caches once.
    The empty batch is a no-op. Every row is checked before any is
    appended: if one does not conform, {!Schema.Schema_error} is raised
    and the table (rows and {!version}) is unchanged. *)

val delete_where : t -> (Disco_value.Value.t array -> bool) -> int
(** Remove rows matching the predicate; returns the number removed.
    Surviving rows keep their order; each index snapshot is remapped to
    their new ids. *)

val rows : t -> Disco_value.Value.t array list
(** Rows in insertion order, materialized from the column store. *)

val cardinality : t -> int

val to_bag : t -> Disco_value.Value.t
(** The table contents as a bag of structs — the extent view a wrapper
    presents to a mediator. *)

val version : t -> int
(** Monotone counter bumped by every mutation; used for plan-cache
    invalidation. *)

(** {1 Secondary indexes} *)

val declare_index : t -> column:string -> Index.kind -> unit
(** Declare (or replace) an index on a column. Raises
    {!Schema.Schema_error} if the column is absent or the kind does not
    support its type ({!Index.kind_supported}). Declaring is DDL over
    access paths, not data: it does not bump {!version}, and without any
    declaration query results and timings are unchanged. *)

val drop_index : t -> string -> unit

val indexes : t -> (string * Index.kind) list
(** Declared indexes, sorted by column name. *)

val index_kind : t -> string -> Index.kind option

val index_for : t -> string -> Index.t option
(** The index snapshot for a column at the current version: the last
    one, extended by the rows appended since ({!delete_where} remaps the
    snapshots it finds), or built on first use. [None] when no index is
    declared. Engine-internal: used by {!Sql}'s columnar planner. *)

(** {1 Columnar internals} *)

val column_at : t -> int -> Column.t
(** The backing column vector at a schema position: the same vector for
    the table's lifetime (writes update it in place), so {!Sql}'s
    compiled code may hold it across writes. Engine-internal: callers
    must not mutate through it. *)

val pp : Format.formatter -> t -> unit
