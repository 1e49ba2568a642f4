(** The native query language of relational data sources.

    Wrappers with SQL capability translate Disco logical expressions into
    this dialect (paper Section 1.1: "Wrappers map from a subset of a
    general query language, used by the mediators, to the particular query
    language of the data source"). The dialect supports single-block
    [SELECT [DISTINCT] items FROM tables [WHERE pred] [ORDER BY ...]
    [LIMIT n]] queries with arithmetic, comparisons and boolean
    connectives. *)

type scalar =
  | Col of string option * string
      (** column reference, optionally qualified by a table alias *)
  | Lit of Disco_value.Value.t  (** only atoms: null/bool/int/float/string *)
  | Arith of arith_op * scalar * scalar

and arith_op = Add | Sub | Mul | Div | Mod

type cmp = Eq | Ne | Lt | Le | Gt | Ge | Like

type pred =
  | True
  | Cmp of cmp * scalar * scalar
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type item =
  | Star  (** [SELECT *] *)
  | Item of scalar * string option  (** expression with optional [AS] alias *)

type query = {
  distinct : bool;
  items : item list;
  from : (string * string option) list;  (** table name, optional alias *)
  where : pred;
  order_by : (scalar * [ `Asc | `Desc ]) list;
  limit : int option;
}

val select : ?distinct:bool -> ?where:pred -> ?order_by:(scalar * [ `Asc | `Desc ]) list -> ?limit:int -> item list -> (string * string option) list -> query
(** Convenience constructor; [where] defaults to {!True}. *)

val pp_query : Format.formatter -> query -> unit
(** Prints standard SQL text. *)

val to_string : query -> string

val parse : string -> query
(** Parses the dialect. Raises [Disco_lex.Lexer.Error] on malformed
    input. *)

(** {1 Results} *)

type result = { columns : string list; rows : Disco_value.Value.t array list }

val result_to_bag : result -> Disco_value.Value.t
(** Rows as a bag of structs keyed by the result column names. *)

(** {1 Execution} *)

exception Sql_error of string

val run : Database.t -> query -> result
(** Evaluate a query against a database: [execute (prepare db q)].
    Raises {!Sql_error} on unknown
    tables or columns, ambiguous references, or type errors in
    predicates.

    One columnar executor serves every FROM list: batch predicate kernels
    over the tables' column vectors, dictionary-coded string comparisons
    and any declared {!Table.declare_index} access paths filter each
    frame, and frames join in FROM order, by a hash probe on a
    [col = col] conjunct with an earlier frame or else by a nested loop.
    Indexes, hash joins and conjunct reordering apply only to predicates
    that cannot raise; otherwise the predicate is checked whole, as
    {!run_rows} checks it. The two agree bag-for-bag on results, emit
    rows in the same order, and a query that raises in one raises in the
    other (messages may differ when several rows independently raise —
    discovery order is the engine's own). *)

type prepared
(** A query compiled against a database: {!run} split at the line
    between the work that reads only schemas and the work that reads
    rows. *)

val prepare : Database.t -> query -> prepared
(** Resolve the FROM frames, check the predicate's totality, place its
    conjuncts, expand the items and compile the item and check closures.
    Raises {!Sql_error} as {!run} would before reading a row: on unknown
    tables, duplicate aliases and empty select or from lists.

    A prepared query keeps each FROM table's identity, and {!execute}
    compiles it again, keeping the new compilation, when a name finds
    another table (one dropped and created again). The compiled closures
    hold the tables' column vectors, which writes update in place
    ({!Table.column_at}), so writes leave the compilation valid and keep
    no stale copy alive. Index declarations are not part of it either:
    the index a frame is served by ({!Table.declare_index}) is chosen on
    every call, as are the data passes. No row or row id outlives a
    call.

    {b Concurrency.} A prepared query may be executed concurrently from
    several domains: the compilation is an immutable snapshot published
    through an [Atomic], so a caller sees either the old one or the new
    one whole. *)

val execute : prepared -> result
(** Run a prepared query on the database's current contents. Same
    answers and errors as {!run}, which is [execute (prepare db q)]. *)

val run_rows : Database.t -> query -> result
(** The reference row-at-a-time interpreter (the pre-columnar engine),
    kept only as the oracle that tests and benchmarks compare {!run}
    against; {!run} never calls it. *)

val explain_engine :
  Database.t -> query -> [ `Columnar | `Columnar_indexed of string | `Columnar_join ]
(** The access path {!run} takes, without executing the data-flow: a
    single-table scan, a single-table scan served by the index on the
    named column, or a join of several frames. Raises like {!run} on
    FROM-clause errors. *)

val run_string : Database.t -> string -> result
(** [run_string db sql] = [run db (parse sql)]. *)
