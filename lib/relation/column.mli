(** Typed growable column vectors — the storage cells of the columnar
    relation engine.

    Each column stores one attribute of a table as an unboxed array of its
    schema type plus a null byte-map. String columns are
    dictionary-encoded: rows hold [int] codes into a per-column dictionary,
    so equality between encoded strings is an integer comparison and a
    [LIKE] pattern needs evaluating only once per distinct string.

    The representation is exposed so the batch operators in {!Sql} can run
    typed kernels directly over the backing arrays. Only the first
    {!length} entries of a payload array are valid — the rest is growth
    capacity. Callers outside [lib/relation] should treat columns as
    opaque. *)

module V := Disco_value.Value

type strings = {
  mutable codes : int array;  (** row -> dictionary code; [-1] on NULL rows *)
  mutable dict : string array;  (** code -> string; first [dict_size] valid *)
  mutable dict_size : int;
  interned : (string, int) Hashtbl.t;  (** string -> code *)
}

type payload =
  | Ints of int array
  | Floats of float array
  | Bools of Bytes.t  (** ['\001'] where true *)
  | Strings of strings

type t = {
  mutable len : int;
  mutable nulls : Bytes.t;  (** ['\001'] where NULL; first [len] valid *)
  mutable payload : payload;
}

val create : Schema.col_type -> t
val col_type : t -> Schema.col_type
val length : t -> int

val append : t -> V.t -> unit
(** Append one value. The value must conform to the column type
    ({!Schema.value_conforms}) — the table checks before appending. *)

val filter : t -> int array -> int -> unit
(** [filter t ids n] keeps the [n] rows kept by a delete, where
    [ids.(r)] is row [r]'s new position or [-1] if it goes. It fills new
    arrays and then points [t] at them, so a column keeps its identity
    for its table's lifetime and compiled code that holds it reads the
    current rows. A string column keeps only the strings of its kept
    rows, and their codes keep their relative order. *)

val get : t -> int -> V.t
(** Materialize row [i] back into a boxed value. *)

val is_null : t -> int -> bool

val code_of_opt : t -> string -> int option
(** Dictionary probe: the code for a string if this is a string column
    that has interned it. [None] means no stored row can equal it. *)

val dict_size : t -> int
(** Number of distinct strings interned; [0] for non-string columns. *)

val dict_entry : t -> int -> string
(** The string behind a dictionary code. *)
