(** Secondary indexes over a single column.

    Two kinds (cf. the related exemplars' dictionary and numeric-range
    indexes): a {e hash} index serves equality on any column type (string
    keys are the column's dictionary codes, so probing compares integers),
    and a {e sorted} index over numeric columns serves every range
    comparison. Both keep the column's row ids in key order, NULL rows
    first, so a probe is two binary searches and its rows one slice.

    An index is an immutable snapshot of a column. {!Table} builds it on
    first use and keeps it across writes: {!extend} merges appended rows
    in, {!remap} follows a delete, and each returns a new snapshot, so a
    reader holding the old one is never disturbed. A probe's rows come
    back in ascending id order — the scan order of the columnar engine —
    or as [None] when this index cannot serve the probe (the caller falls
    back to a scan). They follow {!Disco_value.Value.numeric_compare}
    semantics exactly, including [NULL < everything] (so [Lt]/[Le]
    results include NULL rows) and [NULL = NULL]. *)

module V := Disco_value.Value

type kind = Hash | Sorted

val kind_name : kind -> string
val kind_of_string : string -> kind option

val kind_supported : kind -> Schema.col_type -> bool
(** [Sorted] requires a numeric column; [Hash] supports every type. *)

type op = Op_eq | Op_lt | Op_le | Op_gt | Op_ge
(** The comparisons an index can serve; [<>] is always left to a scan. *)

val serves : kind -> op -> bool
(** Hash indexes serve only [Op_eq]; sorted indexes serve every [op]. *)

type t

val build : kind -> Column.t -> t
(** A snapshot of every row of the column: a stable sort on the unboxed
    column. *)

val covers : t -> Column.t -> bool
(** Whether the snapshot covers every row of the column. *)

val extend : t -> Column.t -> t
(** [extend t col]: [t] covers the first rows of [col], which may have
    had rows appended since; the snapshot of the whole column, merged
    without re-sorting the old rows ([t] itself if it {!covers} them). *)

val remap : t -> int array -> t
(** [remap t ids] follows a delete: [ids.(r)] is old row [r]'s new id,
    or [-1] if it was deleted. New ids must preserve the old ids' order
    (and, on a string column, its dictionary codes' order). [t] may cover
    fewer rows than [ids]: the result then covers the survivors among
    them, which are again the first rows. One filter pass, no sort. *)

val interval : t -> Column.t -> op -> V.t -> (int * int) option
(** [interval t col op probe]: the rows satisfying [value <op> probe] as a
    half-open slice of the snapshot's order; [None] when unservable: hash
    indexes serve only [Op_eq], and a probe must be NULL or comparable
    with the column's type (numeric probes may cross int/float). The
    slices of two probes on one snapshot intersect to the rows satisfying
    both. *)

val rows : t -> int * int -> int array
(** The row ids of a slice, ascending. *)
