module V = Disco_value.Value

(* [ix] is the column's latest index snapshot, [None] before its first
   use. It covers a prefix of the rows: a delete remaps it, so every write
   since it was taken is an append. A published snapshot is never
   mutated; a read that extends it and a delete replace [ix] whole, and
   [ix] is an atomic, so two readers on two domains each see a complete
   snapshot (if both extend it, the later publish wins, and both cover
   the rows they read). *)
type index_state = { ix_kind : Index.kind; ix : Index.t option Atomic.t }

type t = {
  name : string;
  schema : Schema.t;
  columns : Column.t array;  (* one per schema column, for the table's lifetime *)
  mutable count : int;
  mutable version : int;
  indexes : (string, index_state) Hashtbl.t;  (* column name -> state *)
}

let columns_of_schema schema =
  Array.of_list (List.map (fun (_, ty) -> Column.create ty) schema.Schema.columns)

let create ~name schema =
  {
    name;
    schema;
    columns = columns_of_schema schema;
    count = 0;
    version = 0;
    indexes = Hashtbl.create 4;
  }

let name t = t.name
let schema t = t.schema

let arity t = Array.length t.columns

let row_at t i =
  Array.init (arity t) (fun c -> Column.get t.columns.(c) i)

let column_named t column = t.columns.(Schema.index_of t.schema column)

(* The whole batch conforms before any row is appended, so a bad row
   leaves the table as it was. The append pass holds no reference to the
   rows behind it, which a large load then frees as it goes. *)
let append_rows t rows =
  List.iter (Schema.check_row t.schema) rows;
  List.iter
    (fun row ->
      Array.iteri (fun i col -> Column.append col row.(i)) t.columns;
      t.count <- t.count + 1)
    rows;
  t.version <- t.version + 1

let insert t row = append_rows t [ row ]

let insert_all t rows =
  (* One logical load, one version bump: bulk loads must not churn
     data-version-keyed caches once per row. *)
  match rows with [] -> () | rows -> append_rows t rows

let rows t = List.init t.count (row_at t)

let delete_where t pred =
  let ids = Array.make t.count (-1) in
  let kept = ref 0 in
  for i = 0 to t.count - 1 do
    if not (pred (row_at t i)) then (
      ids.(i) <- !kept;
      incr kept)
  done;
  let removed = t.count - !kept in
  if removed > 0 then (
    (* rows are only ever appended after a snapshot, and survivors keep
       their order, so a remapped snapshot still covers a prefix *)
    Hashtbl.iter
      (fun _ st ->
        Atomic.get st.ix
        |> Option.map (fun ix -> Index.remap ix ids)
        |> Atomic.set st.ix)
      t.indexes;
    Array.iter (fun col -> Column.filter col ids !kept) t.columns;
    t.count <- !kept;
    t.version <- t.version + 1);
  removed

let cardinality t = t.count

(* Each struct is read straight off the column vectors, its fields in
   the name order [Schema.row_to_struct] would sort them into, which is
   found once per call. Rows kept in key order then come out canonical,
   and [V.bag] keeps them after one pass. *)
let to_bag t =
  let fields =
    List.mapi (fun c (name, _) -> (name, t.columns.(c))) t.schema.Schema.columns
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let rec row i = function
    | [] -> []
    | (name, col) :: rest -> (name, Column.get col i) :: row i rest
  in
  V.bag (List.init t.count (fun i -> V.Struct (row i fields)))

let version t = t.version

(* -- columnar internals -- *)

let column_at t i = t.columns.(i)

(* -- secondary indexes -- *)

let schema_error fmt =
  Format.kasprintf (fun s -> raise (Schema.Schema_error s)) fmt

let declare_index t ~column kind =
  let ty =
    match Schema.type_of t.schema column with
    | Some ty -> ty
    | None -> schema_error "no column named %s in table %s" column t.name
  in
  if not (Index.kind_supported kind ty) then
    schema_error "%s index on %s.%s: unsupported for column type %s"
      (Index.kind_name kind) t.name column
      (Schema.col_type_name ty);
  Hashtbl.replace t.indexes column { ix_kind = kind; ix = Atomic.make None }

let drop_index t column = Hashtbl.remove t.indexes column

let indexes t =
  Hashtbl.fold (fun col st acc -> (col, st.ix_kind) :: acc) t.indexes []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let index_kind t column =
  Option.map (fun st -> st.ix_kind) (Hashtbl.find_opt t.indexes column)

let publish st ix =
  Atomic.set st.ix (Some ix);
  ix

let index_for t column =
  Option.map
    (fun st ->
      let col = column_named t column in
      match Atomic.get st.ix with
      | Some ix when Index.covers ix col -> ix
      | Some ix -> publish st (Index.extend ix col)
      | None -> publish st (Index.build st.ix_kind col))
    (Hashtbl.find_opt t.indexes column)

let pp ppf t =
  Fmt.pf ppf "table %s%a [%d rows]" t.name Schema.pp t.schema t.count
