type t = {
  name : string;
  tables : (string, Table.t) Hashtbl.t;
  mutable ddl_ops : int;
}

let create ~name = { name; tables = Hashtbl.create 16; ddl_ops = 0 }
let name t = t.name

let schema_error fmt =
  Format.kasprintf (fun s -> raise (Schema.Schema_error s)) fmt

let create_table t ~name schema =
  if Hashtbl.mem t.tables name then
    schema_error "table %s already exists in database %s" name t.name;
  let table = Table.create ~name schema in
  Hashtbl.replace t.tables name table;
  t.ddl_ops <- t.ddl_ops + 1;
  table

(* The dropped table's version moves into the DDL counter, so
   [version] stays monotone. *)
let drop_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some table ->
      Hashtbl.remove t.tables name;
      t.ddl_ops <- t.ddl_ops + Table.version table + 1
  | None -> ()

let find_table t name = Hashtbl.find_opt t.tables name

let get_table t name =
  match find_table t name with
  | Some table -> table
  | None -> schema_error "no table named %s in database %s" name t.name

let table_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort String.compare

let version t =
  Hashtbl.fold (fun _ table acc -> acc + Table.version table) t.tables t.ddl_ops

let pp ppf t =
  Fmt.pf ppf "database %s {%a}" t.name
    (Fmt.list ~sep:(Fmt.any "; ") Fmt.string)
    (table_names t)
