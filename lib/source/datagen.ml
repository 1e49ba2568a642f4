module V = Disco_value.Value
module Schema = Disco_relation.Schema
module Database = Disco_relation.Database
module Table = Disco_relation.Table

(* Deterministic pseudo-random stream: hash of (seed, index, salt). *)
let draw ~seed ~salt index =
  Hashtbl.hash (seed, index, salt, 0xDA7A) land 0x3FFFFFFF

let uniform_int ~seed salt index lo hi =
  if hi < lo then invalid_arg "uniform_int: empty range";
  lo + (draw ~seed ~salt index mod (hi - lo + 1))

let first_names =
  [|
    "Mary"; "Sam"; "Alice"; "Bob"; "Carol"; "David"; "Erin"; "Frank"; "Grace";
    "Henri"; "Irene"; "Jules"; "Karim"; "Lena"; "Marc"; "Nadia"; "Omar";
    "Paula"; "Quentin"; "Rosa"; "Serge"; "Tara"; "Ulf"; "Vera"; "Walid";
    "Xenia"; "Yann"; "Zoe";
  |]

let pick_name ~seed index =
  let base = first_names.(draw ~seed ~salt:1 index mod Array.length first_names) in
  Fmt.str "%s_%d" base index

let person_schema =
  Schema.make
    [ ("id", Schema.TInt); ("name", Schema.TString); ("salary", Schema.TInt) ]

let person_rows ~seed ~n =
  List.init n (fun i ->
      [|
        V.Int i;
        V.String (pick_name ~seed i);
        V.Int (uniform_int ~seed 2 i 10 500);
      |])

let person_two_schema =
  Schema.make
    [
      ("id", Schema.TInt);
      ("name", Schema.TString);
      ("regular", Schema.TInt);
      ("consult", Schema.TInt);
    ]

let employee_schema =
  Schema.make [ ("name", Schema.TString); ("dept", Schema.TString) ]

let manager_schema = employee_schema

let dept_name d = Fmt.str "dept%d" d

let employee_rows ~seed ~n ~depts =
  List.init n (fun i ->
      [|
        V.String (pick_name ~seed i);
        V.String (dept_name (uniform_int ~seed 5 i 0 (depts - 1)));
      |])

let manager_rows ~seed ~depts =
  List.init depts (fun d ->
      [| V.String (Fmt.str "mgr_%s" (pick_name ~seed (1000 + d))); V.String (dept_name d) |])

let water_schema =
  Schema.make
    [
      ("station", Schema.TString);
      ("ts", Schema.TInt);
      ("ph", Schema.TFloat);
      ("turbidity", Schema.TFloat);
      ("oxygen", Schema.TFloat);
    ]

let unit_float ~seed salt i =
  float_of_int (draw ~seed ~salt i land 0xFFFFF) /. float_of_int 0x100000

let water_rows ~seed ~station ~n =
  List.init n (fun i ->
      [|
        V.String station;
        V.Int (i * 3600);
        V.Float (6.0 +. (2.5 *. unit_float ~seed 6 i));
        V.Float (40.0 *. unit_float ~seed 7 i);
        V.Float (4.0 +. (8.0 *. unit_float ~seed 8 i));
      |])

let table_of db ~name schema rows =
  let t = Database.create_table db ~name schema in
  Table.insert_all t rows;
  t

let person_db ~seed ~name ~n =
  let db = Database.create ~name in
  ignore (table_of db ~name person_schema (person_rows ~seed ~n));
  db
