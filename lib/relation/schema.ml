module V = Disco_value.Value

type col_type = TInt | TFloat | TString | TBool

let col_type_name = function
  | TInt -> "int"
  | TFloat -> "float"
  | TString -> "string"
  | TBool -> "bool"

let value_conforms ty v =
  match (ty, v) with
  | _, V.Null -> true
  | TInt, V.Int _ -> true
  | TFloat, V.Float _ -> true
  | TString, V.String _ -> true
  | TBool, V.Bool _ -> true
  | _ -> false

type t = { columns : (string * col_type) list }

exception Schema_error of string

let schema_error fmt = Format.kasprintf (fun s -> raise (Schema_error s)) fmt

let make columns =
  let names = List.map fst columns in
  let sorted = List.sort String.compare names in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then schema_error "duplicate column %s" a
        else check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  { columns }

let arity t = List.length t.columns
let column_names t = List.map fst t.columns

let index_of_opt t name =
  let rec go i = function
    | [] -> None
    | (n, _) :: rest -> if String.equal n name then Some i else go (i + 1) rest
  in
  go 0 t.columns

let index_of t name =
  match index_of_opt t name with
  | Some i -> i
  | None -> schema_error "no column named %s" name

let type_of t name = List.assoc_opt name t.columns
let mem t name = index_of_opt t name <> None

let check_row t row =
  if Array.length row <> arity t then
    schema_error "row arity %d does not match schema arity %d"
      (Array.length row) (arity t);
  List.iteri
    (fun i (name, ty) ->
      if not (value_conforms ty row.(i)) then
        schema_error "value %s does not conform to column %s : %s"
          (V.to_string row.(i)) name (col_type_name ty))
    t.columns

let row_to_struct t row =
  V.strct (List.mapi (fun i (name, _) -> (name, row.(i))) t.columns)

let struct_to_row t v =
  match v with
  | V.Struct fields ->
      Array.of_list
        (List.map
           (fun (name, _) ->
             match List.assoc_opt name fields with
             | Some x -> x
             | None -> V.Null)
           t.columns)
  | other -> schema_error "expected a struct, got %s" (V.type_name other)

let pp ppf t =
  let pp_col ppf (name, ty) = Fmt.pf ppf "%s: %s" name (col_type_name ty) in
  Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp_col) t.columns

let equal a b =
  List.length a.columns = List.length b.columns
  && List.for_all2
       (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && t1 = t2)
       a.columns b.columns
