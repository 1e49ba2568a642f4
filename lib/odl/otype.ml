module Schema = Disco_relation.Schema

type t =
  | TBool
  | TInt
  | TFloat
  | TString
  | TVoid
  | TInterface of string
  | TStruct of (string * t) list
  | TBag of t
  | TSet of t
  | TList of t

let of_odl_name name =
  match String.lowercase_ascii name with
  | "boolean" | "bool" -> Some TBool
  | "short" | "long" | "int" | "integer" -> Some TInt
  | "float" | "double" -> Some TFloat
  | "string" -> Some TString
  | "void" -> Some TVoid
  | _ -> None

let rec pp ppf = function
  | TBool -> Fmt.string ppf "Boolean"
  | TInt -> Fmt.string ppf "Short"
  | TFloat -> Fmt.string ppf "Float"
  | TString -> Fmt.string ppf "String"
  | TVoid -> Fmt.string ppf "Void"
  | TInterface name -> Fmt.string ppf name
  | TStruct fields ->
      let pp_field ppf (n, ty) = Fmt.pf ppf "%s: %a" n pp ty in
      Fmt.pf ppf "Struct(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp_field) fields
  | TBag e -> Fmt.pf ppf "Bag<%a>" pp e
  | TSet e -> Fmt.pf ppf "Set<%a>" pp e
  | TList e -> Fmt.pf ppf "List<%a>" pp e

let to_string ty = Fmt.str "%a" pp ty

let rec equal a b =
  match (a, b) with
  | TBool, TBool | TInt, TInt | TFloat, TFloat | TString, TString | TVoid, TVoid
    ->
      true
  | TInterface x, TInterface y -> String.equal x y
  | TStruct xs, TStruct ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (nx, tx) (ny, ty) -> String.equal nx ny && equal tx ty)
           xs ys
  | TBag x, TBag y | TSet x, TSet y | TList x, TList y -> equal x y
  | _ -> false

let to_col_type = function
  | TBool -> Some Schema.TBool
  | TInt -> Some Schema.TInt
  | TFloat -> Some Schema.TFloat
  | TString -> Some Schema.TString
  | TVoid | TInterface _ | TStruct _ | TBag _ | TSet _ | TList _ -> None
