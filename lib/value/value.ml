type oid = { oid_id : int; oid_class : string }

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Object of oid
  | Struct of (string * t) list
  | Bag of t list
  | Set of t list
  | List of t list

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | String _ -> "string"
  | Object _ -> "object"
  | Struct _ -> "struct"
  | Bag _ -> "bag"
  | Set _ -> "set"
  | List _ -> "list"

(* Rank used to order values of distinct constructors. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4
  | Object _ -> 5
  | Struct _ -> 6
  | Bag _ -> 7
  | Set _ -> 8
  | List _ -> 9

let rec compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Object x, Object y ->
      let c = String.compare x.oid_class y.oid_class in
      if c <> 0 then c else Int.compare x.oid_id y.oid_id
  | Struct xs, Struct ys -> compare_fields xs ys
  | Bag xs, Bag ys | Set xs, Set ys | List xs, List ys -> compare_lists xs ys
  | _ -> Int.compare (rank a) (rank b)

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

and compare_fields xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (nx, vx) :: xs', (ny, vy) :: ys' ->
      let c = String.compare nx ny in
      if c <> 0 then c
      else
        let c = compare vx vy in
        if c <> 0 then c else compare_fields xs' ys'

let equal a b = compare a b = 0

let numeric_compare a b =
  match (a, b) with
  | Int x, Float y -> Some (Float.compare (float_of_int x) y)
  | Float x, Int y -> Some (Float.compare x (float_of_int y))
  | Null, Null -> Some 0
  | Null, _ -> Some (-1)
  | _, Null -> Some 1
  | _ ->
      if rank a = rank b then Some (compare a b)
      else None

(* Whether [xs] is already canonical: non-decreasing for a bag, strictly
   increasing ([strict]) for a set. The sorts are stable, so an input that
   passes is exactly what sorting it would return, and one pass of
   [compare] replaces the sort. *)
let rec ordered ~strict = function
  | x :: (y :: _ as rest) ->
      let c = compare x y in
      (c < 0 || (c = 0 && not strict)) && ordered ~strict rest
  | [ _ ] | [] -> true

let bag xs = Bag (if ordered ~strict:false xs then xs else List.sort compare xs)

let merge_runs runs =
  let canonical run =
    if ordered ~strict:false run then run else List.sort compare run
  in
  let runs =
    List.filter_map (function [] -> None | run -> Some (canonical run)) runs
  in
  (* runs that follow one another (disjoint key ranges, say) need no
     merge: one compare per boundary shows it *)
  let rec last = function [ x ] -> x | _ :: xs -> last xs | [] -> Null in
  let rec consecutive = function
    | a :: (b :: _ as rest) ->
        compare (last a) (List.hd b) <= 0 && consecutive rest
    | [ _ ] | [] -> true
  in
  (* [List.merge] takes the earlier run's element on a tie, so merging
     adjacent runs pass by pass is one stable sort of their concatenation *)
  let rec pass = function
    | a :: b :: rest -> List.merge compare a b :: pass rest
    | rest -> rest
  in
  let rec go = function [] -> [] | [ run ] -> run | runs -> go (pass runs) in
  Bag (if consecutive runs then List.concat runs else go runs)

let set xs =
  Set (if ordered ~strict:true xs then xs else List.sort_uniq compare xs)

let list xs = List xs

let strct fields =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) fields in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then type_error "duplicate struct field %s" a
        else check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  Struct sorted

let field_opt v name =
  match v with
  | Struct fields -> List.assoc_opt name fields
  | Null -> Some Null
  | _ -> None

let field v name =
  match v with
  | Struct fields -> (
      match List.assoc_opt name fields with
      | Some x -> x
      | None -> type_error "struct has no field %s" name)
  | Null -> Null
  | other -> type_error "field access .%s on non-struct %s" name (type_name other)

let elements = function
  | Bag xs | Set xs | List xs -> xs
  | v -> type_error "expected a collection, got a %s" (type_name v)

let is_collection = function Bag _ | Set _ | List _ -> true | _ -> false

let to_int = function
  | Int i -> i
  | _ -> type_error "expected int"

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> type_error "expected numeric"

let bag_union a b =
  match (a, b) with
  | (Bag _ | Set _ | List _), (Bag _ | Set _ | List _) ->
      bag (elements a @ elements b)
  | _ -> type_error "union of non-collections"

let set_union a b = set (elements a @ elements b)

(* Multiset intersection / difference on the canonical sorted element
   lists. *)
let rec inter_sorted xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> []
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then x :: inter_sorted xs' ys'
      else if c < 0 then inter_sorted xs' ys
      else inter_sorted xs ys'

let rec diff_sorted xs ys =
  match (xs, ys) with
  | xs, [] -> xs
  | [], _ -> []
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then diff_sorted xs' ys'
      else if c < 0 then x :: diff_sorted xs' ys
      else diff_sorted xs ys'

let sorted_elements v =
  match v with
  | Bag xs | Set xs -> xs
  | List xs -> List.sort compare xs
  | _ -> elements v

let inter a b =
  match (a, b) with
  | Set xs, Set ys -> Set (inter_sorted xs ys)
  | _ -> Bag (inter_sorted (sorted_elements a) (sorted_elements b))

let diff a b =
  match (a, b) with
  | Set xs, Set ys -> Set (diff_sorted xs ys)
  | _ -> Bag (diff_sorted (sorted_elements a) (sorted_elements b))

let flatten c =
  let elems = elements c in
  let all = List.concat_map elements elems in
  match c with
  | Set _ when List.for_all (function Set _ -> true | _ -> false) elems ->
      set all
  | List _ when List.for_all (function List _ -> true | _ -> false) elems ->
      List all
  | _ -> bag all

let distinct c = set (elements c)

let map_elements f = function
  | Bag xs -> bag (List.map f xs)
  | Set xs -> set (List.map f xs)
  | List xs -> List (List.map f xs)
  | v -> type_error "map over non-collection %s" (type_name v)

let filter_elements p = function
  | Bag xs -> Bag (List.filter p xs)
  | Set xs -> Set (List.filter p xs)
  | List xs -> List (List.filter p xs)
  | _ -> type_error "filter over non-collection"

let cardinal c = List.length (elements c)
let agg_count c = Int (cardinal c)

let numeric_elements c =
  List.filter (function Null -> false | _ -> true) (elements c)

let agg_sum c =
  let xs = numeric_elements c in
  if List.for_all (function Int _ -> true | _ -> false) xs then
    Int (List.fold_left (fun acc v -> acc + to_int v) 0 xs)
  else Float (List.fold_left (fun acc v -> acc +. to_float v) 0.0 xs)

let agg_avg c =
  match numeric_elements c with
  | [] -> Null
  | xs ->
      let total = List.fold_left (fun acc v -> acc +. to_float v) 0.0 xs in
      Float (total /. float_of_int (List.length xs))

let extremum better c =
  match numeric_elements c with
  | [] -> Null
  | x :: xs ->
      List.fold_left
        (fun acc v ->
          match numeric_compare v acc with
          | Some cmp when better cmp -> v
          | _ -> acc)
        x xs

let agg_min c = extremum (fun cmp -> cmp < 0) c
let agg_max c = extremum (fun cmp -> cmp > 0) c

(* Naive like-matcher: % = any substring, _ = any char. Patterns are tiny
   schema-level strings, so backtracking cost is irrelevant. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pattern.[i] with
      | '%' ->
          (* try every suffix *)
          let rec attempt k = k <= ns && (go (i + 1) k || attempt (k + 1)) in
          attempt j
      | '_' -> j < ns && go (i + 1) (j + 1)
      | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f ->
      (* Keep a '.' or exponent so the text re-lexes as a float. *)
      let s = Printf.sprintf "%.12g" f in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s
      then Fmt.string ppf s
      else Fmt.pf ppf "%s.0" s
  | String s -> Fmt.pf ppf "%S" s
  | Object { oid_id; oid_class } -> Fmt.pf ppf "<%s#%d>" oid_class oid_id
  | Struct fields ->
      Fmt.pf ppf "struct(%a)"
        (Fmt.list ~sep:(Fmt.any ", ") pp_field)
        fields
  | Bag xs -> pp_coll ppf "Bag" xs
  | Set xs -> pp_coll ppf "Set" xs
  | List xs -> pp_coll ppf "List" xs

and pp_field ppf (name, v) = Fmt.pf ppf "%s: %a" name pp v

and pp_coll ppf kind xs =
  Fmt.pf ppf "%s(%a)" kind (Fmt.list ~sep:(Fmt.any ", ") pp) xs

let to_string v = Fmt.str "%a" pp v
