module V = Disco_value.Value
module Lexer = Disco_lex.Lexer
module Stream = Disco_lex.Lexer.Stream

type field_equiv = {
  fe_src : string;
  fe_med : string;
  fe_scale : float;
  fe_offset : float;
}

type t = {
  collection : (string * string) option;  (* (source, mediator) *)
  fields : field_equiv list;
}

exception Map_error of string

let map_error fmt = Format.kasprintf (fun s -> raise (Map_error s)) fmt
let identity = { collection = None; fields = [] }

let check_unique side names =
  let sorted = List.sort String.compare names in
  let rec go = function
    | a :: (b :: _ as rest) ->
        if String.equal a b then map_error "duplicate %s name %s in map" side a
        else go rest
    | [ _ ] | [] -> ()
  in
  go sorted

let make_ext ?collection fields =
  check_unique "source" (List.map (fun f -> f.fe_src) fields);
  check_unique "mediator" (List.map (fun f -> f.fe_med) fields);
  List.iter
    (fun f ->
      if f.fe_scale <= 0.0 then
        map_error "field %s: scale must be positive" f.fe_med)
    fields;
  { collection; fields }

let plain src med = { fe_src = src; fe_med = med; fe_scale = 1.0; fe_offset = 0.0 }

let make ?collection fields =
  make_ext ?collection (List.map (fun (src, med) -> plain src med) fields)

let collection t = t.collection
let field_pairs t = List.map (fun f -> (f.fe_src, f.fe_med)) t.fields

let source_collection t name =
  match t.collection with
  | Some (src, med) when String.equal med name -> src
  | _ -> name

let find_by_med t name =
  List.find_opt (fun f -> String.equal f.fe_med name) t.fields

let find_by_src t name =
  List.find_opt (fun f -> String.equal f.fe_src name) t.fields

let source_field t name =
  match find_by_med t name with Some f -> f.fe_src | None -> name

let mediator_field t name =
  match find_by_src t name with Some f -> f.fe_med | None -> name

let is_identity_transform f = f.fe_scale = 1.0 && f.fe_offset = 0.0

let transform_of_mediator_field t name =
  match find_by_med t name with
  | Some f when not (is_identity_transform f) ->
      Some (f.fe_src, f.fe_scale, f.fe_offset)
  | _ -> None

let apply_transform f v =
  if is_identity_transform f then v
  else
    let integral = Float.is_integer f.fe_scale && Float.is_integer f.fe_offset in
    match v with
    | V.Int i when integral ->
        V.Int ((i * int_of_float f.fe_scale) + int_of_float f.fe_offset)
    | V.Int i -> V.Float ((float_of_int i *. f.fe_scale) +. f.fe_offset)
    | V.Float x -> V.Float ((x *. f.fe_scale) +. f.fe_offset)
    | other -> other

let convert_value_to_mediator t ~source_field v =
  match find_by_src t source_field with
  | Some f -> apply_transform f v
  | None -> v

let rec rename_struct_to_mediator t v =
  match v with
  | V.Struct fields ->
      V.strct
        (List.map
           (fun (n, x) ->
             match find_by_src t n with
             | Some f -> (f.fe_med, apply_transform f x)
             | None -> (n, x))
           fields)
  | V.Bag _ | V.Set _ | V.List _ ->
      V.map_elements (rename_struct_to_mediator t) v
  | other -> other

let compose_flat outer inner =
  (* mediator name --inner--> intermediate name --outer--> source name;
     values: med = inner(mid) = inner_scale * (outer_scale * src +
     outer_offset) + inner_offset *)
  let collection =
    match (inner.collection, outer.collection) with
    | None, None -> None
    | Some (src, med), None -> Some (src, med)
    | None, Some (src, med) -> Some (src, med)
    | Some (_, med), Some (src, _) -> Some (src, med)
  in
  let fields =
    List.map
      (fun inner_f ->
        match find_by_med outer inner_f.fe_src with
        | Some outer_f ->
            {
              fe_src = outer_f.fe_src;
              fe_med = inner_f.fe_med;
              fe_scale = inner_f.fe_scale *. outer_f.fe_scale;
              fe_offset =
                (inner_f.fe_scale *. outer_f.fe_offset) +. inner_f.fe_offset;
            }
        | None -> inner_f)
      inner.fields
    @ List.filter
        (fun outer_f ->
          not
            (List.exists
               (fun inner_f -> String.equal inner_f.fe_src outer_f.fe_med)
               inner.fields))
        outer.fields
  in
  make_ext ?collection fields

let pp_number ppf x =
  if Float.is_integer x then Fmt.pf ppf "%d" (int_of_float x)
  else Fmt.pf ppf "%g" x

let pp ppf t =
  let pp_collection ppf (src, med) = Fmt.pf ppf "(%s=%s)" src med in
  let pp_field ppf f =
    if is_identity_transform f then Fmt.pf ppf "(%s=%s)" f.fe_src f.fe_med
    else if f.fe_offset = 0.0 then
      Fmt.pf ppf "(%s*%a=%s)" f.fe_src pp_number f.fe_scale f.fe_med
    else
      Fmt.pf ppf "(%s*%a+%a=%s)" f.fe_src pp_number f.fe_scale pp_number
        f.fe_offset f.fe_med
  in
  let pp_entries ppf () =
    (match t.collection with
    | Some c ->
        pp_collection ppf c;
        if t.fields <> [] then Fmt.string ppf ","
    | None -> ());
    Fmt.list ~sep:(Fmt.any ",") pp_field ppf t.fields
  in
  Fmt.pf ppf "(%a)" pp_entries ()

let parse_number s =
  match Stream.next s with
  | Lexer.Int i -> float_of_int i
  | Lexer.Float f -> f
  | t -> Stream.failf s "expected a number in map, found %s" (Lexer.token_to_string t)

let parse_body s =
  Stream.eat_punct s "(";
  let rec entries acc =
    Stream.eat_punct s "(";
    let src = Stream.ident s in
    let scale = if Stream.try_punct s "*" then parse_number s else 1.0 in
    let offset = if Stream.try_punct s "+" then parse_number s else 0.0 in
    Stream.eat_punct s "=";
    let med = Stream.ident s in
    Stream.eat_punct s ")";
    let acc = { fe_src = src; fe_med = med; fe_scale = scale; fe_offset = offset } :: acc in
    if Stream.try_punct s "," then entries acc else List.rev acc
  in
  let all = entries [] in
  Stream.eat_punct s ")";
  (* The paper writes the collection equivalence first; it never carries a
     transform. *)
  match all with
  | [] -> identity
  | first :: rest ->
      if not (is_identity_transform first) then
        map_error "the collection equivalence cannot carry a transform";
      make_ext ~collection:(first.fe_src, first.fe_med) rest
