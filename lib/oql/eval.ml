module V = Disco_value.Value
module Values = Set.Make (V)

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

type env = {
  vars : (string * V.t) list;  (* innermost first *)
  resolve : string -> V.t option;
  interface_names : string list;
}

let env ?(resolve = fun _ -> None) ?(interface_names = []) () =
  { vars = []; resolve; interface_names }

let with_binding e name v = { e with vars = (name, v) :: e.vars }

let truthy = function V.Bool b -> b | _ -> false

let lookup e name =
  match List.assoc_opt name e.vars with
  | Some v -> Some v
  | None -> (
      match e.resolve name with
      | Some v -> Some v
      | None ->
          if List.mem name e.interface_names then Some (V.String name)
          else None)

let arith op a b =
  match (a, b) with
  | V.Null, _ | _, V.Null -> V.Null
  | V.Int x, V.Int y -> (
      match op with
      | Ast.Add -> V.Int (x + y)
      | Ast.Sub -> V.Int (x - y)
      | Ast.Mul -> V.Int (x * y)
      | Ast.Div ->
          if y = 0 then eval_error "division by zero" else V.Int (x / y)
      | Ast.Mod ->
          if y = 0 then eval_error "modulo by zero" else V.Int (x mod y)
      | _ -> assert false)
  | V.String x, V.String y when op = Ast.Add -> V.String (x ^ y)
  | (V.Int _ | V.Float _), (V.Int _ | V.Float _) -> (
      let x = V.to_float a and y = V.to_float b in
      match op with
      | Ast.Add -> V.Float (x +. y)
      | Ast.Sub -> V.Float (x -. y)
      | Ast.Mul -> V.Float (x *. y)
      | Ast.Div ->
          if y = 0.0 then eval_error "division by zero" else V.Float (x /. y)
      | Ast.Mod -> eval_error "modulo requires integers"
      | _ -> assert false)
  | _ ->
      eval_error "arithmetic on %s and %s" (V.type_name a) (V.type_name b)

let compare_vals op a b =
  match V.numeric_compare a b with
  | None ->
      eval_error "cannot compare %s with %s" (V.type_name a) (V.type_name b)
  | Some c ->
      V.Bool
        (match op with
        | Ast.Eq -> c = 0
        | Ast.Ne -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0
        | _ -> assert false)

let rec eval e q =
  match q with
  | Ast.Const v -> v
  | Ast.Ident name -> (
      match lookup e name with
      | Some v -> v
      | None -> eval_error "unbound name %s" name)
  | Ast.Extent_star name -> (
      (* The mediator resolves [person*] before local evaluation; a
         resolver may still supply it directly (keyed with the star). *)
      match lookup e (name ^ "*") with
      | Some v -> v
      | None -> eval_error "unresolved subtype extent %s*" name)
  | Ast.Path (base, field) -> (
      let v = eval e base in
      try V.field v field
      with V.Type_error m -> eval_error "%s" m)
  | Ast.Binop (Ast.And, a, b) ->
      V.Bool (truthy (eval e a) && truthy (eval e b))
  | Ast.Binop (Ast.Or, a, b) ->
      V.Bool (truthy (eval e a) || truthy (eval e b))
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod) as op), a, b)
    ->
      arith op (eval e a) (eval e b)
  | Ast.Binop (Ast.Like, a, b) -> (
      match (eval e a, eval e b) with
      | V.String str, V.String pattern -> V.Bool (V.like_match ~pattern str)
      | V.Null, _ | _, V.Null -> V.Bool false
      | va, vb ->
          eval_error "like requires strings, got %s and %s" (V.type_name va)
            (V.type_name vb))
  | Ast.Binop (op, a, b) -> compare_vals op (eval e a) (eval e b)
  | Ast.Unop (Ast.Not, a) -> V.Bool (not (truthy (eval e a)))
  | Ast.Unop (Ast.Neg, a) -> (
      match eval e a with
      | V.Int i -> V.Int (-i)
      | V.Float f -> V.Float (-.f)
      | V.Null -> V.Null
      | v -> eval_error "cannot negate a %s" (V.type_name v))
  | Ast.Call (f, args) -> eval_call e f (List.map (eval e) args)
  | Ast.Struct_expr fields ->
      V.strct (List.map (fun (n, q) -> (n, eval e q)) fields)
  | Ast.Coll_expr (kind, elems) -> (
      let vs = List.map (eval e) elems in
      match kind with
      | Ast.Kbag -> V.bag vs
      | Ast.Kset -> V.set vs
      | Ast.Klist -> V.list vs)
  | Ast.Select sel -> eval_select e sel
  | Ast.Quant (kind, var, coll_q, body) -> (
      let coll = eval e coll_q in
      if not (V.is_collection coll) then
        eval_error "quantifier over a %s" (V.type_name coll)
      else
        let holds v = truthy (eval (with_binding e var v) body) in
        match kind with
        | Ast.Exists -> V.Bool (List.exists holds (V.elements coll))
        | Ast.Forall -> V.Bool (List.for_all holds (V.elements coll)))

and eval_call _e f args =
  let one name = function
    | [ v ] -> v
    | args -> eval_error "%s expects 1 argument, got %d" name (List.length args)
  in
  let collection name v =
    if V.is_collection v then v
    else eval_error "%s expects a collection, got %s" name (V.type_name v)
  in
  try
    match (f, args) with
    | "union", [] -> V.bag []
    | "union", first :: rest ->
        List.fold_left V.bag_union (collection "union" first) rest
    | "intersect", [ a; b ] -> V.inter a b
    | "except", [ a; b ] -> V.diff a b
    | "flatten", args -> V.flatten (collection "flatten" (one "flatten" args))
    | "distinct", args -> V.distinct (collection "distinct" (one "distinct" args))
    | "count", args -> V.agg_count (collection "count" (one "count" args))
    | "sum", args -> V.agg_sum (collection "sum" (one "sum" args))
    | "avg", args -> V.agg_avg (collection "avg" (one "avg" args))
    | "min", args -> V.agg_min (collection "min" (one "min" args))
    | "max", args -> V.agg_max (collection "max" (one "max" args))
    | "element", args -> (
        match V.elements (collection "element" (one "element" args)) with
        | [ v ] -> v
        | vs -> eval_error "element of a collection of %d" (List.length vs))
    | "exists", args ->
        V.Bool (V.cardinal (collection "exists" (one "exists" args)) > 0)
    | "abs", args -> (
        match one "abs" args with
        | V.Int i -> V.Int (abs i)
        | V.Float x -> V.Float (Float.abs x)
        | V.Null -> V.Null
        | v -> eval_error "abs of a %s" (V.type_name v))
    | name, _ -> eval_error "unknown function %s" name
  with V.Type_error m -> eval_error "%s" m

and eval_select e sel =
  let rows = ref [] in
  (* Dependent join: each binding's collection may reference variables
     bound by earlier bindings. Rows carry their sort keys so [order by]
     sees the binding environment, not just the projection. *)
  let rec loop e = function
    | [] ->
        let keep =
          match sel.sel_where with
          | None -> true
          | Some w -> truthy (eval e w)
        in
        if keep then
          let keys =
            List.map (fun (k, dir) -> (eval e k, dir)) sel.sel_order
          in
          rows := (eval e sel.sel_proj, keys) :: !rows
    | (var, coll_q) :: rest ->
        let coll = eval e coll_q in
        if not (V.is_collection coll) then
          eval_error "from-clause of %s ranges over a %s" var
            (V.type_name coll);
        List.iter
          (fun v -> loop (with_binding e var v) rest)
          (V.elements coll)
  in
  loop e sel.sel_from;
  let collected = List.rev !rows in
  match sel.sel_order with
  | [] ->
      let values = List.map fst collected in
      if sel.sel_distinct then V.set values else V.bag values
  | _ ->
      let cmp (_, ka) (_, kb) =
        let rec go ka kb =
          match (ka, kb) with
          | [], [] -> 0
          | (va, dir) :: ra, (vb, _) :: rb ->
              let c = V.compare va vb in
              let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
              if c <> 0 then c else go ra rb
          | _ -> 0
        in
        go ka kb
      in
      let sorted = List.stable_sort cmp collected in
      let values = List.map fst sorted in
      let values =
        if sel.sel_distinct then
          (* distinct keeps the first occurrence, preserving order *)
          let seen = ref Values.empty in
          List.filter
            (fun v ->
              if Values.mem v !seen then false
              else (
                seen := Values.add v !seen;
                true))
            values
        else values
      in
      V.list values

let eval_string e input = eval e (Parser.parse input)
