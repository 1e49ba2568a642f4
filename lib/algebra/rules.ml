open Expr

type can_push = repo:string -> Expr.expr -> bool

let push_all ~repo:_ _ = true
let push_none ~repo:_ _ = false

(* -- generic bottom-up rewriting -- *)

let bottom_up f e =
  let rec go e = f (map_children go e) in
  go e

let rec fixpoint ?(fuel = 32) step e =
  if fuel = 0 then e
  else
    let e' = step e in
    if equal e e' then e else fixpoint ~fuel:(fuel - 1) step e'

(* -- conjunct handling -- *)

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | True -> []
  | p -> [ p ]

let conj = function
  | [] -> True
  | first :: rest -> List.fold_left (fun acc p -> And (acc, p)) first rest

(* -- substitution of paths through a projection head -- *)

let subst_path_via_head h path =
  match (h, path) with
  | Hscalar s, [] -> Some s
  | Hscalar (Attr base), rest -> Some (Attr (base @ rest))
  | Hscalar _, _ :: _ -> None
  | Hstruct _, [] -> None
  | Hstruct fields, x :: rest -> (
      match List.assoc_opt x fields with
      | Some (Attr base) -> Some (Attr (base @ rest))
      | Some s when rest = [] -> Some s
      | Some _ | None -> None)

let rec subst_scalar h = function
  | Attr path -> subst_path_via_head h path
  | Const v -> Some (Const v)
  | Arith (op, a, b) -> (
      match (subst_scalar h a, subst_scalar h b) with
      | Some a', Some b' -> Some (Arith (op, a', b'))
      | _ -> None)

let rec subst_pred h = function
  | True -> Some True
  | Cmp (op, a, b) -> (
      match (subst_scalar h a, subst_scalar h b) with
      | Some a', Some b' -> Some (Cmp (op, a', b'))
      | _ -> None)
  | Member (a, keys) ->
      Option.map (fun a' -> Member (a', keys)) (subst_scalar h a)
  | And (a, b) -> (
      match (subst_pred h a, subst_pred h b) with
      | Some a', Some b' -> Some (And (a', b'))
      | _ -> None)
  | Or (a, b) -> (
      match (subst_pred h a, subst_pred h b) with
      | Some a', Some b' -> Some (Or (a', b'))
      | _ -> None)
  | Not a -> Option.map (fun a' -> Not a') (subst_pred h a)

let subst_head outer inner =
  match outer with
  | Hscalar s -> Option.map (fun s' -> Hscalar s') (subst_scalar inner s)
  | Hstruct fields ->
      let substituted =
        List.map (fun (n, s) -> (n, subst_scalar inner s)) fields
      in
      if List.for_all (fun (_, o) -> o <> None) substituted then
        Some (Hstruct (List.map (fun (n, o) -> (n, Option.get o)) substituted))
      else None

(* -- rule passes -- *)

let extract_join_pairs e =
  let step = function
    | Select (Join (l, r, pairs), p) -> (
        match (binding_vars l, binding_vars r) with
        | Some lvars, Some rvars ->
            let is_var side = function
              | head :: _ -> List.mem head side
              | [] -> false
            in
            let extracted, kept =
              List.partition_map
                (fun c ->
                  match c with
                  | Cmp (Eq, Attr pa, Attr pb)
                    when is_var lvars pa && is_var rvars pb ->
                      Left (pa, pb)
                  | Cmp (Eq, Attr pa, Attr pb)
                    when is_var rvars pa && is_var lvars pb ->
                      Left (pb, pa)
                  | c -> Right c)
                (conjuncts p)
            in
            if extracted = [] then Select (Join (l, r, pairs), p)
            else
              let joined = Join (l, r, pairs @ extracted) in
              if kept = [] then joined else Select (joined, conj kept)
        | _ -> Select (Join (l, r, pairs), p))
    | e -> e
  in
  bottom_up step e

let push_selects e =
  let step = function
    | Select (Union es, p) -> Union (List.map (fun e -> Select (e, p)) es)
    | Select (Select (inner, p1), p2) -> Select (inner, And (p1, p2))
    | Select (Distinct inner, p) -> Distinct (Select (inner, p))
    | Select (Map (inner, h), p) as orig -> (
        match subst_pred h p with
        | Some p' -> Map (Select (inner, p'), h)
        | None -> orig)
    | Select (Join (l, r, pairs), p) -> (
        match (binding_vars l, binding_vars r) with
        | Some lvars, Some rvars ->
            let covered side c =
              match prefix_heads c with
              | Some heads -> List.for_all (fun h -> List.mem h side) heads
              | None -> false
            in
            let to_l, rest =
              List.partition (covered lvars) (conjuncts p)
            in
            let to_r, keep = List.partition (covered rvars) rest in
            let l = if to_l = [] then l else Select (l, conj to_l) in
            let r = if to_r = [] then r else Select (r, conj to_r) in
            let joined = Join (l, r, pairs) in
            if keep = [] then joined else Select (joined, conj keep)
        | _ -> Select (Join (l, r, pairs), p))
    | e -> e
  in
  bottom_up step e

let push_heads e =
  let step = function
    | Map (Map (inner, h1), h2) as orig -> (
        match subst_head h2 h1 with
        | Some fused -> Map (inner, fused)
        | None -> orig)
    | Map (Union es, h) -> Union (List.map (fun e -> Map (e, h)) es)
    | Project (Union es, attrs) ->
        Union (List.map (fun e -> Project (e, attrs)) es)
    | Distinct (Distinct inner) -> Distinct inner
    | e -> e
  in
  bottom_up step e

let absorb ~can_push e =
  let try_push repo body orig =
    if can_push ~repo body then Submit (repo, body) else orig
  in
  (* A head that only extracts attributes can be split: push a Project
     (the paper's project(name, get(r))) and keep the value-shaping Map
     on the mediator — the move that serves project-only wrappers. *)
  let head_attrs h =
    let attr_of = function Attr [ a ] -> Some a | _ -> None in
    match h with
    | Hscalar s -> Option.map (fun a -> [ a ]) (attr_of s)
    | Hstruct fields ->
        let attrs = List.map (fun (_, s) -> attr_of s) fields in
        if List.for_all (fun o -> o <> None) attrs then
          Some (List.sort_uniq String.compare (List.filter_map Fun.id attrs))
        else None
  in
  let step = function
    | Select (Submit (repo, inner), p) as orig -> (
        if can_push ~repo (Select (inner, p)) then Submit (repo, Select (inner, p))
        else
          (* a select absorbed before this one reached it: a grammar that
             takes one select over a scan may still take both as one
             conjunction *)
          match inner with
          | Select (base, p1) -> try_push repo (Select (base, And (p1, p))) orig
          | _ -> orig)
    | Project (Submit (repo, inner), attrs) as orig ->
        try_push repo (Project (inner, attrs)) orig
    | Map (Submit (repo, inner), h) as orig -> (
        if can_push ~repo (Map (inner, h)) then Submit (repo, Map (inner, h))
        else
          match head_attrs h with
          | Some attrs
            when (match inner with Project _ -> false | _ -> true)
                 && can_push ~repo (Project (inner, attrs)) ->
              Map (Submit (repo, Project (inner, attrs)), h)
          | _ -> orig)
    | Distinct (Submit (repo, inner)) as orig ->
        try_push repo (Distinct inner) orig
    | Join (Submit (r1, a), Submit (r2, b), pairs) as orig
      when String.equal r1 r2 ->
        try_push r1 (Join (a, b, pairs)) orig
    | e -> e
  in
  bottom_up step e

let simplify e =
  let step = function
    | Select (e, True) -> e
    | Select (Data (Disco_value.Value.Bag []), _) -> Data (Disco_value.Value.Bag [])
    | Union [ e ] -> e
    | Union es
      when List.exists (function Union _ -> true | _ -> false) es ->
        Union
          (List.concat_map
             (function Union inner -> inner | e -> [ e ])
             es)
    | Map (e, Hscalar (Attr [])) -> e
    | e -> e
  in
  bottom_up step e

let normalize ?(can_push = push_none) ?on_rule e =
  let stage name f e =
    let e' = f e in
    (match on_rule with
    | Some fire when not (equal e e') -> fire name
    | _ -> ());
    e'
  in
  let pipeline e =
    e
    |> stage "extract_join_pairs" extract_join_pairs
    |> stage "push_selects" push_selects
    |> stage "push_heads" push_heads
    |> stage "absorb" (absorb ~can_push)
    |> stage "simplify" simplify
  in
  fixpoint pipeline e
