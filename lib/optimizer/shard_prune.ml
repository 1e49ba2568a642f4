module Expr = Disco_algebra.Expr
module Plan = Disco_physical.Plan
module Shard = Disco_shard.Shard
module V = Disco_value.Value

(* -- constraint collection --

   A constraint is a (path, Shard.constr) pair in the namespace of the
   node currently being walked. Only shapes that certainly restrict the
   shard key are collected; everything else is ignored (the pass must
   never prune a shard that could hold an answer). *)

let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let constr_of_cmp op c =
  match op with
  | Expr.Eq -> Some (Shard.Ceq c)
  | Expr.Lt -> Some (Shard.Clt c)
  | Expr.Le -> Some (Shard.Cle c)
  | Expr.Gt -> Some (Shard.Cgt c)
  | Expr.Ge -> Some (Shard.Cge c)
  | Expr.Ne | Expr.Like -> None

(* [Const c op Attr p] reads backwards: c < x means x > c. *)
let flip_cmp = function
  | Expr.Lt -> Expr.Gt
  | Expr.Le -> Expr.Ge
  | Expr.Gt -> Expr.Lt
  | Expr.Ge -> Expr.Le
  | (Expr.Eq | Expr.Ne | Expr.Like) as op -> op

let constraints_of_pred pred =
  List.filter_map
    (function
      | Expr.Cmp (op, Expr.Attr p, Expr.Const c) ->
          Option.map (fun k -> (p, k)) (constr_of_cmp op c)
      | Expr.Cmp (op, Expr.Const c, Expr.Attr p) ->
          Option.map (fun k -> (p, k)) (constr_of_cmp (flip_cmp op) c)
      | Expr.Member (Expr.Attr p, keys) when V.is_collection keys ->
          Some (p, Shard.Cin (V.elements keys))
      | _ -> None)
    (conjuncts pred)

(* Translate constraint paths through a [Map] head. A binding struct
   [struct(x: @elem)] turns [x.id] into [id]; an aliasing struct
   [struct(a: b)] turns [a.rest] into [b.rest]; [Hscalar (Attr p)]
   prefixes every path with [p]. Constraints on computed fields drop. *)
let translate_constrs head constrs =
  match head with
  | Expr.Hscalar (Expr.Attr p) ->
      Some (List.map (fun (q, k) -> (p @ q, k)) constrs)
  | Expr.Hscalar _ -> None
  | Expr.Hstruct fields ->
      if
        List.for_all
          (fun (_, s) -> match s with Expr.Attr _ -> true | _ -> false)
          fields
      then
        Some
          (List.filter_map
             (fun (path, k) ->
               match path with
               | f :: rest -> (
                   match List.assoc_opt f fields with
                   | Some (Expr.Attr p) -> Some (p @ rest, k)
                   | _ -> None)
               | [] -> None)
             constrs)
      else None

(* Per-shard-child key constraints, for the static analyzer: the same
   collection-and-translation walk as [prune], but instead of dropping
   excluded submits it reports, for every shard-child scan, the
   constraints that reached its shard key. An empty list for every scan
   of a partition means pruning can never fire on this expression. *)
let key_constraints ~shard expr =
  let acc = ref [] in
  let rec walk constrs e =
    match e with
    | Expr.Get name -> (
        match shard name with
        | None -> ()
        | Some (p, _) ->
            let ks =
              List.filter_map
                (fun (path, c) ->
                  if path = [ p.Shard.p_key ] then Some c else None)
                constrs
            in
            acc := (name, ks) :: !acc)
    | Expr.Select (inner, pred) ->
        walk (constraints_of_pred pred @ constrs) inner
    | Expr.Map (inner, head) -> (
        match translate_constrs head constrs with
        | Some constrs' -> walk constrs' inner
        | None -> walk [] inner)
    | Expr.Join _ -> Expr.fold_children (fun () -> walk []) () e
    | _ -> Expr.fold_children (fun () -> walk constrs) () e
  in
  walk [] expr;
  List.rev !acc

let empty_bag = Expr.Data (V.Bag [])

let is_empty_bag = function
  | Expr.Data v -> ( try V.cardinal v = 0 with V.Type_error _ -> false)
  | _ -> false

let prune ?metrics ~shard located =
  let pruned = ref 0 and scanned = ref 0 in
  let changed = ref false in
  (* Does the constraint set exclude every row the submit could
     produce? The constraints live in the submit's *output* namespace,
     and pushdown can move a renaming [Map] inside the submit
     (rules.ml), so paths must be translated through the inner
     expression — the same walk the outer tree gets — before they may
     match a shard key. Conservative throughout: anything that cannot
     be translated certainly (computed heads, joins, constant data,
     non-shard extents) fails to exclude. *)
  let rec excluded constrs inner =
    match inner with
    | Expr.Get name -> (
        match shard name with
        | None -> false
        | Some (p, k) ->
            let key_constrs =
              List.filter_map
                (fun (path, c) ->
                  if path = [ p.Shard.p_key ] then Some c else None)
                constrs
            in
            key_constrs <> [] && not (Shard.admits p k key_constrs))
    | Expr.Data _ ->
        (* constant rows are not bounded by any shard's key range *)
        false
    | Expr.Select (e, pred) -> excluded (constraints_of_pred pred @ constrs) e
    | Expr.Map (e, head) -> (
        match translate_constrs head constrs with
        | Some constrs' -> excluded constrs' e
        | None -> excluded [] e)
    | Expr.Project (e, _) | Expr.Distinct e | Expr.Submit (_, e) ->
        excluded constrs e
    | Expr.Union es -> es <> [] && List.for_all (excluded constrs) es
    | Expr.Join _ ->
        (* join output merges both binding structs; no per-side
           translation is attempted *)
        false
  in
  let touches_shard inner =
    List.exists (fun name -> shard name <> None) (Expr.gets inner)
  in
  let rec walk constrs expr =
    match expr with
    | Expr.Submit (_, inner) when touches_shard inner ->
        if excluded constrs inner then (
          incr pruned;
          changed := true;
          empty_bag)
        else (
          incr scanned;
          expr)
    | Expr.Submit _ | Expr.Get _ | Expr.Data _ -> expr
    | Expr.Select (inner, pred) ->
        Expr.Select (walk (constraints_of_pred pred @ constrs) inner, pred)
    | Expr.Map (inner, head) -> (
        match translate_constrs head constrs with
        | Some constrs' -> Expr.Map (walk constrs' inner, head)
        | None -> Expr.Map (walk [] inner, head))
    | Expr.Project (inner, attrs) -> Expr.Project (walk constrs inner, attrs)
    | Expr.Distinct inner -> Expr.Distinct (walk constrs inner)
    | Expr.Union es -> (
        (* dropping empty members is sound for bag union *)
        match List.filter (fun e -> not (is_empty_bag e)) (List.map (walk constrs) es) with
        | [] -> empty_bag
        | [ single ] -> single
        | members -> Expr.Union members)
    | Expr.Join (l, r, pairs) ->
        (* join outputs merge both binding structs; translating paths
           into one side needs per-side field sets — reset instead *)
        Expr.Join (walk [] l, walk [] r, pairs)
  in
  let result = walk [] located in
  Option.iter
    (fun m ->
      if !pruned > 0 then Disco_obs.Metrics.incr ~by:!pruned m "shard.pruned";
      if !scanned > 0 then Disco_obs.Metrics.incr ~by:!scanned m "shard.scanned")
    metrics;
  if !changed then result else located

(* -- gather-step rewrite -- *)

let merge_rewrite ~shard plan =
  (* A union is the gather step of one hash-sharded scan only when its
     members partition the extent: each member is a chain of unary
     operators over a single [Exec] scanning exactly one shard child,
     every child belongs to the same hash partition, and no child is
     scanned by two members. The merge's dedup drops cross-branch
     duplicates, so any looser shape — a member scanning the whole
     extent, the same child in two branches, constant data, joins —
     could carry legitimately duplicated tuples of a bag union and must
     keep plain [Mk_union] semantics. *)
  let rec member_scans p =
    match p with
    | Plan.Exec (_, e) -> Some (List.sort_uniq String.compare (Expr.gets e))
    | Plan.Mk_select (q, _) | Plan.Mk_project (q, _) | Plan.Mk_map (q, _)
    | Plan.Mk_distinct q ->
        member_scans q
    | _ -> None
  in
  let hash_child name =
    match shard name with
    | Some (p, _) -> (
        match p.Shard.p_scheme with
        | Shard.Hash _ -> Some p
        | Shard.Range _ -> None)
    | None -> None
  in
  let member_child p =
    match member_scans p with
    | Some [ name ] ->
        Option.map (fun part -> (name, part)) (hash_child name)
    | Some _ | None -> None
  in
  let hash_sharded_family ps =
    match List.map member_child ps with
    | [] -> false
    | children ->
        List.for_all (fun c -> c <> None) children
        &&
        let children = List.filter_map Fun.id children in
        (match children with
        | (_, p0) :: rest -> List.for_all (fun (_, p) -> p = p0) rest
        | [] -> false)
        &&
        let names = List.map fst children in
        List.length (List.sort_uniq String.compare names) = List.length names
  in
  let rec go p =
    match Plan.map_children go p with
    | Plan.Mk_union ps when hash_sharded_family ps -> Plan.Mk_shard_merge ps
    | p -> p
  in
  go plan
