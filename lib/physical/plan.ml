module Expr = Disco_algebra.Expr
module Cost_model = Disco_cost.Cost_model
module V = Disco_value.Value

type plan =
  | Exec of string * Expr.expr
  | Mk_data of V.t
  | Mk_select of plan * Expr.pred
  | Mk_project of plan * string list
  | Mk_map of plan * Expr.head
  | Nested_loop_join of plan * plan * (string list * string list) list
  | Hash_join of plan * plan * (string list * string list) list
  | Semi_join of plan * (string * Expr.expr) * (string list * string list) list
  | Mk_union of plan list
  | Mk_shard_merge of plan list
  | Mk_distinct of plan

exception Physical_error of string

let physical_error fmt =
  Format.kasprintf (fun s -> raise (Physical_error s)) fmt

let rec pp ppf = function
  | Exec (repo, e) -> Fmt.pf ppf "exec(%s, %a)" repo Expr.pp e
  | Mk_data v -> Fmt.pf ppf "mkdata(%d rows)" (try V.cardinal v with V.Type_error _ -> 1)
  | Mk_select (p, pred) -> Fmt.pf ppf "mkselect(%a, %a)" Expr.pp_pred pred pp p
  | Mk_project (p, attrs) ->
      Fmt.pf ppf "mkproj(%a, %a)"
        (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
        attrs pp p
  | Mk_map (p, h) -> (
      match h with
      | Expr.Hscalar s -> Fmt.pf ppf "mkmap(%a, %a)" Expr.pp_scalar s pp p
      | Expr.Hstruct _ -> Fmt.pf ppf "mkmap(struct, %a)" pp p)
  | Nested_loop_join (l, r, _) -> Fmt.pf ppf "nljoin(%a, %a)" pp l pp r
  | Hash_join (l, r, _) -> Fmt.pf ppf "hashjoin(%a, %a)" pp l pp r
  | Semi_join (l, (repo, re), _) ->
      Fmt.pf ppf "semijoin(%a, exec(%s, %a))" pp l repo Expr.pp re
  | Mk_union ps -> Fmt.pf ppf "mkunion(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp) ps
  | Mk_shard_merge ps ->
      Fmt.pf ppf "shardmerge(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp) ps
  | Mk_distinct p -> Fmt.pf ppf "mkdistinct(%a)" pp p

let to_string p = Fmt.str "%a" pp p

let rec implement = function
  | Expr.Submit (repo, e) -> Exec (repo, e)
  | Expr.Get name -> physical_error "unlocated collection %s" name
  | Expr.Data v -> Mk_data v
  | Expr.Select (e, p) -> Mk_select (implement e, p)
  | Expr.Project (e, attrs) -> Mk_project (implement e, attrs)
  | Expr.Map (e, h) -> Mk_map (implement e, h)
  | Expr.Join (l, r, pairs) ->
      if pairs = [] then Nested_loop_join (implement l, implement r, [])
      else Hash_join (implement l, implement r, pairs)
  | Expr.Union es -> Mk_union (List.map implement es)
  | Expr.Distinct e -> Mk_distinct (implement e)

let rec to_logical = function
  | Exec (repo, e) -> Expr.Submit (repo, e)
  | Mk_data v -> Expr.Data v
  | Mk_select (p, pred) -> Expr.Select (to_logical p, pred)
  | Mk_project (p, attrs) -> Expr.Project (to_logical p, attrs)
  | Mk_map (p, h) -> Expr.Map (to_logical p, h)
  | Nested_loop_join (l, r, pairs) | Hash_join (l, r, pairs) ->
      Expr.Join (to_logical l, to_logical r, pairs)
  | Semi_join (l, (repo, re), pairs) ->
      Expr.Join (to_logical l, Expr.Submit (repo, re), pairs)
  | Mk_union ps | Mk_shard_merge ps -> Expr.Union (List.map to_logical ps)
  | Mk_distinct p -> Expr.Distinct (to_logical p)

let map_children f p =
  match p with
  | Exec _ | Mk_data _ -> p
  | Mk_select (c, pred) -> Mk_select (f c, pred)
  | Mk_project (c, attrs) -> Mk_project (f c, attrs)
  | Mk_map (c, h) -> Mk_map (f c, h)
  | Nested_loop_join (l, r, pairs) ->
      let l = f l in
      Nested_loop_join (l, f r, pairs)
  | Hash_join (l, r, pairs) ->
      let l = f l in
      Hash_join (l, f r, pairs)
  | Semi_join (l, right, pairs) -> Semi_join (f l, right, pairs)
  | Mk_union ps -> Mk_union (List.map f ps)
  | Mk_shard_merge ps -> Mk_shard_merge (List.map f ps)
  | Mk_distinct c -> Mk_distinct (f c)

let fold_children f acc = function
  | Exec _ | Mk_data _ -> acc
  | Mk_select (c, _) | Mk_project (c, _) | Mk_map (c, _) | Mk_distinct c
  | Semi_join (c, _, _) ->
      f acc c
  | Nested_loop_join (l, r, _) | Hash_join (l, r, _) -> f (f acc l) r
  | Mk_union ps | Mk_shard_merge ps -> List.fold_left f acc ps

let execs p =
  let rec go acc = function Exec (r, e) -> (r, e) :: acc | p -> fold_children go acc p in
  List.rev (go [] p)

let substitute_execs f p =
  let rec go = function Exec (repo, e) -> f repo e | p -> map_children go p in
  go p

(* -- local execution -- *)

(* The hash join builds its table on the smaller input (fewer build rows
   for the same output); ties keep the historical right-side build. *)
let hash_build_side ~left ~right =
  let card v = try V.cardinal v with V.Type_error _ -> 1 in
  if card left < card right then `Left else `Right

let rec run_local = function
  | Exec (repo, _) ->
      physical_error "exec(%s) not substituted before local execution" repo
  | Mk_data v -> v
  | Mk_select (p, pred) ->
      V.filter_elements (fun elem -> Expr.eval_pred elem pred) (run_local p)
  | Mk_project (p, attrs) ->
      V.map_elements
        (fun elem ->
          V.strct (List.map (fun a -> (a, Expr.get_path elem [ a ])) attrs))
        (run_local p)
  | Mk_map (p, h) ->
      V.map_elements (fun elem -> Expr.eval_head elem h) (run_local p)
  | Nested_loop_join (l, r, pairs) ->
      let lv = run_local l and rv = run_local r in
      let rows =
        List.concat_map
          (fun le ->
            List.filter_map
              (fun re ->
                let merged = Expr.merge_structs le re in
                let ok =
                  List.for_all
                    (fun (pa, pb) ->
                      Expr.eval_pred merged
                        (Expr.Cmp (Expr.Eq, Expr.Attr pa, Expr.Attr pb)))
                    pairs
                in
                if ok then Some merged else None)
              (V.elements rv))
          (V.elements lv)
      in
      V.bag rows
  | Hash_join (l, r, pairs) ->
      let lv = run_local l and rv = run_local r in
      (* Build on the smaller input, keyed by the canonical rendering of
         the join-key values (numeric coercion folded in by keying
         floats); probe with the larger.  The merged struct keeps left
         fields first regardless of which side built. *)
      let key_of elem paths =
        List.map
          (fun path ->
            match Expr.get_path elem path with
            | V.Int i -> V.Float (float_of_int i)
            | v -> v)
          paths
      in
      let right_keys = List.map snd pairs and left_keys = List.map fst pairs in
      let build_elems, build_keys, probe_elems, probe_keys, merge =
        match hash_build_side ~left:lv ~right:rv with
        | `Right ->
            ( V.elements rv,
              right_keys,
              V.elements lv,
              left_keys,
              fun probe build -> Expr.merge_structs probe build )
        | `Left ->
            ( V.elements lv,
              left_keys,
              V.elements rv,
              right_keys,
              fun probe build -> Expr.merge_structs build probe )
      in
      let table = Hashtbl.create (max 16 (List.length build_elems)) in
      List.iter
        (fun be -> Hashtbl.add table (key_of be build_keys) be)
        build_elems;
      let rows =
        List.concat_map
          (fun pe ->
            List.rev_map
              (fun be -> merge pe be)
              (Hashtbl.find_all table (key_of pe probe_keys)))
          probe_elems
      in
      V.bag rows
  | Semi_join (_, (repo, _), _) ->
      physical_error "semijoin(%s) must be resolved by the runtime" repo
  | Mk_union ps ->
      (* the branches' runs merged, not their concatenation sorted *)
      V.merge_runs
        (List.map
           (fun p ->
             match run_local p with
             | V.Bag xs | V.Set xs | V.List xs -> xs
             | _ -> raise (V.Type_error "union of non-collections"))
           ps)
  | Mk_shard_merge ps ->
      (* A hash-ring rebalance window can double-cover a key range, so
         two shards may deliver the same tuple; drop tuples an earlier
         shard already produced, keeping each branch's own duplicates
         (bag semantics within a shard). *)
      let seen = Hashtbl.create 64 in
      let merged =
        List.concat_map
          (fun p ->
            let fresh =
              List.filter
                (fun e -> not (Hashtbl.mem seen e))
                (V.elements (run_local p))
            in
            List.iter (fun e -> Hashtbl.replace seen e ()) fresh;
            fresh)
          ps
      in
      V.bag merged
  | Mk_distinct p -> V.distinct (run_local p)

let all_source_exprs p =
  let rec go acc = function
    | Exec (repo, e) -> (repo, e) :: acc
    | Semi_join (_, right, _) as p -> right :: fold_children go acc p
    | p -> fold_children go acc p
  in
  List.rev (go [] p)

let rec semi_joins p =
  fold_children (fun n c -> n + semi_joins c) (match p with Semi_join _ -> 1 | _ -> 0) p

let rec degrade_semi_joins = function
  | Semi_join (l, (repo, re), pairs) ->
      Hash_join (degrade_semi_joins l, Exec (repo, re), pairs)
  | p -> map_children degrade_semi_joins p

(* Semijoin alternatives for joins whose both sides are single execs to
   distinct repositories. [informed repo expr] should report whether the
   cost model has real (non-default) statistics for that call — with the
   default 0/1 estimates a semijoin direction cannot be chosen sensibly,
   so none is generated. *)
let semijoin_variants ~informed plan =
  let rec go p =
    match p with
    | Mk_select (q, pred) -> List.map (fun q -> Mk_select (q, pred)) (go q)
    | Mk_project (q, attrs) -> List.map (fun q -> Mk_project (q, attrs)) (go q)
    | Mk_map (q, h) -> List.map (fun q -> Mk_map (q, h)) (go q)
    | Mk_distinct q -> List.map (fun q -> Mk_distinct q) (go q)
    | Hash_join ((Exec (r1, le) as l), (Exec (r2, re) as r), pairs)
      when r1 <> r2 && informed r1 le && informed r2 re ->
        let swapped = List.map (fun (a, b) -> (b, a)) pairs in
        [ p; Semi_join (l, (r2, re), pairs); Semi_join (r, (r1, le), swapped) ]
    | _ -> [ p ]
  in
  List.filter (fun p -> p <> plan) (go plan)

(* -- cost estimation -- *)

type params = {
  c_select : float;
  c_project : float;
  c_hash : float;
  c_nested : float;
  c_union : float;
  c_distinct : float;
  default_selectivity : float;
  default_join_selectivity : float;
}

let default_params =
  {
    c_select = 0.001;
    c_project = 0.001;
    c_hash = 0.002;
    c_nested = 0.0005;
    c_union = 0.0002;
    c_distinct = 0.002;
    default_selectivity = 0.33;
    default_join_selectivity = 0.05;
  }

type cost = {
  time_ms : float;
  rows : float;
  shipped : float;
  defaulted_execs : int;
}

let rec mediator_op_count p =
  fold_children (fun n c -> n + mediator_op_count c) 1 p

(* The share of its input a distinct keeps, at the mediator or pushed. *)
let distinct_ratio = 0.7

(* Paper Section 3.3 prices an exec with no history at time 0 and data 1.
   When the exec is a select/project/map/distinct chain over one extent
   whose bare scan is recorded at the same repository, that scan says
   more: the source reads the whole extent either way, so the chain takes
   the scan's time, and it returns the scan's rows scaled as the same
   operators would scale them at the mediator. Such an estimate is
   informed, so a pushed chain whose constants are new still competes
   with the recorded scan instead of losing to it by default. *)
let from_recorded_scan params model ~repo e =
  let rec chain scale = function
    | Expr.Select (e, _) -> chain (scale *. params.default_selectivity) e
    | Expr.Project (e, _) | Expr.Map (e, _) -> chain scale e
    | Expr.Distinct e -> chain (scale *. distinct_ratio) e
    | Expr.Get _ as scan -> Some (scale, scan)
    | _ -> None
  in
  match e with
  | Expr.Get _ -> None (* a bare scan was just estimated by the caller *)
  | _ -> (
      match chain 1.0 e with
      | None -> None
      | Some (scale, scan) -> (
          let est = Cost_model.estimate model ~repo scan in
          match est.Cost_model.est_basis with
          | Cost_model.Exact _ | Cost_model.Close _ ->
              Some { est with Cost_model.est_rows = est.Cost_model.est_rows *. scale }
          | Cost_model.Indexed | Cost_model.Default -> None))

let estimate ?(params = default_params) ?(batch = false) model plan =
  (* Under the batched transport, the first-round execs sharing a
     repository ride one round-trip: when the cost model has batch
     calibration for that repository, charge each member its amortized
     share of the predicted batch time instead of a stand-alone call. *)
  let batch_time =
    if not batch then fun _repo -> None
    else
      (* the distinct expressions of each repository's execs *)
      let buckets = Hashtbl.create 16 in
      List.iter
        (fun (repo, e) ->
          let seen = Option.value (Hashtbl.find_opt buckets repo) ~default:[] in
          if not (List.exists (Expr.equal e) seen) then
            Hashtbl.replace buckets repo (e :: seen))
        (execs plan);
      let shares = Hashtbl.create 16 in
      Hashtbl.iter
        (fun repo es ->
          let k = List.length es in
          if k >= 2 then
            Option.iter
              (fun t -> Hashtbl.replace shares repo (t /. float_of_int k))
              (Cost_model.estimate_batch model ~repo ~size:k))
        buckets;
      Hashtbl.find_opt shares
  in
  let rec go = function
    | Exec (repo, e) ->
        let est = Cost_model.estimate model ~repo e in
        let est =
          match est.Cost_model.est_basis with
          | Cost_model.Default ->
              Option.value (from_recorded_scan params model ~repo e) ~default:est
          | Cost_model.Exact _ | Cost_model.Close _ | Cost_model.Indexed -> est
        in
        {
          time_ms =
            (match batch_time repo with
            | Some t -> t
            | None -> est.Cost_model.est_time_ms);
          rows = est.Cost_model.est_rows;
          shipped = est.Cost_model.est_rows;
          defaulted_execs =
            (match est.Cost_model.est_basis with
            | Cost_model.Default -> 1
            | Cost_model.Exact _ | Cost_model.Close _ | Cost_model.Indexed ->
                0);
        }
    | Mk_data v ->
        let n = try float_of_int (V.cardinal v) with V.Type_error _ -> 1.0 in
        { time_ms = 0.0; rows = n; shipped = 0.0; defaulted_execs = 0 }
    | Mk_select (p, _) ->
        let c = go p in
        {
          c with
          time_ms = c.time_ms +. (params.c_select *. c.rows);
          rows = c.rows *. params.default_selectivity;
        }
    | Mk_project (p, _) ->
        let c = go p in
        {
          c with
          time_ms = c.time_ms +. (params.c_project *. c.rows);
        }
    | Mk_map (p, _) ->
        let c = go p in
        { c with time_ms = c.time_ms +. (params.c_project *. c.rows) }
    | Nested_loop_join (l, r, _) ->
        let cl = go l and cr = go r in
        {
          time_ms =
            (* inputs fetched in parallel, then the pairwise scan *)
            Float.max cl.time_ms cr.time_ms
            +. (params.c_nested *. cl.rows *. cr.rows);
          rows = cl.rows *. cr.rows *. params.default_join_selectivity;
          shipped = cl.shipped +. cr.shipped;
          defaulted_execs = cl.defaulted_execs + cr.defaulted_execs;
        }
    | Hash_join (l, r, _) ->
        let cl = go l and cr = go r in
        {
          time_ms =
            Float.max cl.time_ms cr.time_ms
            +. (params.c_hash *. (cl.rows +. cr.rows));
          rows = cl.rows *. cr.rows *. params.default_join_selectivity;
          shipped = cl.shipped +. cr.shipped;
          defaulted_execs = cl.defaulted_execs + cr.defaulted_execs;
        }
    | Semi_join (l, (repo, re), _) ->
        let cl = go l in
        let right_est = Cost_model.estimate model ~repo re in
        (* the membership filter keeps roughly the tuples matching some
           left key *)
        let reduced_rows =
          Float.min right_est.Cost_model.est_rows
            (cl.rows *. right_est.Cost_model.est_rows
            *. params.default_join_selectivity)
        in
        let reduction_ratio =
          if right_est.Cost_model.est_rows <= 0.0 then 1.0
          else reduced_rows /. right_est.Cost_model.est_rows
        in
        {
          (* phases are sequential: left completes before the right call;
             the reduced call is cheaper because transfer dominates *)
          time_ms =
            cl.time_ms
            +. (right_est.Cost_model.est_time_ms
               *. (0.2 +. (0.8 *. reduction_ratio)))
            +. (params.c_hash *. (cl.rows +. reduced_rows));
          rows = cl.rows *. right_est.Cost_model.est_rows
                 *. params.default_join_selectivity;
          shipped = cl.shipped +. reduced_rows;
          defaulted_execs =
            (cl.defaulted_execs
            +
            match right_est.Cost_model.est_basis with
            | Cost_model.Default -> 1
            | Cost_model.Exact _ | Cost_model.Close _ | Cost_model.Indexed ->
                0);
        }
    | Mk_union ps ->
        let cs = List.map go ps in
        {
          time_ms =
            List.fold_left (fun acc c -> Float.max acc c.time_ms) 0.0 cs
            +. params.c_union
               *. List.fold_left (fun acc c -> acc +. c.rows) 0.0 cs;
          rows = List.fold_left (fun acc c -> acc +. c.rows) 0.0 cs;
          shipped = List.fold_left (fun acc c -> acc +. c.shipped) 0.0 cs;
          defaulted_execs =
            List.fold_left (fun acc c -> acc + c.defaulted_execs) 0 cs;
        }
    | Mk_shard_merge ps ->
        (* as Mk_union, plus the per-row overlap check of the merge *)
        let cs = List.map go ps in
        let total_rows = List.fold_left (fun acc c -> acc +. c.rows) 0.0 cs in
        {
          time_ms =
            List.fold_left (fun acc c -> Float.max acc c.time_ms) 0.0 cs
            +. ((params.c_union +. params.c_hash) *. total_rows);
          rows = total_rows;
          shipped = List.fold_left (fun acc c -> acc +. c.shipped) 0.0 cs;
          defaulted_execs =
            List.fold_left (fun acc c -> acc + c.defaulted_execs) 0 cs;
        }
    | Mk_distinct p ->
        let c = go p in
        {
          c with
          time_ms = c.time_ms +. (params.c_distinct *. c.rows);
          rows = c.rows *. distinct_ratio;
        }
  in
  go plan
