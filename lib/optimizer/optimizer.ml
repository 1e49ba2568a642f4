module Expr = Disco_algebra.Expr
module Rules = Disco_algebra.Rules
module Plan = Disco_physical.Plan
module Check = Disco_check.Check
module Cost_model = Disco_cost.Cost_model

let log_src = Logs.Src.create "disco.optimizer" ~doc:"Disco query optimizer"

module Log = (val Logs.src_log log_src)

type choice = {
  plan : Plan.plan;
  logical : Expr.expr;
  cost : Plan.cost;
  alternatives : int;
  verdict : Check.diag list option;
}

(* Enumerate join-commutation variants of an expression, breadth-first
   over the join nodes, capped at [limit] variants. *)
let join_variants ~limit e =
  let rec commute e =
    match e with
    | Expr.Join (l, r, pairs) ->
        let ls = commute l and rs = commute r in
        List.concat_map
          (fun l' ->
            List.concat_map
              (fun r' ->
                [
                  Expr.Join (l', r', pairs);
                  Expr.Join (r', l', List.map (fun (a, b) -> (b, a)) pairs);
                ])
              rs)
          ls
    | Expr.Select (inner, p) ->
        List.map (fun i -> Expr.Select (i, p)) (commute inner)
    | Expr.Map (inner, h) -> List.map (fun i -> Expr.Map (i, h)) (commute inner)
    | Expr.Project (inner, attrs) ->
        List.map (fun i -> Expr.Project (i, attrs)) (commute inner)
    | Expr.Distinct inner -> List.map (fun i -> Expr.Distinct i) (commute inner)
    | Expr.Union es ->
        (* unions multiply too fast; keep member order fixed *)
        [ Expr.Union es ]
    | Expr.Get _ | Expr.Data _ | Expr.Submit _ -> [ e ]
  in
  let variants = commute e in
  List.filteri (fun i _ -> i < limit) variants

(* Paper Section 3.3: when no cost information is available, "the
   optimizer will choose plans where the maximum amount of computation is
   done at the data source"; only then is the lowest mediator-side cost
   chosen. Candidates whose exec estimates are all defaults are ranked by
   the work they push to sources (the summed size of their source
   expressions, larger first); mediator op count, estimated time and rows
   shipped break ties. The op count alone is no proxy for pushdown over a
   union: distributing a select or map over its branches adds a mediator
   node per branch, whether or not the branches then absorb it. Estimated
   times take over as soon as recorded costs inform every exec of a
   candidate. *)
let better (a : Plan.cost * int * int) (b : Plan.cost * int * int) =
  let ca, opsa, pusheda = a and cb, opsb, pushedb = b in
  let informed c = c.Plan.defaulted_execs = 0 in
  match (informed ca, informed cb) with
  | true, false -> true
  | false, true ->
      (* a default-based estimate is optimistic fiction (time 0); never
         let it displace a plan whose cost is actually known *)
      false
  | true, true ->
      if ca.Plan.time_ms <> cb.Plan.time_ms then
        ca.Plan.time_ms < cb.Plan.time_ms
      else if ca.Plan.shipped <> cb.Plan.shipped then
        ca.Plan.shipped < cb.Plan.shipped
      else opsa < opsb
  | false, false ->
      (* the paper's default rule: maximum computation at the sources *)
      if pusheda <> pushedb then pusheda > pushedb
      else if opsa <> opsb then opsa < opsb
      else if ca.Plan.time_ms <> cb.Plan.time_ms then
        ca.Plan.time_ms < cb.Plan.time_ms
      else ca.Plan.shipped < cb.Plan.shipped

(* Join-commutation variants explored per optimization. *)
let join_variant_limit = 8

let optimize ?params ?metrics ?(batch = false) ?check ?shard ~can_push ~cost
    located =
  (* Partition pruning runs once, on the located tree, before any
     enumeration: every candidate then inherits the reduced scan set.
     With no shard resolver the tree passes through untouched. *)
  let located =
    match shard with
    | None -> located
    | Some f -> Shard_prune.prune ?metrics ~shard:f located
  in
  (* The gather step of a hash-sharded scan must deduplicate
     double-covered tuples; rewrite each implemented candidate. *)
  let shard_merge plan =
    match shard with
    | None -> plan
    | Some f -> Shard_prune.merge_rewrite ~shard:f plan
  in
  let on_rule =
    Option.map
      (fun m stage ->
        Disco_obs.Metrics.incr m "optimizer.rules_fired";
        Disco_obs.Metrics.incr m ("optimizer.rule." ^ stage))
      metrics
  in
  let enumerated =
    (* join commutations of the located tree ... *)
    located :: join_variants ~limit:join_variant_limit located
    (* ... each at every pushdown level: capability-maximal, none, and
       as-written *)
    |> List.concat_map (fun v ->
           [
             Rules.normalize ~can_push ?on_rule v;
             Rules.normalize ~can_push:Rules.push_none ?on_rule v;
             v;
           ])
  in
  let candidates = List.sort_uniq compare enumerated in
  let informed repo expr =
    match (Cost_model.estimate cost ~repo expr).Cost_model.est_basis with
    | Cost_model.Default -> false
    | Cost_model.Exact _ | Cost_model.Close _ | Cost_model.Indexed -> true
  in
  let pushed_size p =
    List.fold_left
      (fun acc (_, e) -> acc + Expr.size e)
      0 (Plan.all_source_exprs p)
  in
  let per_candidate =
    List.map
      (fun logical ->
        match shard_merge (Plan.implement logical) with
        | plan ->
            (* also consider semijoin reductions where the cost model
               has real statistics for both sides *)
            ( logical,
              List.map
                (fun p -> (logical, p))
                (plan :: Plan.semijoin_variants ~informed plan) )
        | exception Plan.Physical_error _ -> (logical, []))
      candidates
  in
  let implemented = List.concat_map snd per_candidate in
  (* The enumeration re-derives the same candidate along many paths: a
     pushdown level that rewrote nothing, a commutation that recreated
     the original order, two logicals implementing to one physical tree.
     Cost each distinct plan exactly once — keeping the first occurrence
     preserves the final choice, because the ranking keeps the earliest
     among equals first. *)
  let unique =
    List.rev
      (List.fold_left
         (fun acc ((_, p) as cand) ->
           if List.exists (fun (_, p') -> p' = p) acc then acc
           else cand :: acc)
         [] implemented)
  in
  (* what the enumeration produced before any deduplication: duplicate
     logical candidates contribute their whole plan-variant list *)
  let raw_count =
    List.fold_left
      (fun acc l ->
        acc
        +
        match List.assoc_opt l per_candidate with
        | Some plans -> List.length plans
        | None -> 0)
      0 enumerated
  in
  Option.iter
    (fun m ->
      Disco_obs.Metrics.observe m "optimizer.candidates_raw"
        (float_of_int (max 1 raw_count));
      Disco_obs.Metrics.observe m "optimizer.candidates"
        (float_of_int (max 1 (List.length unique))))
    metrics;
  (* With no implementable candidate, the located expression itself is
     the only one. *)
  let candidates =
    match unique with
    | [] -> [ (located, shard_merge (Plan.implement located)) ]
    | _ -> unique
  in
  (* [better] is a strict weak order, so the stable sort puts the
     cheapest plan first, and the earliest among equals. *)
  let ranking =
    List.stable_sort
      (fun (_, _, a) (_, _, b) ->
        if better a b then -1 else if better b a then 1 else 0)
      (List.map
         (fun (logical, p) ->
           ( logical,
             p,
             ( Plan.estimate ?params ~batch cost p,
               Plan.mediator_op_count p,
               pushed_size p ) ))
         candidates)
  in
  (* Only the plan that runs is verified: the cheapest, or under
     [Enforce] the cheapest without errors. If every plan has errors, the
     first candidate's are raised. *)
  let verdict, (logical, plan, (best_cost, _, _)) =
    match check with
    | None | Some (_, Check.Off) -> (None, List.hd ranking)
    | Some (checker, mode) ->
        let rec pick = function
          | ((_, p, _) as c) :: rest ->
              let ds = Check.check_plan checker p in
              Check.report ?metrics ds;
              if mode = Check.Enforce && Check.has_errors ds then pick rest
              else (Some ds, c)
          | [] ->
              let _, p = List.hd candidates in
              raise
                (Check.Check_error (Check.errors (Check.check_plan checker p)))
        in
        pick ranking
  in
  Log.debug (fun m ->
      m "chose plan (%.3f ms, %.1f shipped) out of %d candidates: %s"
        best_cost.Plan.time_ms best_cost.Plan.shipped (List.length ranking)
        (Plan.to_string plan));
  { plan; logical; cost = best_cost; alternatives = List.length ranking; verdict }
