(* Oracle-based property tests for the trickiest machinery:

   - the Earley recognizer against a brute-force derivation enumerator;
   - the like-matcher against a naive backtracking oracle;
   - the three join algorithms against each other on random data;
   - cost-model smoothing bounds;
   - type-map composition;
   - the algebra's and the plan's child maps, and their walks' order;
   - template planning against branch-by-branch planning. *)

module V = Disco_value.Value
module Expr = Disco_algebra.Expr
module Grammar = Disco_wrapper.Grammar
module Typemap = Disco_odl.Typemap
module Cost_model = Disco_cost.Cost_model
module Plan = Disco_physical.Plan
module Rules = Disco_algebra.Rules

(* Under [QCHECK_LONG] a property runs [long_factor] times its count; the
   three [sql-oracle] properties, the slowest to find a bug, take 20. *)
let long_factor = 10

(* -- Earley vs brute force -- *)

(* Enumerate every token string the grammar derives up to a length bound,
   by breadth-first expansion of sentential forms. Exponential, fine for
   tiny grammars. *)
let brute_force_language (g : Grammar.t) ~max_len =
  let expand_first form =
    (* find the first nonterminal and expand it each possible way *)
    let rec go prefix = function
      | [] -> None
      | Grammar.N nt :: rest ->
          Some
            (List.filter_map
               (fun (p : Grammar.production) ->
                 if p.Grammar.lhs = nt then
                   Some (List.rev_append prefix (p.Grammar.rhs @ rest))
                 else None)
               g.Grammar.productions)
      | (Grammar.T _ as t) :: rest -> go (t :: prefix) rest
    in
    go [] form
  in
  let terminal_only form =
    if List.for_all (function Grammar.T _ -> true | Grammar.N _ -> false) form
    then Some (List.map (function Grammar.T t -> t | _ -> assert false) form)
    else None
  in
  let results = Hashtbl.create 64 in
  let rec walk form =
    if List.length form <= max_len + 4 then
      match terminal_only form with
      | Some tokens ->
          if List.length tokens <= max_len then
            Hashtbl.replace results tokens ()
      | None -> (
          match expand_first form with
          | Some expansions -> List.iter walk expansions
          | None -> ())
  in
  walk [ Grammar.N g.Grammar.start ];
  Hashtbl.fold (fun k () acc -> k :: acc) results []

let tiny_grammar =
  Grammar.parse
    {|
    a :- b
    a :- select OPEN p COMMA b CLOSE
    b :- get OPEN SOURCE CLOSE
    p :- ATTRIBUTE = CONST
    p :- p and p
  |}

let tiny_tokens =
  [ "a"; "b"; "select"; "get"; "OPEN"; "CLOSE"; "COMMA"; "SOURCE"; "ATTRIBUTE"; "CONST"; "="; "and" ]

let test_earley_vs_brute_force () =
  let max_len = 15 in
  let language = brute_force_language tiny_grammar ~max_len in
  Alcotest.(check bool) "language non-trivial" true (List.length language >= 2);
  (* everything derivable is accepted *)
  List.iter
    (fun tokens ->
      Alcotest.(check bool)
        (Fmt.str "derives [%s]" (String.concat " " tokens))
        true
        (Grammar.derives tiny_grammar tokens))
    language;
  (* and nothing else of the same lengths is: sample random strings *)
  let in_language tokens = List.mem tokens language in
  let rand_string seed len =
    List.init len (fun i ->
        List.nth tiny_tokens (Hashtbl.hash (seed, i) mod List.length tiny_tokens))
  in
  for seed = 0 to 499 do
    let len = 1 + (Hashtbl.hash (seed, "len") mod max_len) in
    let tokens = rand_string seed len in
    Alcotest.(check bool)
      (Fmt.str "agrees on [%s]" (String.concat " " tokens))
      (in_language tokens)
      (Grammar.derives tiny_grammar tokens)
  done

(* -- the verdict memo answers like a fresh Earley run -- *)

let memo_attrs = [ "id"; "name"; "salary"; "age" ]

let memo_scalar_gen =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          map (fun a -> Expr.Attr [ "x"; a ]) (oneofl memo_attrs);
          map (fun n -> Expr.Const (V.Int n)) small_nat;
        ]
    in
    frequency
      [ (4, leaf); (1, map2 (fun a b -> Expr.Arith (Expr.Add, a, b)) leaf leaf) ])

let memo_pred_gen =
  QCheck.Gen.(
    fix
      (fun self d ->
        let cmp =
          map3
            (fun op a b -> Expr.Cmp (op, a, b))
            (oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge; Like ])
            memo_scalar_gen memo_scalar_gen
        in
        let simple =
          map3
            (fun op a n -> Expr.Cmp (op, Expr.Attr [ "x"; a ], Expr.Const (V.Int n)))
            (oneofl Expr.[ Eq; Eq; Eq; Lt; Ge ])
            (oneofl memo_attrs) small_nat
        in
        let leaf =
          frequency
            [
              (6, simple);
              (3, cmp);
              (1, return Expr.True);
              ( 1,
                map (fun a -> Expr.Member (a, V.bag [ V.Int 1 ])) memo_scalar_gen
              );
            ]
        in
        if d = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              (1, map2 (fun a b -> Expr.And (a, b)) (self (d - 1)) (self (d - 1)));
              (1, map2 (fun a b -> Expr.Or (a, b)) (self (d - 1)) (self (d - 1)));
              (1, map (fun a -> Expr.Not a) (self (d - 1)));
            ])
      2)

(* Shallow selections over a scan dominate, so every standard grammar
   sees both accepted and refused sentences. *)
let memo_expr_gen =
  QCheck.Gen.(
    fix
      (fun self d ->
        let get = map (fun s -> Expr.Get s) (oneofl [ "s0"; "s1" ]) in
        if d = 0 then get
        else
          let sub = self (d - 1) in
          frequency
            [
              (2, get);
              (4, map2 (fun e p -> Expr.Select (e, p)) get memo_pred_gen);
              (2, map2 (fun e p -> Expr.Select (e, p)) sub memo_pred_gen);
              ( 2,
                map2
                  (fun e n -> Expr.Project (e, List.filteri (fun i _ -> i <= n) memo_attrs))
                  sub (int_bound 3) );
              (1, map (fun e -> Expr.Map (e, Expr.Hstruct [ ("x", Expr.Attr []) ])) sub);
              (1, map2 (fun e s -> Expr.Map (e, Expr.Hscalar s)) sub memo_scalar_gen);
              ( 1,
                map3
                  (fun l r keyed ->
                    Expr.Join
                      (l, r, if keyed then [ ([ "x"; "id" ], [ "y"; "id" ]) ] else []))
                  sub sub bool );
              (1, map2 (fun a b -> Expr.Union [ a; b ]) sub sub);
              (1, map (fun e -> Expr.Distinct e) sub);
              (1, return (Expr.Data (V.Int 0)));
            ])
      3)

let standard_grammars =
  [
    ("get_only", Grammar.get_only);
    ("project_no_compose", Grammar.project_no_compose);
    ("select_pushdown", Grammar.select_pushdown ());
    ("select_pushdown =,<", Grammar.select_pushdown ~comparisons:[ "="; "<" ] ());
    ("full_relational", Grammar.full_relational);
    ("key_lookup", Grammar.key_lookup);
    ("indexed_lookup", Grammar.indexed_lookup ~eq:[ "id" ] ~range:[ "salary" ] ());
    ("indexed_lookup eq", Grammar.indexed_lookup ~eq:[ "name" ] ());
  ]

(* Asked twice, so the second answer comes from the memo. *)
let prop_accepts_is_derives =
  QCheck.Test.make ~long_factor
    ~name:"memoised accepts = derives on every standard grammar"
    ~count:500
    (QCheck.make ~print:(Fmt.to_to_string Expr.pp) memo_expr_gen)
    (fun e ->
      let tokens = Grammar.tokens_of_expr e in
      List.for_all
        (fun (_, g) ->
          let fresh = Grammar.derives g tokens in
          Grammar.accepts g e = fresh && Grammar.accepts g e = fresh)
        standard_grammars)

(* More distinct sentences than the memo holds, through one grammar:
   every verdict, before and after the memo starts again, is Earley's. *)
let test_memo_past_its_bound () =
  let g = Grammar.select_pushdown () in
  let n = Grammar.memo_bound + 200 in
  let sentence i =
    let a = Printf.sprintf "a%d" i in
    if i mod 3 = 0 then Expr.Project (Expr.Get "s", [ a ])
    else
      Expr.Select
        (Expr.Get "s", Expr.Cmp (Expr.Eq, Expr.Attr [ "x"; a ], Expr.Const (V.Int i)))
  in
  let agree round =
    for i = 0 to n - 1 do
      let e = sentence i in
      Alcotest.(check bool)
        (Fmt.str "round %d: %a" round Expr.pp e)
        (Grammar.derives g (Grammar.tokens_of_expr e))
        (Grammar.accepts g e)
    done
  in
  agree 1;
  agree 2;
  Alcotest.(check bool) "accepts a selection" true (Grammar.accepts g (sentence 1));
  Alcotest.(check bool) "refuses a projection" false (Grammar.accepts g (sentence 0))

(* -- the algebra's and the plan's child maps and folds -- *)

(* [memo_expr_gen]'s trees, located at repositories at several depths *)
let located_expr_gen =
  QCheck.Gen.(
    fix
      (fun self d ->
        if d = 0 then memo_expr_gen
        else
          let sub = self (d - 1) in
          frequency
            [
              (3, memo_expr_gen);
              (2, map (fun e -> Expr.Submit ("r0", e)) sub);
              ( 1,
                map2 (fun a b -> Expr.Join (Expr.Submit ("r1", a), b, [])) sub sub
              );
              (1, map2 (fun a b -> Expr.Union [ a; Expr.Submit ("r0", b) ]) sub sub);
            ])
      3)

let prop_identity_rewrites =
  QCheck.Test.make ~long_factor
    ~name:"identity rewrites rebuild an equal tree" ~count:500
    (QCheck.make ~print:(Fmt.to_to_string Expr.pp) located_expr_gen)
    (fun e ->
      Expr.equal (Expr.map_children Fun.id e) e
      && Expr.equal (Rules.bottom_up Fun.id e) e
      && Expr.equal (Expr.map_submits (fun r b -> Expr.Submit (r, b)) e) e)

(* Slot order, batch ids and golden traces follow these walks' order. *)
let test_walk_orders () =
  let get name = Expr.Get name in
  let keys = [ ([ "x"; "id" ], [ "y"; "id" ]) ] in
  let plan =
    Plan.Mk_distinct
      (Plan.Hash_join
         ( Plan.Mk_shard_merge
             [ Plan.Exec ("r2", get "p__s0"); Plan.Exec ("r3", get "p__s1") ],
           Plan.Semi_join
             ( Plan.Nested_loop_join
                 ( Plan.Exec ("r0", get "a"),
                   Plan.Mk_union
                     [
                       Plan.Mk_select (Plan.Exec ("r1", get "b"), Expr.True);
                       Plan.Mk_data (V.bag []);
                       Plan.Exec ("r0", Expr.Union [ get "c"; get "d" ]);
                     ],
                   [] ),
               ("r4", get "e"),
               keys ),
           keys ))
  in
  let names = List.map (fun (repo, e) -> repo ^ ":" ^ Expr.to_string e) in
  let ready =
    [ "r2:get(p__s0)"; "r3:get(p__s1)"; "r0:get(a)"; "r1:get(b)";
      "r0:union(get(c), get(d))" ]
  in
  Alcotest.(check (list string)) "Plan.execs" ready (names (Plan.execs plan));
  Alcotest.(check (list string)) "Plan.all_source_exprs" (ready @ [ "r4:get(e)" ])
    (names (Plan.all_source_exprs plan));
  let logical = Plan.to_logical plan in
  Alcotest.(check (list string)) "Expr.gets"
    [ "p__s0"; "p__s1"; "a"; "b"; "c"; "d"; "e" ]
    (Expr.gets logical);
  Alcotest.(check (list string)) "Expr.submits" (ready @ [ "r4:get(e)" ])
    (names (Expr.submits logical));
  Alcotest.(check (list string)) "Expr.submits, nested"
    [ "r0:submit(r1, get(a))"; "r1:get(a)"; "r2:get(b)" ]
    (names
       (Expr.submits
          (Expr.Join
             ( Expr.Submit ("r0", Expr.Submit ("r1", get "a")),
               Expr.Submit ("r2", get "b"),
               [] ))))

(* -- like vs naive oracle -- *)

let oracle_like ~pattern s =
  (* dynamic programming over (pattern index, string index) *)
  let np = String.length pattern and ns = String.length s in
  let dp = Array.make_matrix (np + 1) (ns + 1) false in
  dp.(0).(0) <- true;
  for i = 1 to np do
    if pattern.[i - 1] = '%' then dp.(i).(0) <- dp.(i - 1).(0)
  done;
  for i = 1 to np do
    for j = 1 to ns do
      dp.(i).(j) <-
        (match pattern.[i - 1] with
        | '%' -> dp.(i - 1).(j) || dp.(i).(j - 1)
        | '_' -> dp.(i - 1).(j - 1)
        | c -> c = s.[j - 1] && dp.(i - 1).(j - 1))
    done
  done;
  dp.(np).(ns)

let prop_like_matches_oracle =
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_range 0 8))
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 0 10)))
  in
  QCheck.Test.make ~long_factor ~name:"like matches the DP oracle" ~count:2000
    (QCheck.make ~print:(fun (p, s) -> Fmt.str "pattern %S string %S" p s) gen)
    (fun (pattern, s) -> V.like_match ~pattern s = oracle_like ~pattern s)

(* -- the join algorithms agree with the reference [Join] on random inputs -- *)

(* Join keys mix ints and floats, some equal across kinds (2 = 2.0) and
   some matching nothing (2.5): the reference compares them like [=]. *)
let join_input_gen side =
  QCheck.Gen.(
    map
      (fun rows ->
        V.bag
          (List.map
             (fun (k, v) ->
               V.strct
                 [ (side, V.strct [ ("k", k); ("v", V.Int v) ]) ])
             rows))
      (list_size (int_range 0 15)
         (pair
            (oneof
               [
                 map (fun k -> V.Int k) (int_range 0 4);
                 map (fun k -> V.Float (float_of_int k)) (int_range 0 4);
                 map (fun k -> V.Float (float_of_int k +. 0.5)) (int_range 0 4);
               ])
            (int_range 0 100))))

let prop_join_algorithms_agree =
  let gen = QCheck.Gen.pair (join_input_gen "x") (join_input_gen "y") in
  QCheck.Test.make ~long_factor ~name:"hash and nested-loop = Join eval"
    ~count:300
    (QCheck.make ~print:(fun (l, r) -> Fmt.str "%s | %s" (V.to_string l) (V.to_string r)) gen)
    (fun (l, r) ->
      let reference pairs =
        Expr.eval ~resolve:(fun _ -> None)
          (Expr.Join (Expr.Data l, Expr.Data r, pairs))
      in
      let pairs = [ ([ "x"; "k" ], [ "y"; "k" ]) ] in
      let hj = Plan.run_local (Plan.Hash_join (Plan.Mk_data l, Plan.Mk_data r, pairs)) in
      let nl = Plan.run_local (Plan.Nested_loop_join (Plan.Mk_data l, Plan.Mk_data r, [])) in
      V.equal hj (reference pairs) && V.equal nl (reference []))

(* -- a union builds its bag with one sort -- *)

let union_branches_gen =
  QCheck.Gen.(
    list_size (int_range 0 5)
      (map2
         (fun as_set xs -> if as_set then V.set xs else V.bag xs)
         bool
         (list_size (int_range 0 6)
            (oneof
               [
                 map (fun k -> V.Int k) (int_range 0 4);
                 map (fun k -> V.Float (float_of_int k)) (int_range 0 4);
                 map (fun k -> V.String (string_of_int k)) (int_range 0 2);
               ]))))

let prop_union_one_sort =
  QCheck.Test.make ~long_factor
    ~name:"mkunion = left fold of bag_union" ~count:500
    (QCheck.make
       ~print:(fun bs -> String.concat " | " (List.map V.to_string bs))
       union_branches_gen)
    (fun branches ->
      let reference = List.fold_left V.bag_union (V.bag []) branches in
      Plan.run_local (Plan.Mk_union (List.map (fun b -> Plan.Mk_data b) branches))
      = reference)

let test_union_rejects_non_collection () =
  Alcotest.check_raises "non-collection branch"
    (V.Type_error "union of non-collections") (fun () ->
      ignore
        (Plan.run_local
           (Plan.Mk_union [ Plan.Mk_data (V.bag [ V.Int 1 ]); Plan.Mk_data (V.Int 2) ])))

(* -- cost smoothing stays within observed bounds -- *)

(* The estimate smooths exactly the last [history] records, newest
   first (the reference below is the smoothing over a plain list), and
   stays within their range. *)
let prop_smoothing_bounded =
  let gen =
    QCheck.Gen.(pair (int_range 1 16) (list_size (int_range 1 12) (int_range 1 1000)))
  in
  QCheck.Test.make ~long_factor
    ~name:"smoothed estimate within min/max of history"
    ~count:500
    (QCheck.make
       ~print:(fun (h, l) ->
         Fmt.str "history %d: %s" h (String.concat "," (List.map string_of_int l)))
       gen)
    (fun (history, times) ->
      let m = Cost_model.create ~history () in
      let e = Expr.Get "t" in
      List.iter
        (fun t ->
          Cost_model.record m ~repo:"r" ~expr:e ~time_ms:(float_of_int t)
            ~rows:t)
        times;
      let est = Cost_model.estimate m ~repo:"r" e in
      let kept = List.filteri (fun i _ -> i < history) (List.rev times) in
      let _, wsum, tsum =
        List.fold_left
          (fun (w, wsum, tsum) t ->
            (w *. 0.5, wsum +. w, tsum +. (w *. float_of_int t)))
          (0.5, 0.0, 0.0) kept
      in
      let lo = float_of_int (List.fold_left min max_int kept) in
      let hi = float_of_int (List.fold_left max 0 kept) in
      est.Cost_model.est_basis = Cost_model.Exact (List.length kept)
      && est.Cost_model.est_time_ms = tsum /. wsum
      && est.Cost_model.est_rows = tsum /. wsum
      && est.Cost_model.est_time_ms >= lo -. 1e-9
      && est.Cost_model.est_time_ms <= hi +. 1e-9)

(* -- recency: the smoothed estimate tracks a level shift -- *)

let test_smoothing_tracks_shift () =
  let m = Cost_model.create ~history:8 ~smoothing:0.5 () in
  let e = Expr.Get "t" in
  for _ = 1 to 8 do
    Cost_model.record m ~repo:"r" ~expr:e ~time_ms:100.0 ~rows:10
  done;
  for _ = 1 to 4 do
    Cost_model.record m ~repo:"r" ~expr:e ~time_ms:500.0 ~rows:10
  done;
  let est = Cost_model.estimate m ~repo:"r" e in
  Alcotest.(check bool)
    (Fmt.str "estimate %.0f leans to the new level" est.Cost_model.est_time_ms)
    true
    (est.Cost_model.est_time_ms > 400.0)

(* -- typemap composition -- *)

let test_typemap_compose () =
  let inner = Typemap.make ~collection:("mid", "top") [ ("m1", "t1") ] in
  let outer = Typemap.make ~collection:("src", "mid") [ ("s1", "m1") ] in
  let composed = Typemap.compose_flat outer inner in
  Alcotest.(check string) "field chains through" "s1"
    (Typemap.source_field composed "t1");
  Alcotest.(check string) "reverse direction" "t1"
    (Typemap.mediator_field composed "s1");
  Alcotest.(check string) "collection" "src"
    (Typemap.source_collection composed "top")

let prop_typemap_roundtrip =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 5)
        (pair
           (string_size ~gen:(char_range 'a' 'e') (return 2))
           (string_size ~gen:(char_range 'f' 'j') (return 2))))
  in
  QCheck.Test.make ~long_factor
    ~name:"typemap source/mediator roundtrip" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map (fun (a, b) -> a ^ "=" ^ b) l))
       gen)
    (fun pairs ->
      (* deduplicate both sides to satisfy the map invariant *)
      let dedup =
        List.fold_left
          (fun acc (s, m) ->
            if List.exists (fun (s', m') -> s = s' || m = m') acc then acc
            else (s, m) :: acc)
          [] pairs
      in
      let map = Typemap.make dedup in
      List.for_all
        (fun (s, m) ->
          Typemap.source_field map m = s && Typemap.mediator_field map s = m)
        dedup)

(* -- answer cache vs no cache: semantically invisible when sources are up -- *)

module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Datagen = Disco_source.Datagen
module Database = Disco_relation.Database
module Mediator = Disco_core.Mediator
module Runtime = Disco_runtime.Runtime
module Answer_cache = Disco_cache.Answer_cache

(* Three Person extents [person0..2] at [r0..r2], each behind a SQL
   wrapper ([w0]), or a scan-only one ([w1]) where [scan] lists it. *)
let federation ?cache ?(batch = true) ?retry ?(scan = []) () =
  let m =
    Mediator.create
      ~config:{ Mediator.Config.default with cache; batch; retry }
      ~name:"prop" ()
  in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      w1 := WrapperScan();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for i = 0 to 2 do
    let db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of db
         ~name:(Fmt.str "person%d" i)
         Datagen.person_schema
         (Datagen.person_rows ~seed:(1000 + i) ~n:8));
    Mediator.register_source m
      ~name:(Fmt.str "r%d" i)
      (Source.create ~id:(Fmt.str "p%d" i)
         ~address:
           (Source.address ~host:(Fmt.str "h%d" i) ~db_name:"db" ~ip:"0" ())
         (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="h%d", name="db", address="0");
           extent person%d of Person wrapper %s repository r%d;|}
         i i i
         (if List.mem i scan then "w1" else "w0")
         i)
  done;
  m

(* Random single-extent selections: attribute, comparator, threshold,
   projection. Small space, but it exercises normalization (flipped
   comparators share slots) and repeated thresholds (warm hits). *)
let query_gen =
  QCheck.Gen.(
    map3
      (fun attrib op threshold ->
        Fmt.str "select x.name from x in person where x.%s %s %d" attrib op
          threshold)
      (oneofl [ "salary"; "id" ])
      (oneofl [ ">"; "<"; ">="; "<="; "="; "!=" ])
      (int_range 0 30))

let prop_cache_transparent =
  QCheck.Test.make ~long_factor
    ~name:"answer cache is semantically invisible" ~count:60
    (QCheck.make
       ~print:(fun qs -> String.concat " ; " qs)
       QCheck.Gen.(list_size (int_range 1 6) query_gen))
    (fun queries ->
      let plain = federation () in
      let cached = federation ~cache:(Answer_cache.create ()) () in
      List.for_all
        (fun q ->
          let a = (Mediator.query plain q).Mediator.answer
          and b = (Mediator.query cached q).Mediator.answer in
          match (a, b) with
          | Mediator.Complete va, Mediator.Complete vb -> V.equal va vb
          | _ -> false)
        queries)

(* -- batched transport vs one-call-per-exec: same answers everywhere -- *)

(* A federation of [repos] sources each holding [extents_per] Person
   extents; repositories listed in [down] never answer.  Both transports
   get an answer cache, so repeated queries also exercise the cache-hit
   path under batching. *)
let batch_federation ~batch ~repos ~extents_per ~down () =
  let m =
    Mediator.create
      ~config:
        {
          Mediator.Config.default with
          batch;
          cache = Some (Answer_cache.create ());
        }
      ~name:"prop_batch" ()
  in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for r = 0 to repos - 1 do
    let db = Database.create ~name:"db" in
    for e = 0 to extents_per - 1 do
      let idx = (r * extents_per) + e in
      ignore
        (Datagen.table_of db
           ~name:(Fmt.str "person%d" idx)
           Datagen.person_schema
           (Datagen.person_rows ~seed:(1000 + idx) ~n:6))
    done;
    let schedule =
      if List.mem r down then Schedule.down_during [ (0.0, 1e12) ]
      else Schedule.always_up
    in
    Mediator.register_source m
      ~name:(Fmt.str "r%d" r)
      (Source.create ~id:(Fmt.str "p%d" r)
         ~address:
           (Source.address ~host:(Fmt.str "h%d" r) ~db_name:"db" ~ip:"0" ())
         ~schedule (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str {|r%d := Repository(host="h%d", name="db", address="0");|} r r);
    for e = 0 to extents_per - 1 do
      let idx = (r * extents_per) + e in
      Mediator.load_odl m
        (Fmt.str "extent person%d of Person wrapper w0 repository r%d;" idx r)
    done
  done;
  m

let prop_batch_transparent =
  let gen =
    QCheck.Gen.(
      pair
        (pair (int_range 1 3) (int_range 1 3))
        (pair
           (list_size (int_range 0 2) (int_range 0 2))
           (list_size (int_range 1 4) query_gen)))
  in
  let print ((repos, extents_per), (down, queries)) =
    Fmt.str "repos=%d extents=%d down=[%s] %s" repos extents_per
      (String.concat "," (List.map string_of_int down))
      (String.concat " ; " queries)
  in
  QCheck.Test.make ~long_factor
    ~name:"batched transport is semantically invisible"
    ~count:40
    (QCheck.make ~print gen)
    (fun ((repos, extents_per), (down, queries)) ->
      let down = List.sort_uniq compare (List.filter (fun r -> r < repos) down) in
      let mb = batch_federation ~batch:true ~repos ~extents_per ~down () in
      let mu = batch_federation ~batch:false ~repos ~extents_per ~down () in
      let agree q =
        let a = (Mediator.query mb q).Mediator.answer
        and b = (Mediator.query mu q).Mediator.answer in
        match (a, b) with
        | Mediator.Complete va, Mediator.Complete vb -> V.equal va vb
        | Mediator.Partial pa, Mediator.Partial pb ->
            List.sort compare pa.Runtime.unavailable
            = List.sort compare pb.Runtime.unavailable
            && String.equal (Mediator.answer_oql a) (Mediator.answer_oql b)
        | _ -> false
      in
      (* the second pass answers from the warm cache on both sides *)
      List.for_all agree queries && List.for_all agree queries)

(* The batch:false transport must be the historical one-call-per-exec
   path, reproduced exactly: pin its stats on a fixed scenario. *)
let test_unbatched_pinned_stats () =
  let m = federation ~batch:false () in
  let o = Mediator.query m "select x.name from x in person where x.salary > 10" in
  let s = o.Mediator.stats in
  Alcotest.(check int) "execs issued" 3 s.Runtime.execs_issued;
  Alcotest.(check int) "execs answered" 3 s.Runtime.execs_answered;
  Alcotest.(check int) "round trips" 3 s.Runtime.round_trips;
  Alcotest.(check int) "tuples shipped" 24 s.Runtime.tuples_shipped;
  Alcotest.(check (float 1e-9)) "virtual elapsed (incl. jitter draws)"
    5.4815723876953131 s.Runtime.elapsed_ms

(* The retry scheduler must be invisible unless it fires: with no policy
   configured the seed one-shot path runs bit-for-bit (the pinned stats
   above still hold), and a policy attached to an all-healthy federation
   must not change a single stat either — no spurious re-polls, hedges,
   or extra round-trips. *)
let test_retry_idle_stats_identical () =
  let q = "select x.name from x in person where x.salary > 10" in
  let s_off = (Mediator.query (federation ()) q).Mediator.stats in
  let retry =
    Runtime.Retry.make ~hedge_ms:100.0 ~breaker_threshold:3 ()
  in
  let s_on = (Mediator.query (federation ~retry ()) q).Mediator.stats in
  Alcotest.(check int) "execs issued" s_off.Runtime.execs_issued
    s_on.Runtime.execs_issued;
  Alcotest.(check int) "execs answered" s_off.Runtime.execs_answered
    s_on.Runtime.execs_answered;
  Alcotest.(check int) "execs blocked" s_off.Runtime.execs_blocked
    s_on.Runtime.execs_blocked;
  Alcotest.(check int) "round trips" s_off.Runtime.round_trips
    s_on.Runtime.round_trips;
  Alcotest.(check int) "tuples shipped" s_off.Runtime.tuples_shipped
    s_on.Runtime.tuples_shipped;
  Alcotest.(check (float 1e-9)) "virtual elapsed" s_off.Runtime.elapsed_ms
    s_on.Runtime.elapsed_ms

(* With a retry policy and an answer cache, every exec takes the same
   issue path as without one: it is looked up in the answer cache once,
   and every answer that came from a source is recorded in the cost
   model.  Hedging and re-polls must not fork that path. *)
let test_retry_learns_every_call () =
  let q = "select x.name from x in person where x.salary > 10" in
  List.iter
    (fun (label, retry) ->
      let cache = Answer_cache.create () in
      let m = federation ~cache ?retry () in
      let s = (Mediator.query m q).Mediator.stats in
      Alcotest.(check int) (label ^ ": three execs") 3 s.Runtime.execs_issued;
      Alcotest.(check int)
        (label ^ ": one cache lookup per exec")
        s.Runtime.execs_issued (Answer_cache.stats cache).Answer_cache.misses;
      Alcotest.(check int)
        (label ^ ": every source answer recorded")
        (s.Runtime.execs_answered - s.Runtime.cache_hits)
        (Cost_model.recorded_calls (Mediator.cost_model m)))
    [
      ("no retry", None);
      ("retry", Some Runtime.Retry.default);
      ("retry+hedge", Some (Runtime.Retry.make ~hedge_ms:100.0 ~breaker_threshold:3 ()));
    ]

(* -- sharded extents: pruned scatter-gather vs the unsharded twin -- *)

module Shard = Disco_shard.Shard

(* Two federations over the same repositories and data slices: one
   declares [person] as a sharded extent (so the optimizer prunes and
   the runtime scatter-gathers), the twin declares each slice as an
   independent extent (so a query over [person] is the unpruned union
   of all of them).  Answers must agree; pruning must never contact a
   shard the key excludes. *)
let twin_fed ~sharded ~partition ~all_rows ~down () =
  let shards = List.length partition.Shard.p_shards in
  let m =
    Mediator.create
      ~config:
        { Mediator.Config.default with cache = Some (Answer_cache.create ()) }
      ~name:(if sharded then "twin_sh" else "twin_un")
      ()
  in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  for k = 0 to shards - 1 do
    let slice =
      List.filter (fun r -> Shard.shard_of_value partition r.(0) = k) all_rows
    in
    let db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of db ~name:(Shard.child_name "person" k)
         Datagen.person_schema slice);
    let schedule =
      if List.mem k down then Schedule.down_during [ (0.0, 1e12) ]
      else Schedule.always_up
    in
    Mediator.register_source m ~name:(Fmt.str "r%d" k)
      (Source.create ~id:(Shard.child_name "person" k)
         ~address:
           (Source.address ~host:(Fmt.str "h%d" k) ~db_name:"db" ~ip:"0" ())
         ~schedule (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str {|r%d := Repository(host="h%d", name="db", address="0");|} k k);
    if not sharded then
      Mediator.load_odl m
        (Fmt.str "extent %s of Person wrapper w0 repository r%d;"
           (Shard.child_name "person" k) k)
  done;
  if sharded then
    Mediator.load_odl m
      (Fmt.str "extent person of Person wrapper w0 %a;" Shard.pp partition);
  m

type shard_query = Qkey of int | Qsal of int

let prop_shard_twin_equivalent =
  let gen =
    QCheck.Gen.(
      pair
        (pair (int_range 2 4) bool)
        (pair
           (list_size (int_range 0 2) (int_range 0 3))
           (list_size (int_range 1 5)
              (oneof
                 [
                   map (fun k -> Qkey k) (int_range 0 25);
                   map (fun t -> Qsal t) (int_range 0 30);
                 ]))))
  in
  let print ((shards, hash), (down, qs)) =
    Fmt.str "shards=%d %s down=[%s] %s" shards
      (if hash then "hash" else "range")
      (String.concat "," (List.map string_of_int down))
      (String.concat " ; "
         (List.map
            (function
              | Qkey k -> Fmt.str "id=%d" k
              | Qsal t -> Fmt.str "salary>%d" t)
            qs))
  in
  QCheck.Test.make
    ~long_factor
    ~name:"sharded gather = unsharded union; pruning skips excluded shards"
    ~count:30
    (QCheck.make ~print gen)
    (fun ((shards, hash), (down, qs)) ->
      let rows_per = 5 in
      let down =
        List.sort_uniq compare (List.filter (fun k -> k < shards) down)
      in
      let partition =
        {
          Shard.p_key = "id";
          p_scheme =
            (if hash then Shard.Hash { vnodes = Shard.default_vnodes }
             else
               Shard.Range
                 (List.init (shards - 1) (fun k ->
                      V.Int ((k + 1) * rows_per))));
          p_shards =
            List.init shards (fun k ->
                { Shard.s_repository = Fmt.str "r%d" k; s_wrapper = None });
        }
      in
      let all_rows = Datagen.person_rows ~seed:4242 ~n:(shards * rows_per) in
      let m_sh = twin_fed ~sharded:true ~partition ~all_rows ~down () in
      let m_un = twin_fed ~sharded:false ~partition ~all_rows ~down () in
      let contacted m =
        List.map
          (fun (r, s) ->
            ( r,
              s.Source.calls_answered + s.Source.calls_refused
              + s.Source.calls_timed_out ))
          (Mediator.source_stats m)
      in
      let unavail = function
        | Mediator.Complete _ -> []
        | Mediator.Partial p -> List.sort compare p.Runtime.unavailable
        | Mediator.Unavailable rs -> List.sort compare rs
      in
      let repo k = Fmt.str "r%d" k in
      let down_repos = List.map repo down in
      let oracle keep =
        V.bag (List.filter_map (fun r -> if keep r then Some r.(1) else None) all_rows)
      in
      let check_query q =
        let text =
          match q with
          | Qkey k -> Fmt.str "select x.name from x in person where x.id = %d" k
          | Qsal t ->
              Fmt.str "select x.name from x in person where x.salary > %d" t
        in
        let before = contacted m_sh in
        let a = (Mediator.query m_sh text).Mediator.answer in
        let after = contacted m_sh in
        let b = (Mediator.query m_un text).Mediator.answer in
        let delta r = List.assoc r after - List.assoc r before in
        match q with
        | Qsal t ->
            (* no key constraint: both sides contact every shard and miss
               exactly the down ones; complete answers match the data *)
            unavail a = down_repos
            && unavail b = down_repos
            && (down <> []
               ||
               match (a, b) with
               | Mediator.Complete va, Mediator.Complete vb ->
                   V.equal va vb
                   && V.equal va
                        (oracle (fun r ->
                             match r.(2) with
                             | V.Int s -> s > t
                             | _ -> false))
               | _ -> false)
        | Qkey k ->
            let owner = Shard.shard_of_value partition (V.Int k) in
            (* pruning containment: shards the key excludes are never
               contacted, up or down *)
            List.for_all
              (fun j -> j = owner || delta (repo j) = 0)
              (List.init shards Fun.id)
            (* the twin still contacts everything *)
            && unavail b = down_repos
            &&
            if List.mem owner down then unavail a = [ repo owner ]
            else
              unavail a = []
              &&
              match a with
              | Mediator.Complete va ->
                  V.equal va
                    (oracle (fun r ->
                         match r.(0) with V.Int id -> id = k | _ -> false))
              | _ -> false
      in
      (* two passes: the second runs against warm answer caches *)
      List.for_all check_query qs && List.for_all check_query qs)

(* -- the gate's verdict: reused with a cached plan = computed fresh -- *)

module Check = Disco_check.Check
module Pipeline = Disco_core.Pipeline
module Metrics = Disco_obs.Metrics
module Optimizer = Disco_optimizer.Optimizer
module Wrapper = Disco_wrapper.Wrapper

(* The end-to-end reference property's query shapes (test_core.ml), over
   a federation's implicit extent [all] and two of its member extents,
   plus (shape 7) a three-way join whose chosen order, with [b] behind a
   scan-only wrapper, keeps a DISCO-W003 round-trip warning. *)
let three_way_join = 7

let reference_query ~all ~a ~b shape t =
  match shape with
  | 0 -> Fmt.str "select x.name from x in %s where x.salary > %d" all t
  | 1 ->
      Fmt.str
        "select struct(n: x.name, s: x.salary * 2) from x in %s where \
         x.salary <= %d"
        all t
  | 2 -> Fmt.str "select distinct x.salary from x in %s where x.salary != %d" all t
  | 3 ->
      Fmt.str
        "select struct(a: x.name, b: y.name) from x in %s, y in %s where x.id \
         = y.id"
        a b
  | 4 -> Fmt.str "count(select p from p in %s where p.salary < %d)" all t
  | 5 -> Fmt.str "select distinct x.salary from x in %s where x.salary != %d" a t
  | 6 -> Fmt.str "sum(select p.salary from p in %s where p.salary >= %d)" all t
  | _ ->
      Fmt.str
        "select struct(a: x.name, b: y.name, c: z.name) from x in %s, y in \
         %s, z in %s where x.id = y.id and y.id = z.id"
        b a b

(* A small site holding [vip0] and a large one holding [staff0]: once
   the join has run and its costs are learned, the optimizer reduces it
   with a semijoin. *)
let semijoin_federation ?(config = Mediator.Config.default) () =
  let m = Mediator.create ~config ~name:"prop_sj" () in
  let site name rows =
    let db = Database.create ~name:"db" in
    ignore (Datagen.table_of db ~name Datagen.person_schema rows);
    Source.create ~id:name
      ~address:(Source.address ~host:name ~db_name:"db" ~ip:"0" ())
      ~latency:{ Source.base_ms = 10.0; per_row_ms = 0.05; jitter = 0.0 }
      (Source.Relational db)
  in
  Mediator.register_source m ~name:"r0"
    (site "vip0"
       (List.init 5 (fun i ->
            [| V.Int (i * 40); V.String (Fmt.str "vip%d" i); V.Int 999 |])));
  Mediator.register_source m ~name:"r1"
    (site "staff0" (Datagen.person_rows ~seed:77 ~n:500));
  Mediator.load_odl m
    {|r0 := Repository(host="hq", name="db", address="0");
      r1 := Repository(host="plant", name="db", address="1");
      w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent vip0 of Person wrapper w0 repository r0;
      extent staff0 of Person wrapper w0 repository r1;|};
  ignore (Mediator.query m (reference_query ~all:"" ~a:"vip0" ~b:"staff0" 3 0));
  Mediator.clear_plan_cache m;
  m

(* The planning pipeline the mediator uses, rebuilt outside it over the
   same registry, sources and cost model, reporting into [metrics]. *)
let pipeline_of ?(wrappers = []) ~metrics m =
  let p =
    Pipeline.create
      ~source_known:(fun r -> Mediator.find_source m r <> None)
      ~metrics ~cost:(Mediator.cost_model m) (Mediator.registry m)
  in
  List.iter (fun (name, w) -> Pipeline.register_wrapper p ~name w) wrappers;
  p

let gate_counts m =
  let metrics = Mediator.metrics m in
  ( Metrics.find_counter metrics "check.warnings",
    Metrics.find_counter metrics "check.violations" )

let verdict_counts ds =
  let errs = List.length (Check.errors ds) in
  (List.length ds - errs, errs)

let add (a, b) (c, d) = (a + c, b + d)

(* Run [q] and return the outcome with the gate counters it added. *)
let query_counted m q =
  let before = gate_counts m in
  let o = Mediator.query m q in
  let w, v = gate_counts m and w0, v0 = before in
  (o, (w - w0, v - v0))

(* The optimizer's plan and verdict for [q], planned afresh (and not
   cached) by a pipeline outside the mediator, with the gate counts the
   search itself reported. *)
let fresh_choice ?wrappers m q =
  let metrics = Metrics.create () in
  let p = pipeline_of ?wrappers ~metrics m in
  match Pipeline.front p q with
  | Error _ -> None
  | Ok expanded -> (
      match Pipeline.compile p expanded with
      | Error _ -> None
      | Ok located ->
          let choice = Pipeline.optimize p located in
          Some
            ( p,
              choice,
              ( Metrics.find_counter metrics "check.warnings",
                Metrics.find_counter metrics "check.violations" ) ))

(* Plan [q] on a miss, then twice from the plan cache. The optimizer's
   verdict must equal a fresh [Check.check_plan] of the plan the mediator
   executes, and every execution must report exactly that verdict. *)
let verdict_reused_equals_fresh m q =
  match fresh_choice m q with
  | None ->
      (* the hybrid path: fragments plan through the plan cache, so the
         reruns only hit it and never call the optimizer *)
      let counts () =
        let pc = Mediator.plan_cache_stats m in
        ( pc.Mediator.p_hits,
          pc.Mediator.p_misses,
          Option.fold ~none:0
            ~some:(fun h -> h.Metrics.h_count)
            (Metrics.find_histogram (Mediator.metrics m) "optimizer.candidates")
        )
      in
      List.for_all
        (fun i ->
          let hits, misses, candidates = counts () in
          let complete =
            match (Mediator.query m q).Mediator.answer with
            | Mediator.Complete _ -> true
            | _ -> false
          in
          let hits', misses', candidates' = counts () in
          complete
          && (i = 0 || (hits' > hits && misses' = misses && candidates' = candidates)))
        [ 0; 1; 2 ]
  | Some (p, choice, search_counts) ->
      let plan = choice.Optimizer.plan in
      let fresh = Check.check_plan (Pipeline.checker p) plan in
      let runs = List.init 3 (fun _ -> query_counted m q) in
      choice.Optimizer.verdict = Some fresh
      && List.for_all
           (fun (o, _) -> o.Mediator.plan = Some plan && not o.Mediator.fallback)
           runs
      && List.mapi
           (fun i (o, counts) ->
             o.Mediator.from_cache = (i > 0)
             && counts
                = if i = 0 then add search_counts (verdict_counts fresh)
                  else verdict_counts fresh)
           runs
         |> List.for_all Fun.id

(* A wrapper whose grammar promises a pushed selection but refuses to
   scan, and whose engine does the opposite: the pushed plan is refused
   at run time, and the capability-fallback plan (a bare scan) breaks the
   grammar. *)
let liar_wrapper () =
  Wrapper.make ~name:"WrapperLiar"
    ~grammar:
      (Disco_wrapper.Grammar.parse
         {|
    a :- select OPEN pred COMMA b CLOSE
    b :- get OPEN SOURCE CLOSE
    pred :- operand cmp operand
    operand :- ATTRIBUTE
    operand :- CONST
    cmp :- >
  |})
    ~execute:(fun source e ->
      match e with
      | Expr.Get _ -> Wrapper.execute (Wrapper.scan_wrapper ()) source e
      | _ -> Error (Wrapper.Refused "liar"))
    ()

let liar_federation check =
  let m =
    Mediator.create
      ~config:{ Mediator.Config.default with check; metrics = Metrics.create () }
      ~name:"prop_liar" ()
  in
  let db = Database.create ~name:"db" in
  ignore
    (Datagen.table_of db ~name:"person0" Datagen.person_schema
       (Datagen.person_rows ~seed:1000 ~n:8));
  Mediator.register_source m ~name:"r0"
    (Source.create ~id:"p0"
       ~address:(Source.address ~host:"h0" ~db_name:"db" ~ip:"0" ())
       (Source.Relational db));
  Mediator.register_wrapper m ~name:"w0" (liar_wrapper ());
  Mediator.load_odl m
    {|r0 := Repository(host="h0", name="db", address="0");
      w0 := WrapperCustom();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }
      extent person0 of Person wrapper w0 repository r0;|};
  m

(* The capability-fallback plan is one the optimizer never saw: every
   execution verifies it afresh (Warn counts its violation next to the
   cached plan's verdict), and Enforce refuses it on every execution. *)
let fallback_verified t =
  let q = Fmt.str "select x.name from x in person where x.salary > %d" t in
  let warn = liar_federation Check.Warn in
  let liar = [ ("w0", liar_wrapper ()) ] in
  match fresh_choice ~wrappers:liar warn q with
  | None -> false
  | Some (p, choice, search_counts) ->
      let verdict plan = Check.check_plan (Pipeline.checker p) plan in
      let pushed = verdict_counts (verdict choice.Optimizer.plan) in
      let warned =
        List.mapi
          (fun i () ->
            let o, counts = query_counted warn q in
            match o.Mediator.plan with
            | Some conservative ->
                let ds = verdict conservative in
                o.Mediator.fallback
                && Check.has_errors ds
                && counts
                   = add
                       (if i = 0 then search_counts else (0, 0))
                       (add pushed (verdict_counts ds))
            | None -> false)
          [ (); () ]
      in
      let enforce = liar_federation Check.Enforce in
      let refused () =
        match Mediator.query enforce q with
        | _ -> false
        | exception Check.Check_error ds ->
            List.mem "DISCO-E005" (List.map (fun d -> d.Check.d_code) ds)
      in
      List.for_all Fun.id warned && refused () && refused ()

type verdict_fed = Plain | Mixed | Sharded of bool | Semijoin

let prop_verdict_reused =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ Plain; Mixed; Sharded false; Sharded true; Semijoin ])
        (list_size (int_range 1 3) (pair (int_range 0 7) (int_range 0 300)))
        (int_range 0 30))
  in
  let print (fed, qs, t) =
    Fmt.str "%s [%s] fallback>%d"
      (match fed with
      | Plain -> "plain"
      | Mixed -> "mixed"
      | Sharded hash -> if hash then "hash shards" else "range shards"
      | Semijoin -> "semijoin")
      (String.concat "; "
         (List.map (fun (s, t) -> Fmt.str "shape %d/%d" s t) qs))
      t
  in
  QCheck.Test.make ~long_factor
    ~name:"a reused verdict equals a fresh one" ~count:40
    (QCheck.make ~print gen)
    (fun (fed, qs, t) ->
      let m, all, a, b =
        match fed with
        | Plain -> (federation (), "person", "person0", "person1")
        | Mixed -> (federation ~scan:[ 1 ] (), "person", "person0", "person1")
        | Sharded hash ->
            let shards = 3 in
            let partition =
              {
                Shard.p_key = "id";
                p_scheme =
                  (if hash then Shard.Hash { vnodes = Shard.default_vnodes }
                   else Shard.Range [ V.Int 100; V.Int 200 ]);
                p_shards =
                  List.init shards (fun k ->
                      { Shard.s_repository = Fmt.str "r%d" k; s_wrapper = None });
              }
            in
            ( twin_fed ~sharded:true ~partition
                ~all_rows:(Datagen.person_rows ~seed:4242 ~n:24)
                ~down:[] (),
              "person",
              Shard.child_name "person" 0,
              Shard.child_name "person" 1 )
        | Semijoin -> (semijoin_federation (), "person", "vip0", "staff0")
      in
      (* every case first runs the two-extent join (the semijoin
         federation reduces it) and the three-way join (a non-empty
         verdict on the mixed federation) *)
      let join = reference_query ~all ~a ~b 3 0 in
      let queries =
        List.fold_left
          (fun acc q -> if List.mem q acc then acc else acc @ [ q ])
          []
          (join
          :: reference_query ~all ~a ~b three_way_join 0
          :: List.map (fun (shape, t) -> reference_query ~all ~a ~b shape t) qs)
      in
      let semijoin_planned =
        match fed with
        | Semijoin -> (
            match fresh_choice m join with
            | Some (_, choice, _) -> Plan.semi_joins choice.Optimizer.plan > 0
            | None -> false)
        | Plain | Mixed | Sharded _ -> true
      in
      semijoin_planned
      && List.for_all (verdict_reused_equals_fresh m) queries
      && fallback_verified t)

(* -- columnar SQL engine vs the row-at-a-time oracle -- *)

module Sql = Disco_relation.Sql
module Table = Disco_relation.Table
module Schema = Disco_relation.Schema
module Index = Disco_relation.Index

let sql_schema =
  Schema.make
    [ ("id", Schema.TInt); ("name", Schema.TString); ("salary", Schema.TInt) ]

(* Random tables: duplicate ids (hash-index chains), a tiny name alphabet
   (string equality and LIKE both hit), occasional NULL salaries. *)
let sql_rows_gen =
  QCheck.Gen.(
    list_size (int_range 0 30)
      (map3
         (fun id name salary ->
           [|
             V.Int id;
             V.String name;
             (match salary with Some s -> V.Int s | None -> V.Null);
           |])
         (int_range 0 12)
         (oneofl [ "a"; "ab"; "b"; "c%"; "_d"; "" ])
         (frequency [ (6, map Option.some (int_range 0 40)); (1, return None) ])))

(* A second table: its float column gives joins float keys (-0. among
   them, which must meet 0.), and its strings live in another dictionary
   than person's. *)
let dept_schema =
  Schema.make
    [ ("id", Schema.TInt); ("name", Schema.TString); ("score", Schema.TFloat) ]

let dept_rows_gen =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (map3
         (fun id name score ->
           [|
             V.Int id;
             V.String name;
             (match score with Some s -> V.Float s | None -> V.Null);
           |])
         (int_range 0 12)
         (oneofl [ "ab"; "b"; "zz"; "_d"; "" ])
         (frequency
            [
              (6, map (fun i -> Some (float_of_int i /. 2.)) (int_range (-2) 6));
              (2, return (Some (-0.)));
              (1, return None);
            ])))

let sql_schema_of = function "dept" -> dept_schema | _ -> sql_schema

(* FROM lists of one to three frames: a lone [person], bare or aliased,
   or [a], [b], [c] each over [person] or, now and then, [dept]. *)
let sql_from_gen =
  QCheck.Gen.(
    frequency
      [
        (3, return [ ("person", None) ]);
        (1, map (fun t -> [ (t, Some "a") ]) (oneofl [ "person"; "dept" ]));
        ( 4,
          int_range 2 3 >>= fun n ->
          map
            (List.mapi (fun i t -> (t, Some (List.nth [ "a"; "b"; "c" ] i))))
            (list_repeat n
               (frequency [ (2, return "person"); (1, return "dept") ])) );
      ])

let sql_frame_name (table, alias) = Option.value alias ~default:table

(* A column of one of [from]'s frames whose type satisfies [ty], with its
   name; qualified or bare. Across several frames a bare name is mostly
   one only a single frame has; now and then it is ambiguous, which both
   engines must reject alike. *)
let sql_col_gen ?(ty = fun _ -> true) from =
  QCheck.Gen.(
    oneofl from >>= fun frame ->
    oneofl
      (List.filter
         (fun (_, t) -> ty t)
         (sql_schema_of (fst frame)).Schema.columns)
    >>= fun (c, _) ->
    let owners =
      List.length
        (List.filter (fun (t, _) -> Schema.mem (sql_schema_of t) c) from)
    in
    map
      (fun bare ->
        (Sql.Col ((if bare then None else Some (sql_frame_name frame)), c), c))
      (if List.length from = 1 then bool
       else if owners = 1 then map (( = ) 0) (int_bound 2)
       else map (( = ) 0) (int_bound 40)))

let sql_int_col from = QCheck.Gen.map fst (sql_col_gen ~ty:(( = ) Schema.TInt) from)

(* Leaves deliberately include ill-typed comparisons (name < 3, LIKE on
   an int column), NULL literals, Div/Mod with zero divisors and negative
   numerics: the engines must agree on errors as well as answers. *)
let sql_pred_gen from =
  let open QCheck.Gen in
  let col = map fst (sql_col_gen from) in
  let lit =
    oneof
      [
        map (fun i -> Sql.Lit (V.Int i)) (int_range (-5) 40);
        map (fun s -> Sql.Lit (V.String s)) (oneofl [ "a"; "ab"; "b"; "" ]);
        map
          (fun i -> Sql.Lit (V.Float (float_of_int i /. 4.)))
          (int_range (-8) 80);
        return (Sql.Lit V.Null);
      ]
  in
  let ops = [ Sql.Eq; Sql.Ne; Sql.Lt; Sql.Le; Sql.Gt; Sql.Ge ] in
  (* Two comparisons on one numeric column, as an index slice serves
     them: bounds that cross (empty intervals), equality with a range,
     NULL and float bounds, either operand first. *)
  let two_bounds =
    let bound c =
      map3
        (fun op l flipped -> if flipped then Sql.Cmp (op, l, c) else Sql.Cmp (op, c, l))
        (oneofl ops)
        (frequency
           [
             (6, map (fun i -> Sql.Lit (V.Int i)) (int_range (-2) 42));
             ( 2,
               map
                 (fun i -> Sql.Lit (V.Float (float_of_int i /. 2.)))
                 (int_range (-4) 84) );
             (1, return (Sql.Lit V.Null));
           ])
        bool
    in
    sql_int_col from >>= fun c -> map2 (fun a b -> Sql.And (a, b)) (bound c) (bound c)
  in
  let leaf =
    frequency
      [
        (3, map3 (fun c op l -> Sql.Cmp (op, c, l)) col (oneofl ops) lit);
        ( 2,
          map2
            (fun c p -> Sql.Cmp (Sql.Like, c, Sql.Lit (V.String p)))
            (frequency
               [
                 (4, map fst (sql_col_gen ~ty:(( = ) Schema.TString) from));
                 (1, sql_int_col from);
               ])
            (oneofl [ "a%"; "%b"; "_d"; "%"; "a_"; "c\\%"; "" ]) );
        ( 2,
          map4
            (fun c aop k m ->
              Sql.Cmp (Sql.Lt, Sql.Arith (aop, c, Sql.Lit (V.Int k)), Sql.Lit (V.Int m)))
            (sql_int_col from)
            (oneofl [ Sql.Add; Sql.Sub; Sql.Mul; Sql.Div; Sql.Mod ])
            (int_range (-2) 3) (int_range 0 40) );
        (2, map3 (fun op a b -> Sql.Cmp (op, a, b)) (oneofl ops) col col);
        (2, two_bounds);
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            ( 2,
              map2
                (fun a b -> Sql.And (a, b))
                (self (depth - 1))
                (self (depth - 1)) );
            ( 2,
              map2
                (fun a b -> Sql.Or (a, b))
                (self (depth - 1))
                (self (depth - 1)) );
            (1, map (fun a -> Sql.Not a) (self (depth - 1)));
          ])
    2

(* How each frame after the first meets an earlier one: an equality on a
   column both tables have (a hash-join key: int, string across two
   dictionaries, nullable int or float), a theta comparison, or nothing
   (a cross product). *)
let sql_links_gen from =
  let open QCheck.Gen in
  let frames = Array.of_list from in
  let link i =
    int_bound (i - 1) >>= fun j ->
    let col k c = Sql.Col (Some (sql_frame_name frames.(k)), c) in
    let schema k = sql_schema_of (fst frames.(k)) in
    frequency
      [
        ( 4,
          map
            (fun c -> [ Sql.Cmp (Sql.Eq, col i c, col j c) ])
            (oneofl
               (List.filter (Schema.mem (schema j))
                  (Schema.column_names (schema i)))) );
        ( 1,
          map
            (fun op -> [ Sql.Cmp (op, col j "id", col i "id") ])
            (oneofl [ Sql.Lt; Sql.Ge; Sql.Ne ]) );
        (1, return []);
      ]
  in
  map List.concat (flatten_l (List.init (Array.length frames - 1) (fun i -> link (i + 1))))

(* Projected columns (never empty, or [*]) plus an optional computed
   item; the output names come along so ORDER BY can pick one. *)
let sql_items_gen from =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          return
            ( List.concat_map
                (fun (t, _) -> Schema.column_names (sql_schema_of t))
                from,
              [ Sql.Star ] ) );
        ( 5,
          map2
            (fun cols arith ->
              let base = List.map (fun (c, _) -> Sql.Item (c, None)) cols in
              match arith with
              | Some c ->
                  ( List.map snd cols @ [ "s2" ],
                    base @ [ Sql.Item (Sql.Arith (Sql.Mul, c, Sql.Lit (V.Int 2)), Some "s2") ] )
              | None -> (List.map snd cols, base))
            (list_size (int_range 1 3) (sql_col_gen from))
            (opt (sql_int_col from)) );
      ])

let sql_query_gen =
  QCheck.Gen.(
    sql_from_gen >>= fun from ->
    map3
      (fun (names, items) (links, pred) ((distinct, ob), limit) ->
        let order_by =
          match ob with
          | None -> []
          | Some (i, desc) ->
              [
                ( Sql.Col (None, List.nth names (i mod List.length names)),
                  if desc then `Desc else `Asc );
              ]
        in
        let where =
          List.fold_right (fun l p -> Sql.And (l, p)) links
            (Option.value pred ~default:Sql.True)
        in
        Sql.select ~distinct ~where ~order_by ?limit items from)
      (sql_items_gen from)
      (pair (sql_links_gen from) (opt ~ratio:0.85 (sql_pred_gen from)))
      (pair
         (pair bool (opt (pair (int_range 0 2) bool)))
         (opt (int_range 0 10))))

(* Columns and the bag of rows (as a sorted list: output names repeat
   when frames share column names), or that the query raised. *)
let sql_outcome engine db q =
  match engine db q with
  | r -> Ok (r.Sql.columns, List.sort compare r.Sql.rows)
  | exception Sql.Sql_error _ -> Error ()

let sql_engines_agree db q = sql_outcome Sql.run db q = sql_outcome Sql.run_rows db q

(* [person] and [dept] in one database; [person] is returned for writes. *)
let sql_db person dept =
  let db = Database.create ~name:"prop" in
  let t = Database.create_table db ~name:"person" sql_schema in
  Table.insert_all t person;
  Table.insert_all (Database.create_table db ~name:"dept" dept_schema) dept;
  (db, t)

let prop_columnar_matches_rows =
  let gen =
    QCheck.Gen.(pair (pair sql_rows_gen dept_rows_gen) (pair sql_query_gen bool))
  in
  QCheck.Test.make ~name:"columnar engine = row oracle on random queries"
    ~count:300 ~long_factor:20
    (QCheck.make
       ~print:(fun ((rows, dept), (q, ix)) ->
         Fmt.str "%s over %d person, %d dept rows%s" (Sql.to_string q)
           (List.length rows) (List.length dept)
           (if ix then " [indexed]" else ""))
       gen)
    (fun ((rows, dept), (q, ix)) ->
      let db, t = sql_db rows dept in
      if ix then (
        let d = Database.get_table db "dept" in
        Table.declare_index t ~column:"id" Index.Hash;
        Table.declare_index t ~column:"salary" Index.Sorted;
        Table.declare_index d ~column:"name" Index.Hash;
        Table.declare_index d ~column:"score" Index.Sorted);
      sql_engines_agree db q)

(* -- indexes maintained across writes -- *)

type table_op =
  | Insert of V.t array list
  | Delete_id of int  (* rows whose id is this *)
  | Delete_name of string  (* drops dictionary codes *)
  | Query of Sql.query

let pp_table_op = function
  | Insert rows -> Fmt.str "insert %d rows" (List.length rows)
  | Delete_id k -> Fmt.str "delete id = %d" k
  | Delete_name n -> Fmt.str "delete name = %S" n
  | Query q -> Sql.to_string q

let table_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun rows -> Insert (List.filteri (fun i _ -> i < 6) rows)) sql_rows_gen);
        (2, map (fun k -> Delete_id k) (int_range 0 12));
        (1, map (fun n -> Delete_name n) (oneofl [ "a"; "ab"; "b"; "c%"; "_d"; "" ]));
        (4, map (fun q -> Query q) sql_query_gen);
      ])

let indexed_columns = [ ("id", Index.Hash); ("name", Index.Hash); ("salary", Index.Sorted) ]

let index_probes =
  V.Null
  :: List.map (fun s -> V.String s) [ "a"; "ab"; "zz" ]
  @ List.map (fun i -> V.Int i) [ -1; 0; 5; 12; 20; 40; 41 ]
  @ List.map (fun f -> V.Float f) [ -0.5; 0.0; 6.5; 12.0; 39.75 ]

(* Every probe a snapshot answers, it answers as a fresh build of the same
   column does; NULL and ill-typed probes included. *)
let snapshot_matches_fresh t (column, kind) =
  let ix = Option.get (Table.index_for t column) in
  let col = Table.column_at t (Schema.index_of (Table.schema t) column) in
  let fresh = Index.build kind col in
  List.for_all
    (fun op ->
      List.for_all
        (fun v ->
          let rows ix = Option.map (Index.rows ix) (Index.interval ix col op v) in
          rows ix = rows fresh)
        index_probes)
    Index.[ Op_eq; Op_lt; Op_le; Op_gt; Op_ge ]

let prop_maintained_indexes =
  let gen =
    QCheck.Gen.(
      triple sql_rows_gen dept_rows_gen (list_size (int_range 1 12) table_op_gen))
  in
  QCheck.Test.make ~name:"maintained indexes = fresh builds and the row oracle"
    ~count:200 ~long_factor:20
    (QCheck.make
       ~print:(fun (rows, dept, ops) ->
         Fmt.str "%d person, %d dept rows; %s" (List.length rows)
           (List.length dept)
           (String.concat "; " (List.map pp_table_op ops)))
       gen)
    (fun (rows, dept, ops) ->
      let db, t = sql_db rows dept in
      List.iter
        (fun (column, kind) ->
          Table.declare_index t ~column kind;
          ignore (Table.index_for t column))
        indexed_columns;
      List.for_all
        (function
          | Insert rows ->
              Table.insert_all t rows;
              true
          | Delete_id k ->
              ignore (Table.delete_where t (fun row -> V.equal row.(0) (V.Int k)));
              true
          | Delete_name n ->
              ignore
                (Table.delete_where t (fun row -> V.equal row.(1) (V.String n)));
              true
          | Query q ->
              sql_engines_agree db q
              && List.for_all (snapshot_matches_fresh t) indexed_columns)
        ops)

(* -- one prepared statement across writes, index DDL and a replaced
   table --

   A statement keeps its compilation for as long as each FROM name finds
   the same table: writes change that table's rows in place, index DDL
   changes neither the table nor its version, and a replaced table is
   another table under the same name. After every step the old statement
   must still answer as the row oracle does on the current data, or
   raise alike. *)

type stmt_op =
  | P_insert of V.t array list
  | P_delete of int  (* person rows whose id is this *)
  | P_declare of string * Index.kind  (* on a person column *)
  | P_drop_index of string
  | P_replace of string * V.t array list  (* a new table, same name and schema *)

let pp_stmt_op = function
  | P_insert rows -> Fmt.str "insert %d rows" (List.length rows)
  | P_delete k -> Fmt.str "delete id = %d" k
  | P_declare (c, kind) -> Fmt.str "declare %s index on %s" (Index.kind_name kind) c
  | P_drop_index c -> Fmt.str "drop index on %s" c
  | P_replace (t, rows) -> Fmt.str "replace %s (%d rows)" t (List.length rows)

let stmt_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun rows -> P_insert (List.filteri (fun i _ -> i < 6) rows)) sql_rows_gen);
        (3, map (fun k -> P_delete k) (int_range 0 12));
        (2, map (fun (c, kind) -> P_declare (c, kind)) (oneofl indexed_columns));
        (2, map (fun (c, _) -> P_drop_index c) (oneofl indexed_columns));
        (1, map (fun rows -> P_replace ("person", rows)) sql_rows_gen);
        (1, map (fun rows -> P_replace ("dept", rows)) dept_rows_gen);
      ])

let apply_stmt_op db op =
  let person () = Database.get_table db "person" in
  match op with
  | P_insert rows -> Table.insert_all (person ()) rows
  | P_delete k ->
      ignore (Table.delete_where (person ()) (fun row -> V.equal row.(0) (V.Int k)))
  | P_declare (column, kind) -> Table.declare_index (person ()) ~column kind
  | P_drop_index column -> Table.drop_index (person ()) column
  | P_replace (name, rows) ->
      Database.drop_table db name;
      Table.insert_all (Database.create_table db ~name (sql_schema_of name)) rows

let prop_prepared_statement_follows_tables =
  let gen =
    QCheck.Gen.(
      quad (pair sql_rows_gen dept_rows_gen) sql_query_gen bool
        (list_size (int_range 1 8) stmt_op_gen))
  in
  QCheck.Test.make
    ~name:"a prepared statement = the row oracle across writes and DDL"
    ~count:200 ~long_factor:20
    (QCheck.make
       ~print:(fun ((rows, dept), q, ix, ops) ->
         Fmt.str "%s over %d person, %d dept rows%s; %s" (Sql.to_string q)
           (List.length rows) (List.length dept)
           (if ix then " [indexed]" else "")
           (String.concat "; " (List.map pp_stmt_op ops)))
       gen)
    (fun ((rows, dept), q, ix, ops) ->
      let db, t = sql_db rows dept in
      if ix then
        List.iter
          (fun (column, kind) -> Table.declare_index t ~column kind)
          indexed_columns;
      match Sql.prepare db q with
      | exception Sql.Sql_error _ -> sql_outcome Sql.run_rows db q = Error ()
      | prepared ->
          let agrees () =
            sql_outcome (fun _ _ -> Sql.execute prepared) db q
            = sql_outcome Sql.run_rows db q
          in
          agrees ()
          && List.for_all
               (fun op ->
                 apply_stmt_op db op;
                 agrees ())
               ops)

(* Printing is the wrappers' submit path: the printed text must reparse
   to a query that prints identically (literals — negative numbers, LIKE
   patterns, quotes, floats — all survive the trip). *)
let prop_sql_print_parse_stable =
  QCheck.Test.make ~long_factor
    ~name:"SQL print/parse/print is stable" ~count:400
    (QCheck.make ~print:Sql.to_string sql_query_gen)
    (fun q ->
      let s = Sql.to_string q in
      String.equal s (Sql.to_string (Sql.parse s)))

(* -- a cached plan's prepared execs: a hit = the same query replanned --

   Two identical mediators run the same history. On [a] each text runs
   twice, so its second run is a plan-cache hit that runs the execs
   prepared when the plan was cached. On [b] the plan cache is cleared
   before the second run, so it plans and prepares afresh against the
   same cost model, answer cache, sources and clock. Whenever both runs
   use the same plan, the hit must leave everything as the fresh run
   does: answer, stats, the cost-model estimates, and the trace (every
   span but the front end's and the optimizer's, all on the virtual
   clock).

   Between the two runs both mediators may take the same change to [r1]:
   rows appended to its table (the hit's prepared source statements
   read them without compiling again), or the source replaced by
   [register_source] with other rows (which drops the cached plans, so
   the text runs once more before the hit). *)

module Trace = Disco_obs.Trace

type prepared_fed = {
  pf_map : bool;  (* person1's source names its fields differently *)
  pf_replica : bool;  (* person0's slow primary is down; a replica answers *)
  pf_down : bool;  (* person2's only copy is down *)
  pf_shards : bool;  (* a range-sharded Person extent [emp] *)
  pf_retry : bool;  (* re-polls, hedging and a circuit breaker *)
  pf_cache : bool;  (* the answer cache *)
}

let prepared_config ~cache ~retry sink =
  {
    Mediator.Config.default with
    cache = (if cache then Some (Answer_cache.create ()) else None);
    retry =
      (if retry then
         Some
           (Runtime.Retry.make ~initial_ms:20.0 ~hedge_ms:5.0
              ~breaker_threshold:2 ())
       else None);
    trace_sink = Some sink;
  }

let prepared_source ?(schedule = Schedule.always_up) ?(base_ms = 5.0) repo
    tables =
  let db = Database.create ~name:"db" in
  List.iter
    (fun (table, schema, rows) ->
      ignore (Datagen.table_of db ~name:table schema rows))
    tables;
  Source.create ~id:repo
    ~address:(Source.address ~host:repo ~db_name:"db" ~ip:"0" ())
    ~latency:{ Source.base_ms; per_row_ms = 0.1; jitter = 0.2 }
    ~schedule (Source.Relational db)

(* [r1]'s one table, under its source names when [pf_map] is set *)
let r1_table spec rows =
  if spec.pf_map then
    ( "staff1",
      Schema.make
        [ ("ident", Schema.TInt); ("nom", Schema.TString); ("paie", Schema.TInt) ],
      rows )
  else ("person1", Datagen.person_schema, rows)

let prepared_federation spec sink =
  let m =
    Mediator.create
      ~config:(prepared_config ~cache:spec.pf_cache ~retry:spec.pf_retry sink)
      ~name:"prep" ()
  in
  Mediator.load_odl m
    {|w0 := WrapperPostgres();
      interface Person (extent person) {
        attribute Short id;
        attribute String name;
        attribute Short salary; }|};
  let site ?schedule ?base_ms repo tables =
    Mediator.register_source m ~name:repo
      (prepared_source ?schedule ?base_ms repo tables);
    Mediator.load_odl m
      (Fmt.str {|%s := Repository(host="%s", name="db", address="0");|} repo
         repo)
  in
  let down flag = if flag then Schedule.always_down else Schedule.always_up in
  let rows k = Datagen.person_rows ~seed:(500 + k) ~n:6 in
  site ~base_ms:30.0 ~schedule:(down spec.pf_replica) "r0"
    [ ("person0", Datagen.person_schema, rows 0) ];
  site ~base_ms:2.0 "rr0" [ ("person0", Datagen.person_schema, rows 0) ];
  site "r1" [ r1_table spec (rows 1) ];
  site ~schedule:(down spec.pf_down) "r2"
    [ ("person2", Datagen.person_schema, rows 2) ];
  Mediator.load_odl m
    (Fmt.str
       {|extent person0 of Person wrapper w0 repository r0 replica rr0;
         extent person1 of Person wrapper w0 repository r1%s;
         extent person2 of Person wrapper w0 repository r2;|}
       (if spec.pf_map then
          " map ((staff1=person1),(ident=id),(nom=name),(paie=salary))"
        else ""));
  if spec.pf_shards then (
    let partition =
      {
        Shard.p_key = "id";
        p_scheme = Shard.Range [ V.Int 4 ];
        p_shards =
          List.map
            (fun repo -> { Shard.s_repository = repo; s_wrapper = None })
            [ "s0"; "s1" ];
      }
    in
    let all = Datagen.person_rows ~seed:77 ~n:8 in
    List.iteri
      (fun k repo ->
        site repo
          [
            ( Shard.child_name "emp" k,
              Datagen.person_schema,
              List.filter (fun r -> Shard.shard_of_value partition r.(0) = k) all
            );
          ])
      [ "s0"; "s1" ];
    Mediator.load_odl m
      (Fmt.str "extent emp of Person wrapper w0 %a;" Shard.pp partition));
  m

let prepared_query ~shards shape t =
  match shape with
  | 0 -> Fmt.str "select x.name from x in person where x.salary > %d" t
  | 1 ->
      Fmt.str
        "select struct(n: x.name, s: x.salary) from x in person1 where x.id < %d"
        (t mod 8)
  | 2 ->
      "select struct(a: x.name, b: y.name) from x in person0, y in person1 \
       where x.id = y.id"
  | 3 -> Fmt.str "count(select p from p in person where p.salary < %d)" t
  | 4 ->
      Fmt.str "select x.name from x in %s where x.id = %d"
        (if shards then "emp" else "person0")
        (t mod 8)
  | _ -> Fmt.str "select distinct x.salary from x in person where x.salary != %d" t

(* What a query leaves behind, minus the front end's and the
   optimizer's spans: the answer, stats, the trace's remaining spans, and
   the cost model's estimates for the plan's execs and batches. *)
let prepared_observation m (trace : Trace.trace option ref) q =
  let opts = { Mediator.Query_opts.default with timeout_ms = 300.0 } in
  let outcome =
    match Mediator.query ~opts m q with
    | o -> Ok o
    | exception (Mediator.Mediator_error msg | Runtime.Runtime_error msg) ->
        Error msg
  in
  let spans =
    Option.map
      (fun (tr : Trace.trace) ->
        let root = tr.Trace.t_root in
        ( root.Trace.s_meta,
          root.Trace.s_elapsed_ms,
          List.filter
            (fun s ->
              not
                (List.mem s.Trace.s_name
                   [ "parse"; "expand"; "compile"; "optimize" ]))
            root.Trace.s_children ))
      !trace
  in
  let cost = Mediator.cost_model m in
  let estimates =
    match outcome with
    | Ok { Mediator.plan = Some plan; _ } ->
        List.map
          (fun (repo, e) -> Cost_model.estimate cost ~repo e)
          (Plan.all_source_exprs plan)
    | Ok _ | Error _ -> []
  in
  let batches =
    List.concat_map
      (fun repo ->
        List.map
          (fun size -> Cost_model.estimate_batch cost ~repo ~size)
          [ 1; 2; 3 ])
      [ "r0"; "rr0"; "r1"; "r2"; "s0"; "s1" ]
  in
  (outcome, spans, estimates, batches, Cost_model.recorded_calls cost)

let same_answer a b =
  match (a, b) with
  | Mediator.Complete va, Mediator.Complete vb -> V.equal va vb
  | Mediator.Partial pa, Mediator.Partial pb ->
      String.equal (Mediator.answer_oql a) (Mediator.answer_oql b)
      && pa.Runtime.unavailable = pb.Runtime.unavailable
      && pa.Runtime.versions = pb.Runtime.versions
  | Mediator.Unavailable ra, Mediator.Unavailable rb -> ra = rb
  | _ -> false

let prop_prepared_hit_equals_fresh =
  let gen =
    QCheck.Gen.(
      pair
        (frequency
           [
             (1, return None);
             ( 5,
               map
                 (fun (pf_map, pf_replica, pf_down, pf_shards, pf_retry, pf_cache)
                    ->
                   Some
                     { pf_map; pf_replica; pf_down; pf_shards; pf_retry; pf_cache })
                 (tup6 bool bool bool bool bool bool) );
           ])
        (list_size (int_range 1 3)
           (triple (int_range 0 5) (int_range 0 300)
              (frequency
                 [ (2, return `Same); (1, return `Insert); (1, return `Replace) ]))))
  in
  let print (spec, qs) =
    Fmt.str "%s [%s]"
      (match spec with
      | None -> "semijoin"
      | Some f ->
          String.concat " "
            (List.filter_map
               (fun (on, name) -> if on then Some name else None)
               [
                 (f.pf_map, "map");
                 (f.pf_replica, "replica");
                 (f.pf_down, "down");
                 (f.pf_shards, "shards");
                 (f.pf_retry, "retry+hedge");
                 (f.pf_cache, "cache");
               ]))
      (String.concat "; "
         (List.map
            (fun (s, t, change) ->
              Fmt.str "%d/%d%s" s t
                (match change with
                | `Same -> ""
                | `Insert -> " +insert r1"
                | `Replace -> " +replace r1"))
            qs))
  in
  QCheck.Test.make ~long_factor
    ~name:"a plan-cache hit equals the same query replanned"
    ~count:40 (QCheck.make ~print gen)
    (fun (spec, qs) ->
      let build sink =
        match spec with
        | Some f -> prepared_federation f sink
        | None ->
            semijoin_federation
              ~config:(prepared_config ~cache:true ~retry:false sink)
              ()
      in
      let trace_a = ref None and trace_b = ref None in
      let a = build (fun tr -> trace_a := Some tr)
      and b = build (fun tr -> trace_b := Some tr) in
      let queries =
        List.map
          (fun (shape, t, change) ->
            ( (match spec with
              | Some f -> prepared_query ~shards:f.pf_shards shape t
              | None ->
                  reference_query ~all:"person" ~a:"vip0" ~b:"staff0"
                    (if shape mod 2 = 0 then 3 else 0)
                    t),
              change ))
          qs
      in
      (* the change, then (after a replacement) the run that caches the
         plan again; the semi-join federation has no [r1] to change *)
      let change_r1 m trace q change =
        let rows = Datagen.person_rows ~seed:(700 + Hashtbl.hash q) ~n:3 in
        match (spec, change) with
        | None, _ | Some _, `Same -> ()
        | Some f, `Insert -> (
            match Option.map Source.kind (Mediator.find_source m "r1") with
            | Some (Source.Relational db) ->
                let name, _, _ = r1_table f [] in
                Table.insert_all (Database.get_table db name) rows
            | _ -> ())
        | Some f, `Replace ->
            Mediator.register_source m ~name:"r1"
              (prepared_source "r1" [ r1_table f rows ]);
            ignore (prepared_observation m trace q)
      in
      List.for_all
        (fun (q, change) ->
          ignore (prepared_observation a trace_a q);
          change_r1 a trace_a q change;
          let hit_outcome, hit_spans, hit_est, hit_batches, hit_calls =
            prepared_observation a trace_a q
          in
          ignore (prepared_observation b trace_b q);
          change_r1 b trace_b q change;
          Mediator.clear_plan_cache b;
          let fresh_outcome, fresh_spans, fresh_est, fresh_batches, fresh_calls =
            prepared_observation b trace_b q
          in
          let plan = function
            | Ok o -> Option.map Plan.to_string o.Mediator.plan
            | Error _ -> None
          in
          QCheck.assume (plan hit_outcome = plan fresh_outcome);
          (match hit_outcome with
          | Ok { Mediator.plan = Some _; from_cache = false; _ } ->
              QCheck.Test.fail_reportf "%s: the second run was not a hit" q
          | Ok _ | Error _ -> ());
          let outcome_agrees =
            match (hit_outcome, fresh_outcome) with
            | Ok x, Ok y ->
                same_answer x.Mediator.answer y.Mediator.answer
                && x.Mediator.stats = y.Mediator.stats
                && x.Mediator.answer_cache = y.Mediator.answer_cache
                && x.Mediator.fallback = y.Mediator.fallback
            | Error x, Error y -> String.equal x y
            | _ -> false
          in
          if not outcome_agrees then
            QCheck.Test.fail_reportf "%s: answer or stats differ" q;
          if hit_spans <> fresh_spans then
            QCheck.Test.fail_reportf "%s: traces differ:@.hit   %s@.fresh %s" q
              (Option.fold ~none:"-" ~some:Trace.to_json !trace_a)
              (Option.fold ~none:"-" ~some:Trace.to_json !trace_b);
          if hit_est <> fresh_est || hit_batches <> fresh_batches
             || hit_calls <> fresh_calls
          then QCheck.Test.fail_reportf "%s: cost-model state differs" q;
          true)
        queries)

(* -- canonical collections are bit-identical to sorting -- *)

(* Values equal bit for bit: unlike [=], a [nan] equals itself, and
   unlike [V.compare], [-0.] differs from [0.]. *)
let rec identical a b =
  match (a, b) with
  | V.Float x, V.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | V.Struct xs, V.Struct ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (n, x) (m, y) -> String.equal n m && identical x y) xs ys
  | V.Bag xs, V.Bag ys | V.Set xs, V.Set ys | V.List xs, V.List ys ->
      List.length xs = List.length ys && List.for_all2 identical xs ys
  | _ -> a = b

let canonical_elem_gen =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        return V.Null;
        map (fun i -> V.Int i) (int_range (-3) 3);
        oneofl [ V.Float 0.; V.Float (-0.); V.Float nan; V.Float 1.5; V.Float (-2.) ];
        map (fun s -> V.String s) (oneofl [ ""; "a"; "b" ]);
      ]
  in
  frequency
    [
      (4, atom);
      (1, map V.bag (list_size (int_range 0 3) atom));
      (1, map (fun xs -> V.strct [ ("a", V.bag xs) ]) (list_size (int_range 0 2) atom));
    ]

(* Inputs drawn as they come, sorted, reverse-sorted, or sorted with
   one adjacent pair swapped. *)
let canonical_input_gen =
  let open QCheck.Gen in
  let swap_one xs i =
    let a = Array.of_list xs in
    let n = Array.length a in
    if n >= 2 then (
      let i = i mod (n - 1) in
      let t = a.(i) in
      a.(i) <- a.(i + 1);
      a.(i + 1) <- t);
    Array.to_list a
  in
  list_size (int_range 0 12) canonical_elem_gen >>= fun xs ->
  let sorted = List.sort V.compare xs in
  oneof
    [
      return xs;
      return sorted;
      return (List.rev sorted);
      map (swap_one sorted) nat;
      return (List.sort_uniq V.compare xs);
    ]

let prop_canonical_collections =
  QCheck.Test.make ~long_factor
    ~name:"bag and set equal sorting their input, bit for bit" ~count:1000
    (QCheck.make
       ~print:(fun xs -> String.concat "; " (List.map V.to_string xs))
       canonical_input_gen)
    (fun xs ->
      identical (V.bag xs) (V.Bag (List.sort V.compare xs))
      && identical (V.set xs) (V.Set (List.sort_uniq V.compare xs)))

(* -- Table.to_bag equals the per-row struct build -- *)

(* Columns declared out of alphabetical order, NULLs in every column,
   floats with [-0.] and [nan], then a delete of some rows. *)
let table_to_bag_gen =
  let open QCheck.Gen in
  let columns =
    [ ("zeta", Schema.TInt); ("id", Schema.TInt); ("name", Schema.TString);
      ("amount", Schema.TFloat); ("flag", Schema.TBool) ]
  in
  let cell = function
    | Schema.TInt -> map (fun i -> V.Int i) (int_range 0 9)
    | Schema.TString -> map (fun s -> V.String s) (oneofl [ "x"; "y"; "" ])
    | Schema.TFloat -> oneofl [ V.Float 0.; V.Float (-0.); V.Float nan; V.Float 2.5 ]
    | Schema.TBool -> map (fun b -> V.Bool b) bool
  in
  shuffle_l columns >>= fun shuffled ->
  int_range 1 (List.length shuffled) >>= fun arity ->
  let cols = List.filteri (fun i _ -> i < arity) shuffled in
  let row =
    flatten_l
      (List.map
         (fun (_, ty) -> frequency [ (5, cell ty); (1, return V.Null) ])
         cols)
  in
  triple (return cols) (list_size (int_range 0 25) (map Array.of_list row)) (int_range 0 4)

let prop_table_to_bag =
  QCheck.Test.make ~long_factor
    ~name:"Table.to_bag = the per-row struct build" ~count:500
    (QCheck.make
       ~print:(fun (cols, rows, k) ->
         Fmt.str "columns %s, %d rows, delete every %dth"
           (String.concat "," (List.map fst cols)) (List.length rows) k)
       table_to_bag_gen)
    (fun (cols, rows, k) ->
      let schema = Schema.make cols in
      let t = Table.create ~name:"t" schema in
      Table.insert_all t rows;
      let old_build t =
        V.bag (List.map (Schema.row_to_struct schema) (Table.rows t))
      in
      let before = identical (Table.to_bag t) (old_build t) in
      (* drop rows by position: every [k]th when [k > 0] *)
      let i = ref (-1) in
      if k > 0 then
        ignore
          (Table.delete_where t (fun _ ->
               incr i;
               !i mod k = 0));
      before && identical (Table.to_bag t) (old_build t))

(* -- a pushed chain priced from its recorded scan -- *)

(* With only the bare scan of [t] recorded, an exec of a select /
   project / map / distinct chain over [get(t)] is informed, and priced
   no higher than the scan with the same operators run at the mediator:
   no more time, no more rows shipped, and the same rows out. *)
let prop_pushed_chain_priced_from_scan =
  let op_gen = QCheck.Gen.oneofl [ `Select; `Project; `Map; `Distinct ] in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 5) op_gen)
        (list_size (int_range 1 4) (pair (float_range 0.0 500.0) (int_range 0 5000)))
        bool)
  in
  let name = function
    | `Select -> "select" | `Project -> "project" | `Map -> "map" | `Distinct -> "distinct"
  in
  QCheck.Test.make ~long_factor
    ~name:"a pushed chain costs no more than its scan plus mediator operators"
    ~count:500
    (QCheck.make
       ~print:(fun (ops, scans, batch) ->
         Fmt.str "%s over %d recorded scans%s"
           (String.concat "," (List.map name ops))
           (List.length scans)
           (if batch then " (batched)" else ""))
       gen)
    (fun (ops, scans, batch) ->
      let scan = Expr.Get "t" in
      let pred = Expr.Cmp (Expr.Gt, Expr.Attr [ "salary" ], Expr.Const (V.Int 10)) in
      let cost = Cost_model.create () in
      List.iter
        (fun (time_ms, rows) -> Cost_model.record cost ~repo:"r" ~expr:scan ~time_ms ~rows)
        scans;
      let pushed =
        Plan.Exec
          ( "r",
            List.fold_left
              (fun e op ->
                match op with
                | `Select -> Expr.Select (e, pred)
                | `Project -> Expr.Project (e, [ "salary" ])
                | `Map -> Expr.Map (e, Expr.Hscalar (Expr.Attr [ "salary" ]))
                | `Distinct -> Expr.Distinct e)
              scan ops )
      in
      let mediator =
        List.fold_left
          (fun p op ->
            match op with
            | `Select -> Plan.Mk_select (p, pred)
            | `Project -> Plan.Mk_project (p, [ "salary" ])
            | `Map -> Plan.Mk_map (p, Expr.Hscalar (Expr.Attr [ "salary" ]))
            | `Distinct -> Plan.Mk_distinct p)
          (Plan.Exec ("r", scan)) ops
      in
      let cp = Plan.estimate ~batch cost pushed and cm = Plan.estimate ~batch cost mediator in
      cp.Plan.defaulted_execs = 0
      && cm.Plan.defaulted_execs = 0
      && cp.Plan.time_ms <= cm.Plan.time_ms
      && cp.Plan.shipped <= cm.Plan.shipped
      && Float.abs (cp.Plan.rows -. cm.Plan.rows) <= 1e-9 *. Float.max 1.0 cm.Plan.rows)

(* -- a relational wrapper is its grammar -- *)

(* Random source expressions over one relational [person] table
   ([sql_rows_gen]: duplicate ids, NULL salaries), in the normal forms
   the rule pipeline sends a source and [Sqlgen] covers: a leaf ([get],
   under zero to two selects), a projection, a distinct, a map over the
   leaf, a one-binding map with an optional residual select and head,
   and an equi-join of two bindings. *)
let bind_var v e = Expr.Map (e, Expr.Hstruct [ (v, Expr.Attr []) ])

let person_pred_gen (paths : (string -> string list) list) =
  let open QCheck.Gen in
  let attr f = map (fun path -> Expr.Attr (path f)) (oneofl paths) in
  let int_field = oneofl [ "id"; "salary" ] in
  let int_const = map (fun i -> V.Int i) (int_range (-1) 42) in
  let op = oneofl Expr.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let either_side op a b =
    map (fun flip -> if flip then Expr.Cmp (op, b, a) else Expr.Cmp (op, a, b)) bool
  in
  let int_cmp =
    int_field >>= fun f ->
    op >>= fun op ->
    attr f >>= fun a ->
    oneof
      [ map (fun c -> Expr.Const c) int_const; int_field >>= attr ]
    >>= either_side op a
  in
  let name_cmp =
    op >>= fun op ->
    attr "name" >>= fun a ->
    oneofl [ "a"; "ab"; "b"; "" ] >>= fun s ->
    either_side op a (Expr.Const (V.String s))
  in
  let like =
    map2
      (fun a p -> Expr.Cmp (Expr.Like, a, Expr.Const (V.String p)))
      (attr "name")
      (oneofl [ "a%"; "%b"; "_"; "%"; "c%"; "%d" ])
  in
  let member =
    map2
      (fun a keys -> Expr.Member (a, V.bag keys))
      (int_field >>= attr)
      (list_size (int_range 0 3) int_const)
  in
  let atom =
    frequency
      [ (6, int_cmp); (2, name_cmp); (1, like); (1, member); (1, return Expr.True) ]
  in
  fix
    (fun self depth ->
      if depth = 0 then atom
      else
        frequency
          [
            (4, atom);
            (1, map2 (fun a b -> Expr.And (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map2 (fun a b -> Expr.Or (a, b)) (self (depth - 1)) (self (depth - 1)));
            (1, map (fun a -> Expr.Not a) (self (depth - 1)));
          ])
    2

let relational_expr_gen =
  let open QCheck.Gen in
  let field = oneofl [ "id"; "name"; "salary" ] in
  let leaf =
    let bare = person_pred_gen [ (fun f -> [ f ]) ] in
    frequency [ (2, return 0); (3, return 1); (1, return 2) ] >>= fun selects ->
    map
      (List.fold_left (fun e p -> Expr.Select (e, p)) (Expr.Get "person"))
      (list_repeat selects bare)
  in
  let attrs =
    shuffle_l [ "id"; "name"; "salary" ] >>= fun fields ->
    map (fun k -> List.filteri (fun i _ -> i < k) fields) (int_range 1 3)
  in
  (* a head over the bindings [vars], or over a bare row when [vars] is
     empty; a join's head may also name a whole binding *)
  let head vars =
    let path f =
      match vars with
      | [] -> return [ f ]
      | vars -> map (fun v -> [ v; f ]) (oneofl vars)
    in
    let scalar =
      frequency
        [
          (4, map (fun p -> Expr.Attr p) (field >>= path));
          ( 1,
            map
              (fun p -> Expr.Arith (Expr.Add, Expr.Attr p, Expr.Const (V.Int 1)))
              (oneofl [ "id"; "salary" ] >>= path) );
          (1, return (Expr.Const (V.Int 7)));
        ]
    in
    let field_scalar =
      match vars with
      | [ _; _ ] -> frequency [ (3, scalar); (1, map (fun v -> Expr.Attr [ v ]) (oneofl vars)) ]
      | _ -> scalar
    in
    oneof
      [
        map (fun s -> Expr.Hscalar s) scalar;
        map
          (fun ss -> Expr.Hstruct (List.mapi (fun i s -> (Fmt.str "f%d" i, s)) ss))
          (list_size (int_range 1 3) field_scalar);
      ]
  in
  let maybe_distinct e = map (fun d -> if d then Expr.Distinct e else e) bool in
  let over_bindings vars body =
    let residual = person_pred_gen (List.map (fun v f -> [ v; f ]) vars) in
    opt residual >>= fun r ->
    let body = match r with None -> body | Some p -> Expr.Select (body, p) in
    oneof [ return body; map (fun h -> Expr.Map (body, h)) (head vars) ]
    >>= maybe_distinct
  in
  let single =
    leaf >>= fun l ->
    oneof
      [
        return l;
        map (fun a -> Expr.Project (l, a)) attrs;
        return (Expr.Distinct l);
        map (fun a -> Expr.Distinct (Expr.Project (l, a))) attrs;
        map (fun h -> Expr.Map (l, h)) (head []);
      ]
  in
  let one_binding = leaf >>= fun l -> over_bindings [ "x" ] (bind_var "x" l) in
  let join =
    let pair (a, b) = ([ "x"; a ], [ "y"; b ]) in
    triple leaf leaf
      (list_size (int_range 1 2)
         (map pair (oneofl [ ("id", "id"); ("salary", "salary"); ("id", "salary") ])))
    >>= fun (l, r, pairs) ->
    over_bindings [ "x"; "y" ] (Expr.Join (bind_var "x" l, bind_var "y" r, pairs))
  in
  frequency [ (4, single); (2, one_binding); (2, join) ]

(* Each expression through each relational wrapper, by [execute] and by
   a prepared call made twice (its first call keeps nothing, its second
   keeps the statement): a call is refused exactly when [Wrapper.accepts]
   is false, and otherwise answers as the reference, [Expr.eval] over
   [Table.to_bag]. Shapes the SQL generator does not cover are not
   drawn: [Grammar.full_relational] derives some of them. *)
let prop_relational_wrapper_is_its_grammar =
  let wrappers =
    [
      Wrapper.sql_wrapper ();
      Wrapper.scan_wrapper ();
      Wrapper.select_wrapper ();
      Wrapper.select_wrapper ~comparisons:[ "=" ] ();
      Wrapper.project_wrapper ();
      Wrapper.indexed_wrapper ~eq:[ "id" ] ~range:[ "salary" ] ();
    ]
  in
  QCheck.Test.make ~long_factor
    ~name:"a relational wrapper refuses exactly what its grammar rejects"
    ~count:300
    (QCheck.make
       ~print:(fun (rows, e) ->
         Fmt.str "%d rows: %s" (List.length rows) (Expr.to_string e))
       QCheck.Gen.(pair sql_rows_gen relational_expr_gen))
    (fun (rows, e) ->
      let db = Database.create ~name:"prop" in
      Table.insert_all (Database.create_table db ~name:"person" sql_schema) rows;
      let source =
        Source.create ~id:"p"
          ~address:(Source.address ~host:"h" ~db_name:"db" ~ip:"0" ())
          (Source.Relational db)
      in
      let reference =
        Expr.eval
          ~resolve:(fun name -> Option.map Table.to_bag (Database.find_table db name))
          e
      in
      List.for_all
        (fun w ->
          let call = Wrapper.prepare w e in
          let answers = [ Wrapper.execute w source e; call source; call source ] in
          let agrees = function
            | Ok (v, n) -> Wrapper.accepts w e && V.equal v reference && n = V.cardinal v
            | Error (Wrapper.Refused _) -> not (Wrapper.accepts w e)
            | Error (Wrapper.Native_error _) -> false
          in
          List.for_all agrees answers
          || QCheck.Test.fail_reportf "%s (accepts %b): %s" (Wrapper.name w)
               (Wrapper.accepts w e)
               (String.concat "; "
                  (List.map
                     (function
                       | Ok (v, _) -> V.to_string v
                       | Error err -> Wrapper.error_message err)
                     answers)))
        wrappers)

(* -- template planning = branch-by-branch planning -- *)

(* The wrapper objects a drawn federation uses: two select wrappers of
   different grammars (the constructor is the same, so only the object
   tells them apart), a SQL, a project-only and a scan-only wrapper. *)
let template_wrapper = function
  | 0 -> Wrapper.select_wrapper ~comparisons:[ "=" ] ()
  | 1 -> Wrapper.select_wrapper ()
  | 2 -> Wrapper.sql_wrapper ()
  | 3 -> Wrapper.project_wrapper ()
  | _ -> Wrapper.scan_wrapper ()

type template_fed = {
  tf_exts : (bool * int) list;
      (** per extent [i]: whether it is a [Staff] extent [staff<i>]
          (otherwise [person<i>]), and its wrapper kind *)
  tf_shard : bool;  (** a two-shard Person extent [shp] *)
  tf_replica : bool;  (** the first extent is mirrored at [rrep] *)
  tf_map : bool;
      (** the second extent reads table [t1] through a type map *)
  tf_history : (int * int * int) list;
      (** recorded calls: (extent, salary bound or -1 for a scan, ms) *)
}

let template_ext_name tf i =
  if fst (List.nth tf.tf_exts i) then Fmt.str "staff%d" i else Fmt.str "person%d" i

(* [shared]: one wrapper object per kind, so like extents form classes;
   otherwise one object per extent, so none does. [down] repositories
   never answer. *)
let template_federation ~shared ~down tf =
  let m = Mediator.create ~name:(if shared then "shared" else "apart") () in
  let wobj i kind = if shared then Fmt.str "wk%d" kind else Fmt.str "wx%d" i in
  let repos = Buffer.create 256 in
  let source name (table, schema, rows) =
    let db = Database.create ~name:"db" in
    ignore (Datagen.table_of db ~name:table schema rows);
    let schedule =
      if List.mem name down then Schedule.down_during [ (0.0, 1e12) ]
      else Schedule.always_up
    in
    Mediator.register_source m ~name
      (Source.create ~id:name
         ~address:(Source.address ~host:name ~db_name:"db" ~ip:"0" ())
         ~schedule (Source.Relational db));
    Printf.bprintf repos {|%s := Repository(host="%s", name="db", address="0");|} name name
  and odl = Buffer.create 1024 in
  let rows i = Datagen.person_rows ~seed:(700 + i) ~n:6 in
  let wage = Schema.make [ ("id", Schema.TInt); ("name", Schema.TString); ("wage", Schema.TInt) ] in
  let objects = ref [] in
  List.iteri
    (fun i (staff, kind) ->
      let name = template_ext_name tf i and w = wobj i kind in
      if not (List.mem_assoc w !objects) then objects := (w, kind) :: !objects;
      let mapped = tf.tf_map && i = 1 in
      let table = if mapped then "t1" else name in
      let schema = if mapped then wage else Datagen.person_schema in
      source (Fmt.str "r%d" i) (table, schema, rows i);
      Printf.bprintf odl "extent %s of %s wrapper %s repository r%d%s%s;\n" name
        (if staff then "Staff" else "Person")
        w i
        (if tf.tf_replica && i = 0 then " replica rrep" else "")
        (if mapped then Fmt.str " map ((t1=%s),(wage=salary))" name else ""))
    tf.tf_exts;
  if tf.tf_replica then
    source "rrep" (template_ext_name tf 0, Datagen.person_schema, rows 0);
  if tf.tf_shard then (
    let partition =
      {
        Shard.p_key = "id";
        p_scheme = Shard.Range [ V.Int 3 ];
        p_shards =
          List.init 2 (fun k -> { Shard.s_repository = Fmt.str "rs%d" k; s_wrapper = None });
      }
    in
    let all = Datagen.person_rows ~seed:799 ~n:6 in
    List.iteri
      (fun k _ ->
        let slice = List.filter (fun r -> Shard.shard_of_value partition r.(0) = k) all in
        source (Fmt.str "rs%d" k) (Shard.child_name "shp" k, Datagen.person_schema, slice))
      partition.Shard.p_shards;
    let w = if shared then "wk2" else "wxs" in
    if not (List.mem_assoc w !objects) then objects := (w, 2) :: !objects;
    Buffer.add_string odl (Fmt.str "extent shp of Person wrapper %s %a;\n" w Shard.pp partition));
  Buffer.add_string odl "define rich as select x from x in person where x.salary > 100;\n";
  (* the objects' constructor is a placeholder: each is registered below *)
  Mediator.load_odl m
    (String.concat ""
       ({|interface Person (extent person) {
            attribute Short id;
            attribute String name;
            attribute Short salary; }
          interface Staff (extent staff) : Person { }
|}
       :: Buffer.contents repos
       :: List.map (fun (w, _) -> Fmt.str "%s := WrapperScan();\n" w) !objects)
    ^ Buffer.contents odl);
  let wrappers = List.map (fun (w, kind) -> (w, template_wrapper kind)) !objects in
  List.iter (fun (name, w) -> Mediator.register_wrapper m ~name w) wrappers;
  List.iter
    (fun (i, bound, ms) ->
      let get = Expr.Get (template_ext_name tf i) in
      let expr =
        if bound < 0 then get
        else Expr.Select (get, Expr.Cmp (Expr.Gt, Expr.Attr [ "salary" ], Expr.Const (V.Int bound)))
      in
      Cost_model.record (Mediator.cost_model m) ~repo:(Fmt.str "r%d" i) ~expr
        ~time_ms:(float_of_int ms) ~rows:(1 + (ms mod 7)))
    tf.tf_history;
  (m, wrappers)

let template_queries tf =
  let n = List.length tf.tf_exts in
  QCheck.Gen.(
    let bound = int_range 0 500 and ext = int_bound (n - 1) in
    list_size (int_range 1 4)
      (oneof
         [
           map (Fmt.str "select x.name from x in person where x.salary > %d") bound;
           map (Fmt.str "select x from x in person where x.id < %d") (int_range 0 6);
           return "select distinct x.name from x in person";
           map (Fmt.str "select distinct x.id from x in person where x.salary = %d") bound;
           map2
             (fun j b ->
               Fmt.str
                 "select struct(a: x.name, b: y.salary) from x in person, y in %s \
                  where x.id = y.id and x.salary > %d"
                 (template_ext_name tf j) b)
             ext bound;
           map (Fmt.str "select v.name from v in rich where v.id < %d") (int_range 0 6);
           map (Fmt.str "count(select x from x in person where x.salary > %d)") bound;
           map
             (Fmt.str "select x.name from x in union(person, %s) where x.salary > %d"
                (template_ext_name tf 0))
             bound;
           map (Fmt.str "select x.name from x in person* where x.salary > %d") bound;
         ]))

let template_fed_gen =
  QCheck.Gen.(
    int_range 3 7 >>= fun n ->
    map3
      (fun exts (shard, replica, tmap) history ->
        { tf_exts = exts; tf_shard = shard; tf_replica = replica; tf_map = tmap;
          tf_history =
            List.map (fun (i, b, ms) -> (i mod n, b, ms)) history })
      (list_repeat n (pair (map (fun k -> k = 0) (int_bound 3)) (int_bound 4)))
      (triple bool bool bool)
      (list_size (int_range 0 4)
         (triple (int_bound 6) (oneof [ return (-1); int_range 0 500 ]) (int_range 1 60))))

let prop_template_equals_branches =
  let gen =
    QCheck.Gen.(
      template_fed_gen >>= fun tf ->
      map2 (fun qs down -> (tf, qs, down)) (template_queries tf)
        (int_bound (List.length tf.tf_exts - 1)))
  in
  let print (tf, qs, down) =
    Fmt.str "exts=[%s] shard=%b replica=%b map=%b history=[%s] down=r%d %s"
      (String.concat ","
         (List.map (fun (st, k) -> Fmt.str "%s/%d" (if st then "staff" else "person") k) tf.tf_exts))
      tf.tf_shard tf.tf_replica tf.tf_map
      (String.concat ","
         (List.map (fun (i, b, ms) -> Fmt.str "%d:%d:%d" i b ms) tf.tf_history))
      down (String.concat " ; " qs)
  in
  let answer = function
    | Mediator.Complete v -> "complete " ^ V.to_string v
    | Mediator.Partial _ as a -> "partial " ^ Mediator.answer_oql a
    | Mediator.Unavailable rs -> "unavailable " ^ String.concat "," rs
  in
  (* the optimizer's choice for [q], planned afresh over [m]'s registry,
     wrappers and cost model: by the pipeline, and branch by branch (the
     optimizer without a class resolver) *)
  let choices m wrappers q =
    let p = pipeline_of ~wrappers ~metrics:(Metrics.create ()) m in
    let seen (c : Optimizer.choice) =
      ( Plan.to_string c.plan,
        Expr.to_string c.logical,
        c.alternatives,
        c.cost,
        Option.map (List.map (Fmt.to_to_string Check.pp_diag)) c.verdict )
    in
    match Result.bind (Pipeline.front p q) (fun e -> Ok (Pipeline.compile p e)) with
    | Ok (Ok located) ->
        let branches =
          Optimizer.optimize ~batch:true ~check:(Pipeline.checker p, Check.Warn)
            ~shard:(Pipeline.shard_of p) ~can_push:(Pipeline.can_push p)
            ~cost:(Mediator.cost_model m) located
        in
        Some (seen (Pipeline.optimize p located), seen branches)
    | _ -> None
  in
  QCheck.Test.make ~long_factor
    ~name:"template planning = branch-by-branch planning" ~count:40
    (QCheck.make ~print gen)
    (fun (tf, qs, down) ->
      List.for_all
        (fun down ->
          let shared, ws = template_federation ~shared:true ~down tf
          and apart, wa = template_federation ~shared:false ~down tf in
          List.for_all
            (fun q ->
              let plan_s = choices shared ws q and plan_a = choices apart wa q in
              let o_s = Mediator.query shared q and o_a = Mediator.query apart q in
              plan_s = plan_a
              && Option.fold ~none:true ~some:(fun (t, b) -> t = b) plan_s
              && answer o_s.Mediator.answer = answer o_a.Mediator.answer
              && Option.map Plan.to_string o_s.Mediator.plan
                 = Option.map Plan.to_string o_a.Mediator.plan)
            (qs @ qs))
        [ []; [ Fmt.str "r%d" down ] ])

let () =
  Alcotest.run "disco_properties"
    [
      ( "grammar-oracle",
        [
          Alcotest.test_case "earley vs brute force" `Quick
            test_earley_vs_brute_force;
          Alcotest.test_case "memo past its bound" `Quick
            test_memo_past_its_bound;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_accepts_is_derives;
            prop_like_matches_oracle;
            prop_join_algorithms_agree;
            prop_union_one_sort;
            prop_smoothing_bounded;
            prop_typemap_roundtrip;
            prop_cache_transparent;
            prop_batch_transparent;
            prop_shard_twin_equivalent;
            prop_verdict_reused;
            prop_sql_print_parse_stable;
            prop_identity_rewrites;
            prop_prepared_hit_equals_fresh;
            prop_canonical_collections;
            prop_table_to_bag;
            prop_pushed_chain_priced_from_scan;
            prop_relational_wrapper_is_its_grammar;
            prop_template_equals_branches;
          ] );
      ( "sql-oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_columnar_matches_rows;
            prop_maintained_indexes;
            prop_prepared_statement_follows_tables;
          ] );
      ( "walks",
        [ Alcotest.test_case "walk orders" `Quick test_walk_orders ] );
      ( "batching",
        [
          Alcotest.test_case "batch:false pinned stats" `Quick
            test_unbatched_pinned_stats;
          Alcotest.test_case "idle retry changes nothing" `Quick
            test_retry_idle_stats_identical;
          Alcotest.test_case "retry learns from every call" `Quick
            test_retry_learns_every_call;
        ] );
      ( "union",
        [
          Alcotest.test_case "non-collection branch" `Quick
            test_union_rejects_non_collection;
        ] );
      ( "smoothing",
        [ Alcotest.test_case "tracks level shifts" `Quick test_smoothing_tracks_shift ] );
      ( "typemap",
        [ Alcotest.test_case "composition" `Quick test_typemap_compose ] );
    ]
