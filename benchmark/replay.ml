(* The staged replay: one query answered by calling each public layer in
   turn, the way [Mediator.query] does, with every call timed from here.
   Nothing inside the libraries is instrumented.

     1 Parser.parse  2 Expand.expand  3 Compile.compile + Compile.locate
     4 plan-cache key (Ast.to_string, an LRU keyed on (text, registry
       version), like the mediator's)
     5 on a miss, Optimizer.optimize with a can_push that times each
       Wrapper.accepts
     6 Check.check_plan (the runtime's gate, run here so its time is
       separate; the runtime env has the gate off)
     7 Runtime.execute over bindings whose wrappers time their calls
     8 rendering of the answer

   Queries outside the algebraic subset run as one opaque
   Mediator.query on the replay's own federation (core.hybrid). *)

module V = Disco_value.Value
module Ast = Disco_oql.Ast
module Oql = Disco_oql.Parser
module Registry = Disco_odl.Registry
module Expr = Disco_algebra.Expr
module Compile = Disco_algebra.Compile
module Rules = Disco_algebra.Rules
module Plan = Disco_physical.Plan
module Optimizer = Disco_optimizer.Optimizer
module Check = Disco_check.Check
module Runtime = Disco_runtime.Runtime
module Wrapper = Disco_wrapper.Wrapper
module Sqlgen = Disco_wrapper.Sqlgen
module Source = Disco_source.Source
module Database = Disco_relation.Database
module Table = Disco_relation.Table
module Schema = Disco_relation.Schema
module Sql = Disco_relation.Sql
module Lru = Disco_cache.Lru
module Mediator = Disco_core.Mediator
module Expand = Disco_core.Expand

let now_us () = Unix.gettimeofday () *. 1e6

type stage =
  | Parse
  | Expand_
  | Compile_
  | Plan_key
  | Optimize
  | Check_plan
  | Execute
  | Render
  | Hybrid

let stages = [ Parse; Expand_; Compile_; Plan_key; Optimize; Check_plan; Execute; Render; Hybrid ]

let stage_index = function
  | Parse -> 0
  | Expand_ -> 1
  | Compile_ -> 2
  | Plan_key -> 3
  | Optimize -> 4
  | Check_plan -> 5
  | Execute -> 6
  | Render -> 7
  | Hybrid -> 8

let stage_name = function
  | Parse -> "oql.parse"
  | Expand_ -> "core.expand"
  | Compile_ -> "algebra.compile"
  | Plan_key -> "core.plan_key"
  | Optimize -> "optimizer.optimize"
  | Check_plan -> "check.plan"
  | Execute -> "runtime.execute"
  | Render -> "runtime.render"
  | Hybrid -> "core.hybrid"

(* Sums over replayed queries; the report divides by [queries] (or by
   [writes] for the write-side figures). *)
type acc = {
  mutable queries : int;
  stage_us : float array;
  stage_kw : float array;
  mutable wall_us : float;  (** whole replayed queries *)
  mutable accepts_us : float;
  mutable accepts_calls : int;
  mutable accepts_repeats : int;
  mutable call_us : float;  (** wrapper execute / execute_batch *)
  mutable optimized : int;
  mutable alternatives : int;
  mutable normalize_us : float;
  mutable sqlgen_us : float;
  mutable sql_run_us : float;
  mutable rebuild_us : float;
  mutable writes : int;
  mutable insert_us : float;
  mutable first_reads : int;
  mutable first_read_us : float;
}

let new_acc () =
  {
    queries = 0;
    stage_us = Array.make (List.length stages) 0.0;
    stage_kw = Array.make (List.length stages) 0.0;
    wall_us = 0.0;
    accepts_us = 0.0;
    accepts_calls = 0;
    accepts_repeats = 0;
    call_us = 0.0;
    optimized = 0;
    alternatives = 0;
    normalize_us = 0.0;
    sqlgen_us = 0.0;
    sql_run_us = 0.0;
    rebuild_us = 0.0;
    writes = 0;
    insert_us = 0.0;
    first_reads = 0;
    first_read_us = 0.0;
  }

let copy_acc a =
  { a with stage_us = Array.copy a.stage_us; stage_kw = Array.copy a.stage_kw }

type t = {
  fed : Fed.t;
  reg : Registry.t;
  mutable acc : acc;
  wrappers : (string, Wrapper.t * Wrapper.t) Hashtbl.t;
      (** wrapper object -> (built-in, timing decorator) *)
  cache : (string, Plan.plan * int) Lru.t;
  mutable checker : Check.t;
  asked : (string * Expr.expr, unit) Hashtbl.t;  (** this query's accepts asks *)
  mutable sql_seen : (Source.t * Expr.expr) list;  (** this query's SQL execs *)
  pending_write : (string, unit) Hashtbl.t;  (** sources written, not yet read *)
}

let timed t stage f =
  let i = stage_index stage in
  let w0 = Gc.minor_words () in
  let t0 = now_us () in
  let r = f () in
  t.acc.stage_us.(i) <- t.acc.stage_us.(i) +. (now_us () -. t0);
  t.acc.stage_kw.(i) <- t.acc.stage_kw.(i) +. ((Gc.minor_words () -. w0) /. 1000.0);
  r

let sql_capable w =
  match Wrapper.name w with "WrapperSql" | "WrapperIndexed" -> true | _ -> false

(* Wrapper.make around a built-in wrapper: same name and grammar, calls
   timed, SQL-path expressions remembered for the isolated sqlgen /
   engine / rebuild measurements. *)
let decorate t w =
  let call source f =
    let t0 = now_us () in
    let r = f () in
    let dt = now_us () -. t0 in
    t.acc.call_us <- t.acc.call_us +. dt;
    let id = Source.id source in
    if Hashtbl.mem t.pending_write id then begin
      Hashtbl.remove t.pending_write id;
      t.acc.first_reads <- t.acc.first_reads + 1;
      t.acc.first_read_us <- t.acc.first_read_us +. dt
    end;
    r
  in
  let remember source es =
    if sql_capable w then
      List.iter
        (fun e ->
          match e with
          | Expr.Get _ -> ()
          | e -> t.sql_seen <- (source, e) :: t.sql_seen)
        es
  in
  Wrapper.make ~name:(Wrapper.name w) ~grammar:(Wrapper.functionality w)
    ~execute:(fun source e ->
      remember source [ e ];
      call source (fun () -> Wrapper.execute w source e))
    ~execute_batch:(fun source es ->
      remember source es;
      call source (fun () -> Wrapper.execute_batch w source es))
    ()

let wrapper_pair t wname =
  match Hashtbl.find_opt t.wrappers wname with
  | Some p -> Some p
  | None ->
      Option.bind (Registry.find_object t.reg wname) (fun obj ->
          Option.map
            (fun w ->
              let p = (w, decorate t w) in
              Hashtbl.replace t.wrappers wname p;
              p)
            (Wrapper.of_constructor_args obj.Registry.obj_constructor
               obj.Registry.obj_args))

let wrapper_of_extent t ~decorated ext =
  Option.bind (Registry.find_extent t.reg ext) (fun me ->
      Option.map
        (fun (raw, dec) -> if decorated then dec else raw)
        (wrapper_pair t me.Registry.me_wrapper))

let repo_of t ext =
  Option.map (fun me -> me.Registry.me_repository) (Registry.find_extent t.reg ext)

let shard_of t ext =
  match Registry.find_extent t.reg ext with
  | Some { Registry.me_shard_of = Some (parent, k); _ } ->
      Option.bind (Registry.find_extent t.reg parent) (fun pe ->
          Option.map (fun p -> (p, k)) pe.Registry.me_partition)
  | _ -> None

let create (fed : Fed.t) =
  let reg = Mediator.registry fed.Fed.m in
  let t =
    {
      fed;
      reg;
      acc = new_acc ();
      wrappers = Hashtbl.create 8;
      cache = Lru.create ~capacity:128 ();
      checker = Check.make ();
      asked = Hashtbl.create 64;
      sql_seen = [];
      pending_write = Hashtbl.create 8;
    }
  in
  (* the mediator's checker: schema, wrappers, repositories *)
  t.checker <-
    Check.make ~registry:reg
      ~wrapper_of:(wrapper_of_extent t ~decorated:true)
      ~repo_of:(repo_of t)
      ~repo_known:(fun r ->
        Mediator.find_source fed.Fed.m r <> None || Registry.find_object reg r <> None)
      ();
  t

(* The mediator's capability check, with every Wrapper.accepts timed
   and counted when [timed]. *)
let can_push t ~timed ~repo:_ expr =
  let extents = Expr.gets expr in
  let ws = List.filter_map (wrapper_of_extent t ~decorated:false) extents in
  let accepts w =
    if not timed then Wrapper.accepts w expr
    else begin
      let key = (Wrapper.name w, expr) in
      if Hashtbl.mem t.asked key then t.acc.accepts_repeats <- t.acc.accepts_repeats + 1
      else Hashtbl.add t.asked key ();
      t.acc.accepts_calls <- t.acc.accepts_calls + 1;
      let t0 = now_us () in
      let r = Wrapper.accepts w expr in
      t.acc.accepts_us <- t.acc.accepts_us +. (now_us () -. t0);
      r
    end
  in
  List.length ws = List.length extents
  && (match ws with
     | [] -> false
     | first :: rest ->
         List.for_all (fun w -> String.equal (Wrapper.name w) (Wrapper.name first)) rest)
  && List.for_all accepts ws

let binding t ext =
  match Registry.find_extent t.reg ext with
  | None -> failwith ("replay: no extent " ^ ext)
  | Some me ->
      let source r =
        match Mediator.find_source t.fed.Fed.m r with
        | Some s -> s
        | None -> failwith ("replay: no source " ^ r)
      in
      {
        Runtime.b_extent = ext;
        b_repo = me.Registry.me_repository;
        b_source = source me.Registry.me_repository;
        b_replicas = List.map (fun r -> (r, source r)) me.Registry.me_replicas;
        b_wrapper = Option.get (wrapper_of_extent t ~decorated:true ext);
        b_map = me.Registry.me_map;
        b_check = None;
      }

let runtime_env t plan =
  let m = t.fed.Fed.m in
  let extents =
    List.sort_uniq String.compare
      (List.concat_map (fun (_, e) -> Expr.gets e) (Plan.all_source_exprs plan))
  in
  Runtime.env
    (Runtime.Config.make ~sched:(Mediator.scheduler m) ~metrics:(Mediator.metrics m)
       ~batch:true ~check:Check.Off ~checker:t.checker ~clock:(Mediator.clock m)
       ~cost:(Mediator.cost_model m) ())
    (List.map (binding t) extents)

let render = function
  | Mediator.Complete v -> Fmt.str "%a" V.pp v
  | Mediator.Partial p -> Runtime.answer_oql (Runtime.Partial p)
  | Mediator.Unavailable repos -> String.concat "," repos

(* Sqlgen, the columnar engine and the answer rebuild, each timed alone
   on the SQL-path expressions the decorated wrappers saw. *)
let isolated_sql t =
  List.iter
    (fun (source, e) ->
      match Source.kind source with
      | Source.Relational db -> (
          let schema_of table =
            Option.map
              (fun tb -> Schema.column_names (Table.schema tb))
              (Database.find_table db table)
          in
          let t0 = now_us () in
          match Sqlgen.compile ~schema_of e with
          | exception (Sqlgen.Unsupported _ | Invalid_argument _) -> ()
          | { Sqlgen.sql; rebuild } -> (
              let t1 = now_us () in
              t.acc.sqlgen_us <- t.acc.sqlgen_us +. (t1 -. t0);
              match Sql.run db sql with
              | exception Sql.Sql_error _ -> ()
              | result ->
                  let t2 = now_us () in
                  t.acc.sql_run_us <- t.acc.sql_run_us +. (t2 -. t1);
                  ignore (rebuild result);
                  t.acc.rebuild_us <- t.acc.rebuild_us +. (now_us () -. t2)))
      | Source.Key_value _ | Source.Flat_file _ | Source.Text _ -> ())
    t.sql_seen

let timeout_ms = Mediator.Query_opts.default.Mediator.Query_opts.timeout_ms

let compiled t ~expanded located =
  let key = timed t Plan_key (fun () -> Ast.to_string expanded) in
  let version = Registry.version t.reg in
  let hit =
    match Lru.find t.cache key with
    | Some (plan, v) when v = version -> Some plan
    | _ -> None
  in
  let plan, from_cache =
    match hit with
    | Some plan -> (plan, true)
    | None ->
        let m = t.fed.Fed.m in
        let choice =
          timed t Optimize (fun () ->
              Optimizer.optimize ~params:Plan.default_params ~metrics:(Mediator.metrics m)
                ~batch:true ~check:(t.checker, Check.Warn) ~shard:(shard_of t)
                ~can_push:(can_push t ~timed:true) ~cost:(Mediator.cost_model m) located)
        in
        t.acc.optimized <- t.acc.optimized + 1;
        t.acc.alternatives <- t.acc.alternatives + choice.Optimizer.alternatives;
        Lru.add t.cache key (choice.Optimizer.plan, version);
        (choice.Optimizer.plan, false)
  in
  ignore (timed t Check_plan (fun () -> Check.check_plan t.checker plan));
  let run plan =
    timed t Execute (fun () -> Runtime.execute ~timeout_ms (runtime_env t plan) plan)
  in
  let answer_of = function
    | Runtime.Complete v -> Mediator.Complete v
    | Runtime.Partial p -> Mediator.Partial p
  in
  let plan, (answer, stats), from_cache, fallback =
    match run plan with
    | r -> (plan, r, from_cache, false)
    | exception Runtime.Runtime_error _ ->
        (* a wrapper refused at run time: replan without pushdown *)
        let conservative =
          Plan.implement (Rules.normalize ~can_push:Rules.push_none located)
        in
        (conservative, run conservative, false, true)
  in
  {
    Mediator.answer = answer_of answer;
    stats;
    plan = Some plan;
    from_cache;
    answer_cache = { Mediator.answer_hits = 0; stale_hits = 0; stale_ms = 0.0 };
    fallback;
  }

let query t text =
  Hashtbl.reset t.asked;
  t.sql_seen <- [];
  let t0 = now_us () in
  let reg = t.reg in
  let ast = timed t Parse (fun () -> Oql.parse text) in
  let expanded = timed t Expand_ (fun () -> Expand.expand reg ast) in
  let located =
    timed t Compile_ (fun () ->
        match Compile.compile expanded with
        | Ok c -> Some (Compile.locate ~repo_of:(repo_of t) c)
        | Error _ -> None)
  in
  let outcome =
    match located with
    | Some located -> compiled t ~expanded located
    | None -> timed t Hybrid (fun () -> Mediator.query t.fed.Fed.m text)
  in
  ignore (timed t Render (fun () -> render outcome.Mediator.answer));
  t.acc.wall_us <- t.acc.wall_us +. (now_us () -. t0);
  t.acc.queries <- t.acc.queries + 1;
  (* isolated measurements, outside the replayed query's wall time *)
  (match (located, outcome.Mediator.from_cache) with
  | Some located, false ->
      let t1 = now_us () in
      ignore (Rules.normalize ~can_push:(can_push t ~timed:false) located);
      t.acc.normalize_us <- t.acc.normalize_us +. (now_us () -. t1)
  | _ -> ());
  isolated_sql t;
  outcome

let write t ~src rows =
  t.acc.insert_us <- t.acc.insert_us +. (1e6 *. Fed.write t.fed ~src rows);
  t.acc.writes <- t.acc.writes + 1;
  Hashtbl.replace t.pending_write (Source.id t.fed.Fed.sources.(src)) ()
