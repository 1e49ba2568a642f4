(* discoctl — drive a Disco mediator from the command line.

   The tool builds a demo federation (the paper's person world, a
   configurable number of sources) or loads ODL from a file, then runs
   queries, explains plans, simulates outages, and prints the catalog.
   `serve` turns the same federation into a long-running server speaking
   a line protocol; `load` drives it with an open-loop workload.

   Examples:

     discoctl query "select x.name from x in person where x.salary > 10"
     discoctl query --sources 8 --down r1,r3 --timeout 50 "..."
     discoctl explain "select x.name from x in person"
     discoctl repl --sources 4
     discoctl schema --odl my_schema.odl
     discoctl cache-stats --repeat 5 "select x.name from x in person"
     discoctl resubmit --down r0 --recover-at 500 "..."
     discoctl serve --port 7411 --inflight 4 --queue-bound 64
     discoctl load --port 7411 --rate 50 --duration 2 --health *)

module V = Disco_value.Value
module Shard = Disco_shard.Shard
module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Scheduler = Disco_source.Scheduler
module Datagen = Disco_source.Datagen
module Database = Disco_relation.Database
module Mediator = Disco_core.Mediator
module Registry = Disco_odl.Registry
module Answer_cache = Disco_cache.Answer_cache
module Resubmission = Disco_cache.Resubmission
module Check = Disco_check.Check
module Expr = Disco_algebra.Expr
module Rules = Disco_algebra.Rules
module Wrapper = Disco_wrapper.Wrapper
module Odl_parser = Disco_odl.Odl_parser
module Pipeline = Disco_core.Pipeline
module Runtime = Disco_runtime.Runtime
module Metrics = Disco_obs.Metrics
module Server = Disco_serve.Server
module Loadgen = Disco_serve.Loadgen
module Analysis = Disco_analysis.Analysis

open Cmdliner

let setup_logs verbosity =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (match verbosity with
    | 0 -> Some Logs.Warning
    | 1 -> Some Logs.Info
    | _ -> Some Logs.Debug)

let verbosity_arg =
  let doc = "Log verbosity: repeat for more (-v info, -vv debug)." in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* -- federation setup -- *)

let qopts ?(timeout_ms = 1000.0) ?(semantics = Mediator.Partial_answers) () =
  { Mediator.Query_opts.default with timeout_ms; semantics }

(* -- the shared federation options -- *)

module Conf = struct
  type t = {
    sources : int;
    rows : int;
    wrapper : string;
    shards : int;
    shard_scheme : [ `Range | `Hash ];
    down : string list;
    odl_file : string option;
    timeout : float;
    semantics : Mediator.semantics;
    use_cache : bool;
    retry : Runtime.Retry.t option;
    indexes : (string * string * [ `Hash | `Sorted ]) list;
        (** (table, column, kind) to declare on every repository hosting
            the table *)
  }
end

let sources_arg =
  let doc = "Number of generated person sources in the demo federation." in
  Arg.(value & opt int 2 & info [ "sources"; "n" ] ~docv:"N" ~doc)

let rows_arg =
  let doc = "Rows per generated source." in
  Arg.(value & opt int 10 & info [ "rows" ] ~docv:"ROWS" ~doc)

let wrapper_arg =
  let doc =
    "Wrapper constructor for the demo sources (WrapperPostgres, \
     WrapperSelect, WrapperProject, WrapperScan, WrapperIndexed; the \
     last names no indexed attribute here, so it serves scans only)."
  in
  Arg.(value & opt string "WrapperPostgres" & info [ "wrapper" ] ~docv:"W" ~doc)

let shards_arg =
  let doc =
    "Shard the demo person extent across N repositories (child extents \
     person__s0..person__s(N-1), one source each) instead of declaring N \
     independent extents. 0 disables sharding. Rows per shard follow \
     --rows; placement follows the declared scheme, so predicates on \
     x.id prune."
  in
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)

let shard_scheme_arg =
  let doc =
    "Partitioning scheme for --shards: range (id boundaries at multiples \
     of --rows) or hash (consistent-hash ring, deduplicating gather)."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("range", `Range); ("hash", `Hash) ]) `Range
    & info [ "shard-scheme" ] ~docv:"SCHEME" ~doc)

let down_arg =
  let doc = "Comma-separated repository names to take offline (e.g. r0,r2)." in
  let repos = Arg.(list ~sep:',' string) in
  Arg.(value & opt repos [] & info [ "down" ] ~docv:"REPOS" ~doc)

let timeout_arg =
  let doc = "Designated deadline in virtual milliseconds (Section 4)." in
  Arg.(value & opt float 1000.0 & info [ "timeout" ] ~docv:"MS" ~doc)

let odl_arg =
  let doc = "Load this ODL file instead of building the demo federation." in
  Arg.(value & opt (some file) None & info [ "odl" ] ~docv:"FILE" ~doc)

let semantics_arg =
  let doc =
    "Unavailable-data semantics: partial, wait-all, null, skip, or cached \
     (serve outages from the answer cache, see --max-stale; implies \
     --cache)."
  in
  Arg.(
    value
    & opt
        (Arg.enum
           [
             ("partial", `Partial);
             ("wait-all", `Wait_all);
             ("null", `Null);
             ("skip", `Skip);
             ("cached", `Cached);
           ])
        `Partial
    & info [ "semantics" ] ~doc)

let max_stale_arg =
  let doc =
    "Staleness budget (virtual ms) for --semantics cached: outage fallbacks \
     are only served from cache entries at most this old."
  in
  Arg.(value & opt float 60_000.0 & info [ "max-stale" ] ~docv:"MS" ~doc)

let cache_arg =
  let doc = "Attach a semantic answer cache to the mediator." in
  Arg.(value & flag & info [ "cache" ] ~doc)

(* -- retry/hedge/breaker options (DESIGN.md §4g) -- *)

let retry_flag_arg =
  let doc =
    "Enable the deadline-aware retry scheduler: blocked execs are \
     re-polled on exponential backoff within the query deadline instead \
     of finalizing at issue time."
  in
  Arg.(value & flag & info [ "retry" ] ~doc)

let retry_initial_arg =
  let doc = "Delay (virtual ms) before the first re-poll." in
  Arg.(value & opt float 50.0 & info [ "retry-initial" ] ~docv:"MS" ~doc)

let retry_multiplier_arg =
  let doc = "Backoff multiplier between re-polls." in
  Arg.(value & opt float 2.0 & info [ "retry-multiplier" ] ~docv:"X" ~doc)

let retry_attempts_arg =
  let doc = "Maximum re-polls per blocked exec." in
  Arg.(value & opt int 4 & info [ "retry-attempts" ] ~docv:"N" ~doc)

let hedge_arg =
  let doc =
    "Hedge delay (virtual ms): when the primary's answer would land later \
     than this, also dial the first live replica and keep the earlier \
     completion. Implies --retry."
  in
  Arg.(value & opt (some float) None & info [ "hedge" ] ~docv:"MS" ~doc)

let breaker_arg =
  let doc =
    "Circuit-breaker threshold: skip re-polls/hedges to a source after \
     this many consecutive failures. Implies --retry."
  in
  Arg.(value & opt (some int) None & info [ "breaker" ] ~docv:"N" ~doc)

let breaker_cooldown_arg =
  let doc =
    "How long (virtual ms) an open breaker rejects calls before a \
     half-open probe."
  in
  Arg.(value & opt float 400.0 & info [ "breaker-cooldown" ] ~docv:"MS" ~doc)

let index_spec =
  let parse spec =
    match String.split_on_char ':' spec with
    | [ table; column; kind ] when table <> "" && column <> "" -> (
        match Disco_relation.Index.kind_of_string kind with
        | Some Disco_relation.Index.Hash -> Ok (table, column, `Hash)
        | Some Disco_relation.Index.Sorted -> Ok (table, column, `Sorted)
        | None ->
            Error
              (`Msg (Fmt.str "unknown kind %S (hash or sorted), in %S" kind spec))
        )
    | _ -> Error (`Msg (Fmt.str "expected table:column:kind, got %S" spec))
  in
  let print ppf (table, column, kind) =
    Fmt.pf ppf "%s:%s:%s" table column
      (match kind with `Hash -> "hash" | `Sorted -> "sorted")
  in
  Arg.conv (parse, print)

let index_arg =
  let doc =
    "Declare a source-side secondary index as table:column:kind (kind: \
     hash for equality, sorted for ranges on numeric columns) on every \
     repository hosting the table; repeatable. The columnar engine \
     serves matching filters from it, and the optimizer treats such \
     pushdowns as informed."
  in
  Arg.(value & opt_all index_spec [] & info [ "index" ] ~docv:"SPEC" ~doc)

let conf_term =
  let mk sources rows wrapper shards shard_scheme down odl_file timeout
      semantics max_stale cache retry_flag retry_initial retry_multiplier
      retry_attempts hedge_ms breaker_threshold breaker_cooldown indexes =
    let retry =
      if retry_flag || hedge_ms <> None || breaker_threshold <> None then
        Some
          (Runtime.Retry.make ~initial_ms:retry_initial
             ~multiplier:retry_multiplier ~max_attempts:retry_attempts
             ?hedge_ms ?breaker_threshold ~breaker_cooldown_ms:breaker_cooldown
             ())
      else None
    in
    {
      Conf.sources;
      rows;
      wrapper;
      shards;
      shard_scheme;
      down;
      odl_file;
      timeout;
      semantics =
        (match semantics with
        | `Partial -> Mediator.Partial_answers
        | `Wait_all -> Mediator.Wait_all
        | `Null -> Mediator.Null_sources
        | `Skip -> Mediator.Skip_sources
        | `Cached -> Mediator.Cached_fallback { max_stale_ms = max_stale });
      use_cache = cache || semantics = `Cached;
      retry;
      indexes;
    }
  in
  Term.(
    const mk $ sources_arg $ rows_arg $ wrapper_arg $ shards_arg
    $ shard_scheme_arg $ down_arg $ odl_arg $ timeout_arg $ semantics_arg
    $ max_stale_arg $ cache_arg $ retry_flag_arg $ retry_initial_arg
    $ retry_multiplier_arg $ retry_attempts_arg $ hedge_arg $ breaker_arg
    $ breaker_cooldown_arg $ index_arg)

let conf_qopts (conf : Conf.t) =
  qopts ~timeout_ms:conf.Conf.timeout ~semantics:conf.Conf.semantics ()

(* The sharded demo federation: one logical [person] extent declared
   [sharded by id] across N repositories. Rows are sliced with
   {!Shard.shard_of_value} so placement agrees with what the optimizer
   prunes; each source serves its slice under the child-extent table
   name [person__s<k>]. *)
let load_sharded_demo m ~shards ~shard_scheme ~rows ~wrapper =
  let scheme =
    match shard_scheme with
    | `Hash -> Shard.Hash { vnodes = Shard.default_vnodes }
    | `Range ->
        Shard.Range (List.init (shards - 1) (fun k -> V.Int ((k + 1) * rows)))
  in
  let partition =
    {
      Shard.p_key = "id";
      p_scheme = scheme;
      p_shards =
        List.init shards (fun k ->
            { Shard.s_repository = Fmt.str "r%d" k; s_wrapper = None });
    }
  in
  let all_rows = Datagen.person_rows ~seed:42 ~n:(rows * shards) in
  Mediator.load_odl m
    (Fmt.str
       {|w0 := %s();
         interface Person (extent person) {
           attribute Short id;
           attribute String name;
           attribute Short salary; }|}
       wrapper);
  for k = 0 to shards - 1 do
    let slice =
      List.filter
        (fun row -> Shard.shard_of_value partition row.(0) = k)
        all_rows
    in
    let db = Database.create ~name:"db" in
    ignore
      (Datagen.table_of db ~name:(Shard.child_name "person" k)
         Datagen.person_schema slice);
    Mediator.register_source m ~name:(Fmt.str "r%d" k)
      (Source.create ~id:(Shard.child_name "person" k)
         ~address:
           (Source.address ~host:(Fmt.str "site%d" k) ~db_name:"db"
              ~ip:(Fmt.str "10.0.0.%d" k) ())
         (Source.Relational db));
    Mediator.load_odl m
      (Fmt.str
         {|r%d := Repository(host="site%d", name="db", address="10.0.0.%d");|}
         k k k)
  done;
  Mediator.load_odl m
    (Fmt.str "extent person of Person wrapper w0 %a;" Shard.pp partition)

let build_mediator ?cache ?trace_sink ?metrics ?recover_at ?sched
    (conf : Conf.t) =
  let config =
    {
      Mediator.Config.default with
      cache;
      trace_sink;
      metrics =
        Option.value metrics
          ~default:Mediator.Config.default.Mediator.Config.metrics;
      retry = conf.Conf.retry;
      sched;
    }
  in
  let m = Mediator.create ~config ~name:"discoctl" () in
  (match conf.Conf.odl_file with
  | Some path -> Mediator.load_odl m (read_file path)
  | None when conf.Conf.shards > 0 ->
      load_sharded_demo m ~shards:conf.Conf.shards
        ~shard_scheme:conf.Conf.shard_scheme ~rows:conf.Conf.rows
        ~wrapper:conf.Conf.wrapper
  | None ->
      Mediator.load_odl m
        (Fmt.str
           {|w0 := %s();
             interface Person (extent person) {
               attribute Short id;
               attribute String name;
               attribute Short salary; }|}
           conf.Conf.wrapper);
      for i = 0 to conf.Conf.sources - 1 do
        let name = Fmt.str "person%d" i in
        let db = Database.create ~name:"db" in
        ignore
          (Datagen.table_of db ~name Datagen.person_schema
             (Datagen.person_rows ~seed:(42 + i) ~n:conf.Conf.rows));
        Mediator.register_source m ~name:(Fmt.str "r%d" i)
          (Source.create ~id:name
             ~address:
               (Source.address ~host:(Fmt.str "site%d" i) ~db_name:"db"
                  ~ip:(Fmt.str "10.0.0.%d" i) ())
             (Source.Relational db));
        Mediator.load_odl m
          (Fmt.str
             {|r%d := Repository(host="site%d", name="db", address="10.0.0.%d");
               extent person%d of Person wrapper w0 repository r%d;|}
             i i i i i)
      done);
  let outage =
    (* --recover-at makes outages end, so resubmission can converge *)
    match recover_at with
    | Some t -> Schedule.down_during [ (0.0, t) ]
    | None -> Schedule.always_down
  in
  List.iter
    (fun repo ->
      match Mediator.find_source m repo with
      | Some src -> Source.set_schedule src outage
      | None -> Fmt.epr "warning: no source attached to %s@." repo)
    conf.Conf.down;
  List.iter
    (fun (table, column, kind) ->
      let hosts =
        List.filter
          (fun (repo, _) ->
            match Mediator.find_source m repo with
            | Some src -> (
                match Source.kind src with
                | Source.Relational db ->
                    Database.find_table db table <> None
                | Source.Key_value _ | Source.Flat_file _ | Source.Text _ ->
                    false)
            | None -> false)
          (Mediator.source_stats m)
      in
      if hosts = [] then
        Fmt.epr "warning: --index %s:%s: no repository hosts that table@."
          table column
      else
        List.iter
          (fun (repo, _) -> Mediator.declare_index m ~repo ~table ~column ~kind)
          hosts)
    conf.Conf.indexes;
  m

let print_outcome m outcome =
  (match outcome.Mediator.answer with
  | Mediator.Complete v -> Fmt.pr "answer: %a@." V.pp v
  | Mediator.Partial { unavailable; _ } as answer ->
      Fmt.pr "partial answer (unavailable: %s):@.  %s@."
        (String.concat ", " unavailable)
        (Mediator.answer_oql answer);
      let stale = Mediator.stale_hint m answer in
      if stale <> [] then
        Fmt.pr "note: data changed at %s since it answered@."
          (String.concat ", " stale)
  | Mediator.Unavailable repos ->
      Fmt.pr "no answer: %s unavailable@." (String.concat ", " repos));
  let s = outcome.Mediator.stats in
  Fmt.pr
    "stats: %d execs (%d answered, %d blocked), %d tuples shipped, %.1f \
     virtual ms%s%s@."
    s.Disco_runtime.Runtime.execs_issued s.Disco_runtime.Runtime.execs_answered
    s.Disco_runtime.Runtime.execs_blocked
    s.Disco_runtime.Runtime.tuples_shipped s.Disco_runtime.Runtime.elapsed_ms
    (if outcome.Mediator.from_cache then ", cached plan" else "")
    (if outcome.Mediator.fallback then ", capability fallback" else "");
  let c = outcome.Mediator.answer_cache in
  if c.Mediator.answer_hits > 0 || c.Mediator.stale_hits > 0 then
    Fmt.pr "answer cache: %d fresh hit(s), %d stale serve(s)%s@."
      c.Mediator.answer_hits c.Mediator.stale_hits
      (if c.Mediator.stale_hits > 0 then
         Fmt.str " (max staleness %.1f ms)" c.Mediator.stale_ms
       else "")

let print_breaker_state m =
  match Mediator.retry_policy m with
  | None -> ()
  | Some _ -> (
      match Mediator.breaker_snapshot m with
      | [] -> ()
      | rows ->
          List.iter
            (fun (id, fails, opened_at) ->
              match opened_at with
              | Some t ->
                  Fmt.pr
                    "breaker: %s OPEN since t=%.1f (%d consecutive failures)@."
                    id t fails
              | None ->
                  Fmt.pr "breaker: %s closed (%d consecutive failure(s))@." id
                    fails)
            rows)

let with_conf ?trace_sink ?metrics ?recover_at ?(force_cache = false) f
    (conf : Conf.t) verbosity =
  setup_logs (List.length verbosity);
  let cache =
    if force_cache || conf.Conf.use_cache then Some (Answer_cache.create ())
    else None
  in
  match f (build_mediator ?cache ?trace_sink ?metrics ?recover_at conf) with
  | () -> `Ok ()
  | exception Mediator.Mediator_error m -> `Error (false, m)
  | exception Disco_runtime.Runtime.Runtime_error m -> `Error (false, m)

(* -- commands -- *)

let query_cmd =
  let q_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OQL")
  in
  let recover_arg =
    let doc =
      "Virtual time (ms) at which the --down repositories come back up — \
       with --retry, the scheduler's re-polls pick them up mid-query."
    in
    Arg.(value & opt (some float) None & info [ "recover-at" ] ~docv:"MS" ~doc)
  in
  let run conf verbosity recover_at q =
    with_conf ?recover_at
      (fun m ->
        print_outcome m (Mediator.query ~opts:(conf_qopts conf) m q);
        print_breaker_state m)
      conf verbosity
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run an OQL query against the federation.")
    Term.(ret (const run $ conf_term $ verbosity_arg $ recover_arg $ q_arg))

let explain_cmd =
  let q_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OQL")
  in
  let run conf verbosity q =
    with_conf (fun m -> Fmt.pr "%s@." (Mediator.explain m q)) conf verbosity
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the optimizer's plan for a query without executing it.")
    Term.(ret (const run $ conf_term $ verbosity_arg $ q_arg))

let schema_cmd =
  let run conf verbosity =
    with_conf
      (fun m ->
        let reg = Mediator.registry m in
        Fmt.pr "interfaces:@.";
        List.iter
          (fun name ->
            let attrs = Registry.attributes_of reg name in
            Fmt.pr "  %s { %s }@." name
              (String.concat "; "
                 (List.map
                    (fun (a, ty) ->
                      Fmt.str "%s: %s" a (Disco_odl.Otype.to_string ty))
                    attrs)))
          (Registry.interface_names reg);
        Fmt.pr "extents:@.";
        List.iter
          (fun e ->
            Fmt.pr "  %s of %s via %s at %s@." e.Registry.me_name
              e.Registry.me_interface e.Registry.me_wrapper
              e.Registry.me_repository)
          (Registry.all_extents reg);
        Fmt.pr "views: %s@."
          (String.concat ", " (Registry.view_names reg)))
      conf verbosity
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Print the mediator's internal schema database.")
    Term.(ret (const run $ conf_term $ verbosity_arg))

let repl_cmd =
  let run conf verbosity =
    with_conf
      (fun m ->
        Fmt.pr
          "disco repl — OQL queries, ':odl <stmt>' to define, ':quit' to \
           leave@.";
        let rec loop () =
          Fmt.pr "disco> %!";
          match In_channel.input_line stdin with
          | None -> ()
          | Some "" -> loop ()
          | Some ":quit" | Some ":q" -> ()
          | Some line
            when String.length line > 5 && String.sub line 0 5 = ":odl " ->
              (try
                 Mediator.load_odl m
                   (String.sub line 5 (String.length line - 5))
               with Mediator.Mediator_error e -> Fmt.pr "error: %s@." e);
              loop ()
          | Some q ->
              (try print_outcome m (Mediator.query ~opts:(conf_qopts conf) m q)
               with
              | Mediator.Mediator_error e -> Fmt.pr "error: %s@." e
              | Disco_runtime.Runtime.Runtime_error e ->
                  Fmt.pr "error: %s@." e);
              loop ()
        in
        loop ())
      conf verbosity
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive OQL shell over the federation.")
    Term.(ret (const run $ conf_term $ verbosity_arg))

let catalog_cmd =
  let run conf verbosity =
    with_conf
      (fun m ->
        let module Catalog = Disco_catalog.Catalog in
        let c = Catalog.create ~name:"discoctl" in
        Mediator.register_in_catalog m c;
        Fmt.pr "%a@." Catalog.pp c;
        List.iter
          (fun e ->
            Fmt.pr "  %-10s %-12s owner=%s %s@."
              (Catalog.kind_name e.Catalog.e_kind)
              e.Catalog.e_name e.Catalog.e_owner
              (String.concat ", "
                 (List.map (fun (k, v) -> k ^ "=" ^ v) e.Catalog.e_info)))
          (Catalog.entries c))
      conf verbosity
  in
  Cmd.v
    (Cmd.info "catalog"
       ~doc:"Register the federation in a catalog and print the overview.")
    Term.(ret (const run $ conf_term $ verbosity_arg))

let shards_cmd =
  let bounds_str p k =
    match p.Shard.p_scheme with
    | Shard.Hash _ -> ""
    | Shard.Range bs ->
        let n = List.length bs in
        let endpoint = Fmt.to_to_string V.pp in
        let lo = if k = 0 then "-inf" else endpoint (List.nth bs (k - 1)) in
        let hi = if k >= n then "+inf" else endpoint (List.nth bs k) in
        Fmt.str "  key in [%s, %s)" lo hi
  in
  let run conf verbosity =
    with_conf
      (fun m ->
        let reg = Mediator.registry m in
        let parents =
          List.filter
            (fun e -> e.Registry.me_partition <> None)
            (Registry.all_extents reg)
        in
        if parents = [] then
          Fmt.pr
            "no sharded extents (try --shards 4, or --odl with a 'sharded \
             by' extent)@."
        else
          List.iter
            (fun e ->
              match e.Registry.me_partition with
              | None -> ()
              | Some p ->
                  Fmt.pr "%s of %s: %a@." e.Registry.me_name
                    e.Registry.me_interface Shard.pp p;
                  List.iteri
                    (fun k child ->
                      Fmt.pr "  shard %d: %s at %s via %s%s@." k
                        child.Registry.me_name child.Registry.me_repository
                        child.Registry.me_wrapper (bounds_str p k))
                    (Registry.shard_children reg e.Registry.me_name))
            parents)
      conf verbosity
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:
         "Print the shard map of every partitioned extent: shard key, \
          scheme, and the per-shard child extents with their repositories \
          (range shards also show their key interval).")
    Term.(ret (const run $ conf_term $ verbosity_arg))

let indexes_cmd =
  let run conf verbosity =
    with_conf
      (fun m ->
        let module Table = Disco_relation.Table in
        let module Index = Disco_relation.Index in
        let rows = ref [] in
        List.iter
          (fun (repo, _) ->
            match Mediator.find_source m repo with
            | Some src -> (
                match Source.kind src with
                | Source.Relational db ->
                    List.iter
                      (fun tname ->
                        let t = Database.get_table db tname in
                        List.iter
                          (fun (column, kind) ->
                            rows :=
                              (repo, tname, column, Index.kind_name kind)
                              :: !rows)
                          (Table.indexes t))
                      (Database.table_names db)
                | Source.Key_value _ | Source.Flat_file _ | Source.Text _ ->
                    ())
            | None -> ())
          (Mediator.source_stats m);
        (match List.rev !rows with
        | [] -> Fmt.pr "no declared indexes (try --index table:column:kind)@."
        | rows ->
            List.iter
              (fun (repo, table, column, kind) ->
                Fmt.pr "%s: %s.%s %s@." repo table column kind)
              rows);
        let cost = Mediator.cost_model m in
        List.iter
          (fun (repo, _) ->
            match Disco_cost.Cost_model.indexed_attrs cost ~repo with
            | [] -> ()
            | attrs ->
                Fmt.pr "cost model: %s serves %s@." repo
                  (String.concat ", "
                     (List.map
                        (fun (a, k) ->
                          Fmt.str "%s (%s)" a
                            (match k with
                            | `Hash -> "hash"
                            | `Sorted -> "sorted"))
                        attrs)))
          (Mediator.source_stats m))
      conf verbosity
  in
  Cmd.v
    (Cmd.info "indexes"
       ~doc:
         "List the declared secondary indexes of every repository (and \
          which attributes the cost model prices as index-served). \
          Declare them with --index table:column:kind.")
    Term.(ret (const run $ conf_term $ verbosity_arg))

let print_cache_stats m =
  (match Mediator.answer_cache_stats m with
  | Some s -> Fmt.pr "answer cache: %a@." Answer_cache.pp_stats s
  | None -> Fmt.pr "answer cache: none attached@.");
  let p = Mediator.plan_cache_stats m in
  Fmt.pr "plan cache: %d/%d entries, %d hits, %d misses, %d evictions@."
    p.Mediator.p_size p.Mediator.p_capacity p.Mediator.p_hits
    p.Mediator.p_misses p.Mediator.p_evictions

let cache_stats_cmd =
  let q_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OQL")
  in
  let repeat_arg =
    let doc = "Number of times to run the query (warm-up effects show)." in
    Arg.(value & opt int 3 & info [ "repeat" ] ~docv:"K" ~doc)
  in
  let run conf verbosity repeat q =
    with_conf ~force_cache:true
      (fun m ->
        for k = 1 to repeat do
          let o = Mediator.query ~opts:(conf_qopts conf) m q in
          let s = o.Mediator.stats in
          Fmt.pr
            "run %d: %d execs, %d answered from source, %d from cache, %d \
             tuples shipped, %.1f virtual ms@."
            k s.Disco_runtime.Runtime.execs_issued
            (s.Disco_runtime.Runtime.execs_answered
            - s.Disco_runtime.Runtime.cache_hits
            - s.Disco_runtime.Runtime.cache_stale_hits)
            s.Disco_runtime.Runtime.cache_hits
            s.Disco_runtime.Runtime.tuples_shipped
            s.Disco_runtime.Runtime.elapsed_ms
        done;
        print_cache_stats m)
      conf verbosity
  in
  Cmd.v
    (Cmd.info "cache-stats"
       ~doc:
         "Run a query repeatedly with the semantic answer cache attached and \
          print hit/miss/eviction counters.")
    Term.(ret (const run $ conf_term $ verbosity_arg $ repeat_arg $ q_arg))

let trace_cmd =
  let q_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OQL")
  in
  let json_arg =
    let doc = "Emit the trace as JSON instead of the pretty span tree." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let recover_arg =
    let doc =
      "Virtual time (ms) at which the --down repositories come back up."
    in
    Arg.(value & opt (some float) None & info [ "recover-at" ] ~docv:"MS" ~doc)
  in
  let run conf verbosity recover_at json q =
    let traces = ref [] in
    let sink trace = traces := trace :: !traces in
    with_conf ?recover_at ~trace_sink:sink
      (fun m ->
        let o = Mediator.query ~opts:(conf_qopts conf) m q in
        List.iter
          (fun trace ->
            if json then Fmt.pr "%s@." (Disco_obs.Trace.to_json trace)
            else Fmt.pr "%a" Disco_obs.Trace.pp trace)
          (List.rev !traces);
        if not json then print_outcome m o)
      conf verbosity
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a query with tracing enabled and print its span tree: \
          per-phase virtual timings plus one line per exec with \
          repository, origin (source/cache/stale/failover), elapsed ms \
          and tuples shipped. With --retry, re-polls show as child spans \
          of their exec.")
    Term.(
      ret
        (const run $ conf_term $ verbosity_arg $ recover_arg $ json_arg $ q_arg))

let metrics_cmd =
  let q_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OQL")
  in
  let repeat_arg =
    let doc =
      "Number of times to run the query before dumping the registry."
    in
    Arg.(value & opt int 3 & info [ "repeat" ] ~docv:"K" ~doc)
  in
  let json_arg =
    let doc = "Emit the metrics registry as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run conf verbosity repeat json q =
    (* an isolated registry: only this invocation's counters show *)
    let metrics = Metrics.create () in
    with_conf ~metrics
      (fun m ->
        for _ = 1 to repeat do
          ignore (Mediator.query ~opts:(conf_qopts conf) m q)
        done;
        if json then Fmt.pr "%s@." (Metrics.to_json metrics)
        else Fmt.pr "%a" Metrics.pp metrics;
        print_breaker_state m)
      conf verbosity
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a query repeatedly and dump the mediator's metrics registry \
          (execs by origin, plan-cache hits, optimizer rules fired, \
          runtime.retry.* / runtime.hedge.* under --retry, ...).")
    Term.(
      ret
        (const run $ conf_term $ verbosity_arg $ repeat_arg $ json_arg $ q_arg))

let resubmit_cmd =
  let q_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OQL")
  in
  let recover_arg =
    let doc =
      "Virtual time (ms) at which the --down repositories come back up."
    in
    Arg.(value & opt float 500.0 & info [ "recover-at" ] ~docv:"MS" ~doc)
  in
  let run conf verbosity recover_at q =
    with_conf ~force_cache:true ~recover_at
      (fun m ->
        let o = Mediator.query ~opts:(conf_qopts conf) m q in
        Fmt.pr "initial answer:@.";
        print_outcome m o;
        let queue = Resubmission.create ~clock:(Mediator.clock m) () in
        match Mediator.record_partial queue o with
        | None -> Fmt.pr "@.nothing to resubmit: the answer is complete.@."
        | Some id ->
            Fmt.pr "@.recorded partial #%d; draining as sources recover...@."
              id;
            let converged =
              Resubmission.drain queue
                ~source_of:(Mediator.find_source m)
                ~run:(Mediator.resubmission_runner ~opts:(conf_qopts conf) m)
            in
            List.iter
              (fun e ->
                match e.Resubmission.state with
                | Resubmission.Converged rounds ->
                    Fmt.pr
                      "partial #%d converged after %d round(s) at t=%.1f@."
                      e.Resubmission.id rounds
                      (Disco_source.Clock.now (Mediator.clock m))
                | Resubmission.Pending ->
                    Fmt.pr "partial #%d still pending (no recovery in sight)@."
                      e.Resubmission.id)
              (Resubmission.entries queue);
            if converged > 0 then (
              Fmt.pr "@.re-running the original query (cache is now warm):@.";
              print_outcome m (Mediator.query ~opts:(conf_qopts conf) m q));
            print_cache_stats m)
      conf verbosity
  in
  Cmd.v
    (Cmd.info "resubmit"
       ~doc:
         "Run a query against a federation with recovering outages, record \
          the partial answer, and drive it to completion through the \
          resubmission manager.")
    Term.(ret (const run $ conf_term $ verbosity_arg $ recover_arg $ q_arg))

(* -- serve: a long-running mediator behind the line protocol -- *)

let body_of_outcome o =
  match o.Mediator.answer with
  | Mediator.Complete v -> Fmt.str "%a" V.pp v
  | Mediator.Partial { unavailable; _ } as a ->
      Fmt.str "partial(%s) %s"
        (String.concat "," unavailable)
        (Mediator.answer_oql a)
  | Mediator.Unavailable repos ->
      Fmt.str "unavailable(%s)" (String.concat "," repos)

let serve_cmd =
  let port_arg =
    let doc = "TCP port to listen on (loopback only)." in
    Arg.(value & opt int 7411 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let inflight_arg =
    let doc =
      "Admission limit: the number of worker threads, i.e. queries \
       executing concurrently. Every worker queries the one mediator of \
       the federation, so they share its plan cache, cost model, \
       breaker state and answer cache, its wall-clock scheduler and its \
       metrics registry."
    in
    Arg.(value & opt int 4 & info [ "inflight" ] ~docv:"N" ~doc)
  in
  let queue_bound_arg =
    let doc =
      "Backlog bound: once this many accepted queries are waiting for a \
       worker, further submissions are shed (the client gets back the \
       query text as the residual, in the spirit of partial answers)."
    in
    Arg.(value & opt int 64 & info [ "queue-bound" ] ~docv:"N" ~doc)
  in
  let domains_arg =
    let doc =
      "Domains in the wall-clock scheduler's pool (default: cores - 1)."
    in
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  let run conf verbosity port inflight queue_bound domains =
    setup_logs (List.length verbosity);
    match
      let sched = Scheduler.wall ?domains () in
      let metrics = Metrics.create () in
      let opts = conf_qopts conf in
      let cache =
        if conf.Conf.use_cache then Some (Answer_cache.create ()) else None
      in
      let med = build_mediator ?cache ~metrics ~sched conf in
      let worker ~tenant:_ oql =
        match Mediator.query ~opts med oql with
        | o ->
            Server.Answered
              {
                body = body_of_outcome o;
                elapsed_ms = o.Mediator.stats.Disco_runtime.Runtime.elapsed_ms;
              }
        | exception Mediator.Mediator_error e -> Server.Failed e
        | exception Disco_runtime.Runtime.Runtime_error e -> Server.Failed e
      in
      let srv = Server.create ~inflight ~queue_bound ~metrics ~worker () in
      Server.serve_tcp srv ~port ();
      Scheduler.shutdown sched
    with
    | () -> `Ok ()
    | exception Invalid_argument msg -> `Error (false, msg)
    | exception Mediator.Mediator_error msg -> `Error (false, msg)
    | exception Unix.Unix_error (e, _, _) ->
        `Error (false, "serve: " ^ Unix.error_message e)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the federation over a line protocol: 'query <tenant> \
          <oql>' answers 'ok <elapsed-ms> <answer>' or 'shed <residual>', \
          'health' and 'metrics' report server state, 'shutdown' stops \
          the listener. Admission control holds concurrent queries at \
          --inflight and sheds beyond --queue-bound; tenants are drained \
          round-robin so none starves.")
    Term.(
      ret
        (const run $ conf_term $ verbosity_arg $ port_arg $ inflight_arg
       $ queue_bound_arg $ domains_arg))

(* -- load: open-loop Zipfian workload against a serve instance -- *)

let default_query_pool =
  [|
    "select x.name from x in person where x.salary > 10";
    "select x.name from x in person";
    "select x from x in person where x.id < 5";
    "select x.salary from x in person where x.salary < 40";
  |]

(* One short-lived protocol exchange per command line. *)
let tcp_lines ~host ~port cmds =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      List.map
        (fun cmd ->
          output_string oc (cmd ^ "\n");
          flush oc;
          match input_line ic with exception End_of_file -> "" | l -> l)
        cmds)

let load_cmd =
  let host_arg =
    let doc = "Server host." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port_arg =
    let doc = "Server port." in
    Arg.(value & opt int 7411 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let rate_arg =
    let doc = "Arrival rate in queries per second (open loop)." in
    Arg.(value & opt float 50.0 & info [ "rate" ] ~docv:"QPS" ~doc)
  in
  let duration_arg =
    let doc = "Run length in seconds." in
    Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"S" ~doc)
  in
  let zipf_arg =
    let doc = "Zipf skew of query-pool popularity." in
    Arg.(value & opt float 1.1 & info [ "zipf" ] ~docv:"S" ~doc)
  in
  let seed_arg =
    let doc = "Seed for the deterministic request sequence." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let tenants_arg =
    let doc = "Number of synthetic tenants (t0..tN-1, round-robin)." in
    Arg.(value & opt int 2 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let query_arg =
    let doc =
      "Add an OQL query to the pool (repeatable; default: a built-in \
       person-query mix)."
    in
    Arg.(value & opt_all string [] & info [ "query" ] ~docv:"OQL" ~doc)
  in
  let health_flag =
    let doc = "After the run, scrape and print health and metrics." in
    Arg.(value & flag & info [ "health" ] ~doc)
  in
  let shutdown_flag =
    let doc = "Ask the server to shut down once the run (and scrape) end." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the result as a JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run verbosity host port rate duration zipf seed tenants queries health
      shutdown json =
    setup_logs (List.length verbosity);
    let queries =
      match queries with [] -> default_query_pool | qs -> Array.of_list qs
    in
    let tenants = List.init (max 1 tenants) (Fmt.str "t%d") in
    match
      Loadgen.run ~zipf_s:zipf ~seed ~tenants ~queries ~rate
        ~duration_s:duration
        (Loadgen.Tcp { host; port })
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | res ->
        if json then
          Fmt.pr
            {|{"sent": %d, "completed": %d, "shed": %d, "errors": %d, "duration_s": %.3f, "qps": %.1f, "p50_ms": %.3f, "p99_ms": %.3f, "p999_ms": %.3f}@.|}
            res.Loadgen.r_sent res.Loadgen.r_completed res.Loadgen.r_shed
            res.Loadgen.r_errors res.Loadgen.r_duration_s res.Loadgen.r_qps
            res.Loadgen.r_p50_ms res.Loadgen.r_p99_ms res.Loadgen.r_p999_ms
        else Fmt.pr "%a@." Loadgen.pp_result res;
        (if health || shutdown then
           let cmds =
             (if health then [ "health"; "metrics" ] else [])
             @ if shutdown then [ "shutdown" ] else []
           in
           try
             List.iter2
               (fun cmd line -> Fmt.pr "%s: %s@." cmd line)
               cmds
               (tcp_lines ~host ~port cmds)
           with Unix.Unix_error (e, _, _) ->
             Fmt.epr "warning: scrape failed: %s@." (Unix.error_message e));
        if res.Loadgen.r_completed = 0 && res.Loadgen.r_errors > 0 then
          `Error (false, "load: no request completed (is the server up?)")
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a running 'discoctl serve' with an open-loop Zipfian \
          workload (one connection per request) and report qps plus \
          p50/p99/p999 latency. Arrivals fire on schedule regardless of \
          completions, so shedding shows up instead of being hidden by \
          coordinated omission.")
    Term.(
      ret
        (const run $ verbosity_arg $ host_arg $ port_arg $ rate_arg
       $ duration_arg $ zipf_arg $ seed_arg $ tenants_arg $ query_arg
       $ health_flag $ shutdown_flag $ json_arg))

(* -- lint: static verification of schema and query files -- *)

(* Recursively collect .odl / .oql files under each path, sorted so runs
   are deterministic. *)
let rec lint_collect path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.concat_map (fun f -> lint_collect (Filename.concat path f))
  else if
    Filename.check_suffix path ".odl" || Filename.check_suffix path ".oql"
  then [ path ]
  else []

(* The .odl and .oql files under [paths], sorted; the .odl files are
   loaded into a fresh registry, each one that fails to load giving one
   DISCO-E011 diagnostic. Returns (files, registry, those diagnostics,
   .oql files). *)
let load_corpus paths =
  let files = List.sort String.compare (List.concat_map lint_collect paths) in
  let with_suffix ext = List.filter (fun f -> Filename.check_suffix f ext) files in
  let reg = Registry.create () in
  let e011 fmt =
    Check.diag ~code:"DISCO-E011" ~severity:Check.Error ~path:"schema" fmt
  in
  let schema_diags =
    List.concat_map
      (fun f ->
        match Odl_parser.load reg (read_file f) with
        | () -> []
        | exception Registry.Odl_error msg -> [ (f, e011 "%s" msg) ]
        | exception Disco_lex.Lexer.Error (msg, pos) ->
            [ (f, e011 "lex error at offset %d: %s" pos msg) ])
      (with_suffix ".odl")
  in
  (files, reg, schema_diags, with_suffix ".oql")

(* One query per line; blank lines and [--] comments are skipped. A
   [--@full-pushdown] directive line applies to the next query: its
   capability-maximal normalization must be fully accepted by the
   wrappers (DISCO-E005 otherwise). *)
let lint_queries pl file =
  let diags = ref [] in
  let add line ds =
    diags :=
      !diags @ List.map (fun d -> (Fmt.str "%s:%d" file line, d)) ds
  in
  let full_pushdown = ref false in
  let check_full_pushdown lineno located =
    let pushed = Rules.normalize ~can_push:Rules.push_all located in
    List.iter
      (fun (repo, sub) ->
        let ws = List.filter_map (Pipeline.wrapper_of pl) (Expr.gets sub) in
        match ws with
        | w :: _ when not (Wrapper.accepts w sub) ->
            add lineno
              [
                Check.diag ~code:"DISCO-E005" ~severity:Check.Error
                  ~path:(Fmt.str "submit(%s)" repo)
                  "full-pushdown directive: wrapper %s refuses %s"
                  (Wrapper.name w) (Expr.to_string sub);
              ]
        | _ -> ())
      (Expr.submits pushed)
  in
  let lint_query lineno q =
    match Pipeline.front ~typecheck:`Expanded pl q with
    | Error e -> add lineno [ Pipeline.diag_of_error e ]
    | Ok expanded -> (
        match Pipeline.compile pl expanded with
        | Error _ ->
            (* outside the algebraic subset: the mediator evaluates such
               queries hybrid, nothing to verify statically *)
            ()
        | Ok located ->
            add lineno
              (Check.check_expr (Pipeline.checker pl)
                 (Rules.normalize ~can_push:(Pipeline.can_push pl) located));
            if !full_pushdown then check_full_pushdown lineno located)
  in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      let directive = "--@full-pushdown" in
      if line = "" then ()
      else if line = directive then full_pushdown := true
      else if String.length line >= 2 && String.sub line 0 2 = "--" then ()
      else (
        lint_query (i + 1) line;
        full_pushdown := false))
    (String.split_on_char '\n' (read_file file));
  !diags

(* Declared indexes of the repository serving an extent: a Repository
   object may carry an [indexes="id,person0.salary"] argument listing
   the attributes (optionally [extent.]-qualified) its source serves
   from an index. The audit checks indexed wrappers' advertisements
   against this list. *)
let lint_indexed reg me f =
  match Registry.find_object reg me.Registry.me_repository with
  | Some o -> (
      match List.assoc_opt "indexes" o.Registry.obj_args with
      | Some (V.String s) ->
          let ixs = List.map String.trim (String.split_on_char ',' s) in
          List.mem f ixs || List.mem (me.Registry.me_name ^ "." ^ f) ixs
      | _ -> false)
  | None -> false

(* Conformance audit of every wrapper object in the registry: the
   constructor must resolve (with its arguments — an indexed wrapper's
   advertised attributes live there), and the grammar must not
   over-claim on the extents the wrapper serves. *)
let lint_audit reg pl =
  List.concat_map
    (fun name ->
      match Registry.find_object reg name with
      | Some o when String.starts_with ~prefix:"Wrapper" o.Registry.obj_constructor
        -> (
          match Pipeline.wrapper_object pl name with
          | None ->
              [
                ( "(registry)",
                  Check.diag ~code:"DISCO-E010" ~severity:Check.Error ~path:name
                    "wrapper constructor %s is unknown"
                    o.Registry.obj_constructor );
              ]
          | Some w ->
              Registry.all_extents reg
              |> List.filter (fun me -> me.Registry.me_wrapper = name)
              |> List.concat_map (fun me ->
                     Check.audit_wrapper ~indexed:(lint_indexed reg me)
                       ~map:me.Registry.me_map ~extent:me.Registry.me_name
                       ~attrs:
                         (Registry.attributes_of reg me.Registry.me_interface)
                       w
                     |> List.map (fun d -> ("(registry)", d))))
      | _ -> [])
    (List.sort String.compare (Registry.object_names reg))

let lint_cmd =
  let paths_arg =
    let doc =
      "Files or directories to lint; directories are searched recursively \
       for .odl schema files and .oql query files (one query per line, \
       [--] comments)."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let json_arg =
    let doc = "Emit diagnostics as a JSON array (stable ordering)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run verbosity json paths =
    setup_logs (List.length verbosity);
    let files, reg, schema_diags, oql_files = load_corpus paths in
    let pl = Pipeline.create reg in
    let query_diags = List.concat_map (lint_queries pl) oql_files in
    let audit_diags =
      lint_audit reg pl
      @ List.map
          (fun d -> ("(registry)", d))
          (Check.audit_shards (Pipeline.checker pl))
    in
    let diags = schema_diags @ query_diags @ audit_diags in
    let errors =
      List.length
        (List.filter (fun (_, d) -> d.Check.d_severity = Check.Error) diags)
    in
    let warnings = List.length diags - errors in
    if json then Fmt.pr "%s@." (Check.json_of_diags diags)
    else (
      List.iter (fun (f, d) -> Fmt.pr "%s: %a@." f Check.pp_diag d) diags;
      Fmt.pr "%d file(s) checked, %d error(s), %d warning(s)@."
        (List.length files) errors warnings);
    Format.print_flush ();
    if errors > 0 then Stdlib.exit 1;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify ODL schemas and OQL query files: schema-aware \
          typing, wrapper capability conformance, decompilability, a \
          wrapper over-claim audit, and a shard-map audit (unknown shard \
          repositories, bad shard keys, unsorted range boundaries, \
          heterogeneous shard grammars). Exits non-zero on any DISCO-E \
          diagnostic.")
    Term.(ret (const run $ verbosity_arg $ json_arg $ paths_arg))

(* -- analyze: federation-wide static analysis -- *)

let analyze_cmd =
  let paths_arg =
    let doc =
      "Files or directories to analyze; directories are searched \
       recursively for .odl schema files and .oql workload files (one \
       query per line, [--] comments)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let workload_arg =
    let doc =
      "Additional OQL workload corpus file(s); repeatable. Added to the \
       .oql files found under PATH."
    in
    Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the report as a JSON object; its diagnostics array uses the \
       same schema and ordering as lint --json."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let doc_arg =
    let doc =
      "Print the generated diagnostic-code reference (doc/diagnostics.md) \
       and exit."
    in
    Arg.(value & flag & info [ "doc" ] ~doc)
  in
  let run verbosity json doc_flag workload paths =
    setup_logs (List.length verbosity);
    if doc_flag then begin
      print_string (Analysis.diagnostics_doc ());
      `Ok ()
    end
    else if paths = [] && workload = [] then
      `Error (true, "a PATH (or --workload) is required unless --doc is given")
    else begin
      let _, reg, schema_diags, oql_files = load_corpus paths in
      let oql_files = List.sort_uniq String.compare (oql_files @ workload) in
      let corpus = List.map (fun f -> (f, read_file f)) oql_files in
      let report = Analysis.analyze ~workload:corpus reg in
      let report =
        {
          report with
          Analysis.r_diags =
            Check.sort_diags (schema_diags @ report.Analysis.r_diags);
        }
      in
      if json then Fmt.pr "%s@." (Analysis.json_of_report report)
      else begin
        Fmt.pr "%a" Analysis.pp_report report;
        let errors, warnings =
          List.partition
            (fun (_, d) -> d.Check.d_severity = Check.Error)
            report.Analysis.r_diags
        in
        Fmt.pr "%d error(s), %d warning(s)@." (List.length errors)
          (List.length warnings)
      end;
      Format.print_flush ();
      if
        List.exists
          (fun (_, d) -> d.Check.d_severity = Check.Error)
          report.Analysis.r_diags
      then Stdlib.exit 1;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Whole-federation static analysis of an ODL schema plus an OQL \
          workload, without contacting any source: per-query minimal \
          source sets and the exact residual surviving each \
          single-repository outage (single-point-of-failure detection \
          across replicas and shards), per-wrapper pushdown profiles with \
          dead grammar productions, and cross-subsystem consistency \
          checks (unconstrained shard keys, unused index advertisements, \
          inconsistent type maps and views, answer-cache key collisions). \
          Exits non-zero on any error-severity diagnostic.")
    Term.(
      ret
        (const run $ verbosity_arg $ json_arg $ doc_arg $ workload_arg
       $ paths_arg))

let main =
  Cmd.group
    (Cmd.info "discoctl" ~version:"1.0.0"
       ~doc:"Drive a Disco heterogeneous-database mediator.")
    [
      query_cmd; explain_cmd; schema_cmd; repl_cmd; catalog_cmd; shards_cmd;
      indexes_cmd; cache_stats_cmd; resubmit_cmd; trace_cmd; metrics_cmd;
      serve_cmd; load_cmd; lint_cmd; analyze_cmd;
    ]

let () = exit (Cmd.eval main)
