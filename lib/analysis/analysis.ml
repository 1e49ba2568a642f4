module V = Disco_value.Value
module Otype = Disco_odl.Otype
module Registry = Disco_odl.Registry
module Typemap = Disco_odl.Typemap
module Pipeline = Disco_core.Pipeline
module Expr = Disco_algebra.Expr
module Decompile = Disco_algebra.Decompile
module Grammar = Disco_wrapper.Grammar
module Wrapper = Disco_wrapper.Wrapper
module Shard = Disco_shard.Shard
module Shard_prune = Disco_optimizer.Shard_prune
module Answer_cache = Disco_cache.Answer_cache
module Check = Disco_check.Check
module Catalog = Disco_catalog.Catalog

type query_class = Invalid | Hybrid | Pushed | Mixed

let class_name = function
  | Invalid -> "invalid"
  | Hybrid -> "hybrid"
  | Pushed -> "pushed"
  | Mixed -> "mixed"

type outage = {
  o_down : string;
  o_unavailable : string list;
  o_fragments : string list;
}

type query_report = {
  q_loc : string;
  q_text : string;
  q_class : query_class;
  q_sources : string list;
  q_outages : outage list;
}

type wrapper_report = {
  w_object : string;
  w_constructor : string;
  w_extents : string list;
  w_submits : int;
  w_dead : string list;
}

type summary = {
  s_interfaces : int;
  s_extents : int;
  s_repositories : int;
  s_wrappers : int;
  s_views : int;
  s_queries : int;
}

type report = {
  r_summary : summary;
  r_queries : query_report list;
  r_wrappers : wrapper_report list;
  r_spofs : string list;
  r_diags : (string * Check.diag) list;
}

(* -- diagnostic codes -- *)

let a001 = "DISCO-A001"
let a002 = "DISCO-A002"
let a003 = "DISCO-A003"
let a004 = "DISCO-A004"
let a005 = "DISCO-A005"
let a006 = "DISCO-A006"

let code_registry =
  [
    ( a001,
      Check.Warning,
      "single point of failure: no replica covers a repository some query \
       needs" );
    ( a002,
      Check.Warning,
      "dead grammar productions: wrapper capability the workload never \
       exercises" );
    ( a003,
      Check.Warning,
      "unconstrained shard key: no workload predicate ever lets partition \
       pruning fire" );
    ( a004,
      Check.Warning,
      "unused index advertisement: index-served attribute no query filters \
       on" );
    ( a005,
      Check.Error,
      "schema inconsistency: view or type map names attributes the schema \
       does not provide" );
    ( a006,
      Check.Error,
      "cache-key collision: inequivalent submits share an answer-cache key" );
  ]

let fed_file = "(federation)"

(* -- corpus splitting (the discoctl lint convention) -- *)

let queries_of_corpus ~file text =
  String.split_on_char '\n' text
  |> List.mapi (fun i raw -> (i + 1, String.trim raw))
  |> List.filter_map (fun (lineno, line) ->
         if line = "" then None
         else if String.length line >= 2 && String.sub line 0 2 = "--" then
           None
         else Some (Printf.sprintf "%s:%d" file lineno, line))

(* -- one query through the mediator's own planning pipeline -- *)

type planned_ok = { located : Expr.expr; logical : Expr.expr }

type planned =
  | Pfail of Check.diag  (** parse / expand / type failure *)
  | Phybrid of string list  (** extents referenced, for availability *)
  | Pok of planned_ok

let plan_query pl text =
  match Pipeline.front ~typecheck:`Expanded pl text with
  | Error e -> Pfail (Pipeline.diag_of_error e)
  | Ok expanded -> (
      match Pipeline.compile pl expanded with
      | Error _ -> Phybrid (Disco_oql.Ast.free_collections expanded)
      | Ok located ->
          Pok { located; logical = (Pipeline.optimize pl located).logical })

let plan_logical reg text =
  match plan_query (Pipeline.create reg) text with
  | Pfail d -> Error d.Check.d_message
  | Phybrid _ -> Error "outside the algebraic subset (hybrid evaluation)"
  | Pok { logical; _ } -> Ok logical

(* -- availability: replay the runtime's failover rule -- *)

(* The runtime binds each submit through its first-scanned extent
   (runtime.ml [prepare_exec]): failover candidates are the primary
   repository followed by the extent's replicas, and the exec is blocked
   only when every candidate is down. *)
let replicas_of reg body =
  match Expr.gets body with
  | [] -> []
  | first :: _ -> (
      match Registry.find_extent reg first with
      | Some me -> me.Registry.me_replicas
      | None -> [])

let submit_blocked reg ~down repo body =
  down repo && List.for_all down (replicas_of reg body)

let predict_unavailable reg ~down logical =
  Expr.submits logical
  |> List.filter_map (fun (repo, body) ->
         if submit_blocked reg ~down repo body then Some repo else None)
  |> List.sort_uniq String.compare

let predicted_residual ~resolve ~down reg logical =
  let blocked = ref false in
  let residual =
    Expr.map_submits
      (fun repo body ->
        if submit_blocked reg ~down repo body then (
          blocked := true;
          Expr.Submit (repo, body))
        else Expr.Data (Expr.eval ~resolve body))
      logical
  in
  if !blocked then Some (Decompile.decompile_string residual) else None

let decompile_fragment body =
  match Decompile.decompile_string body with
  | s -> s
  | exception Decompile.Not_decompilable _ -> Expr.to_string body

(* Outages worth reporting for one planned query: every primary
   repository, taken down alone. A repository that is only a replica
   can never block anything by itself, so primaries are the complete
   candidate set. *)
let outages_of_submits reg submits =
  let primaries =
    List.sort_uniq String.compare (List.map fst submits)
  in
  List.filter_map
    (fun d ->
      let down r = r = d in
      let lost =
        List.filter
          (fun (repo, body) -> submit_blocked reg ~down repo body)
          submits
      in
      if lost = [] then None
      else
        Some
          {
            o_down = d;
            o_unavailable =
              List.sort_uniq String.compare (List.map fst lost);
            o_fragments = List.map (fun (_, b) -> decompile_fragment b) lost;
          })
    primaries

(* Hybrid queries bypass the algebra, so availability falls back to the
   extents the expanded query ranges over: losing any of their
   repositories (with no replica) loses the whole answer. *)
let outages_of_extents reg extents =
  let bindings =
    List.filter_map
      (fun e ->
        Option.map
          (fun me -> (me.Registry.me_repository, me.Registry.me_replicas))
          (Registry.find_extent reg e))
      extents
  in
  let primaries =
    List.sort_uniq String.compare (List.map fst bindings)
  in
  List.filter_map
    (fun d ->
      let down r = r = d in
      let lost =
        List.exists
          (fun (repo, reps) -> down repo && List.for_all down reps)
          bindings
      in
      if lost then Some { o_down = d; o_unavailable = [ d ]; o_fragments = [] }
      else None)
    primaries

let rec fully_pushed = function
  | Expr.Submit _ | Expr.Data _ -> true
  | Expr.Union es -> List.for_all fully_pushed es
  | _ -> false

(* -- workload-facing coverage facts gathered per query -- *)

(* Attributes the workload filters on, as (extent, field) pairs: the
   fields of every [Select] predicate are charged to the extents the
   selection ranges over, and join-key fields to their own side. Shard
   children report as their parent, so per-extent facts aggregate. *)
let display_extent reg name =
  match Registry.find_extent reg name with
  | Some { Registry.me_shard_of = Some (parent, _); _ } -> parent
  | _ -> name

let filtered_fields reg expr =
  let acc = ref [] in
  let charge extents fields =
    List.iter
      (fun e ->
        let e = display_extent reg e in
        List.iter (fun f -> acc := (e, f) :: !acc) fields)
      extents
  in
  let field_of_path p =
    match List.rev p with [] -> None | last :: _ -> Some last
  in
  let rec walk () e =
    (match e with
    | Expr.Select (inner, pred) ->
        charge (Expr.gets inner)
          (List.filter_map field_of_path (Expr.pred_paths pred))
    | Expr.Join (l, r, pairs) ->
        List.iter
          (fun (lp, rp) ->
            charge (Expr.gets l) (Option.to_list (field_of_path lp));
            charge (Expr.gets r) (Option.to_list (field_of_path rp)))
          pairs
    | _ -> ());
    Expr.fold_children walk () e
  in
  walk () expr;
  !acc

(* -- synthetic data: deterministic rows derived from the schema -- *)

let synth_value ext f ty i =
  let seed = (String.length ext * 31) + (String.length f * 7) in
  match ty with
  | Otype.TInt -> V.Int ((seed mod 11) + (i * 3))
  | Otype.TFloat -> V.Float (float_of_int (seed mod 11) +. (float_of_int i /. 2.))
  | Otype.TBool -> V.Bool ((seed + i) mod 2 = 0)
  | Otype.TString -> V.String (Printf.sprintf "%s.%s#%d" ext f i)
  | Otype.TVoid | Otype.TInterface _ | Otype.TStruct _ | Otype.TBag _
  | Otype.TSet _ | Otype.TList _ ->
      V.Null

let synthetic_resolve reg name =
  match Registry.find_extent reg name with
  | None -> None
  | Some me -> (
      match Registry.attributes_of reg me.Registry.me_interface with
      | exception Registry.Odl_error _ -> None
      | attrs ->
          let row i =
            V.strct (List.map (fun (f, ty) -> (f, synth_value name f ty i)) attrs)
          in
          Some (V.bag [ row 0; row 1; row 2 ]))

(* -- DISCO-A006: cache-key collisions -- *)

let collision_diags ~resolve pairs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (repo, body) ->
      let key = Answer_cache.key ~repo body in
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key ((repo, body) :: prev))
    pairs;
  Hashtbl.fold (fun key group acc -> (key, List.rev group) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2)
  |> List.concat_map (fun (key, group) ->
         match group with
         | [] | [ _ ] -> []
         | (repo0, body0) :: rest ->
             let norm0 = Answer_cache.normalize body0 in
             let distinct =
               List.filter
                 (fun (_, b) -> not (Expr.equal (Answer_cache.normalize b) norm0))
                 rest
             in
             List.filter_map
               (fun (_, body) ->
                 let proven_equal =
                   match
                     ( Expr.eval ~resolve body0,
                       Expr.eval ~resolve body )
                   with
                   | v0, v -> V.equal v0 v
                   | exception _ -> false
                 in
                 if proven_equal then None
                 else
                   Some
                     (Check.diag ~code:a006 ~severity:Check.Error ~path:"cache"
                        "answer-cache key %S is shared by inequivalent \
                         submits %s and %s on repository %s: one could be \
                         served the other's cached rows"
                        key (Expr.to_string body0) (Expr.to_string body)
                        repo0))
               distinct)

(* -- the analysis proper -- *)

(* Registry objects whose constructor starts with [prefix]
   (["Wrapper"], ["Repository"]), sorted by name. *)
let objects_of_kind reg prefix =
  Registry.object_names reg
  |> List.sort String.compare
  |> List.filter_map (fun name ->
         match Registry.find_object reg name with
         | Some o when String.starts_with ~prefix o.Registry.obj_constructor ->
             Some (name, o)
         | _ -> None)

let truncate_list n items =
  let len = List.length items in
  if len <= n then String.concat "; " items
  else
    String.concat "; " (List.filteri (fun i _ -> i < n) items)
    ^ Printf.sprintf "; … (%d more)" (len - n)

let view_diags pl reg =
  Registry.view_names reg
  |> List.sort String.compare
  |> List.filter_map (fun name ->
         Option.bind (Registry.find_view reg name) (fun body ->
             match Pipeline.front ~typecheck:`Expanded pl body with
             | Ok _ -> None
             | Error e ->
                 let stage, msg =
                   match e with
                   | Pipeline.Parse_error (_, msg) -> ("parse", msg)
                   | Pipeline.Expand_error msg -> ("expand", msg)
                   | Pipeline.Type_error msg -> ("type", msg)
                 in
                 Some
                   (Check.diag ~code:a005 ~severity:Check.Error
                      ~path:(Printf.sprintf "view(%s)" name)
                      "view body fails to %s: %s" stage msg)))

let typemap_diags reg =
  Registry.all_extents reg
  |> List.filter (fun me -> me.Registry.me_shard_of = None)
  |> List.concat_map (fun me ->
         match Registry.attributes_of reg me.Registry.me_interface with
         | exception Registry.Odl_error _ -> []
         | attrs ->
             Typemap.field_pairs me.Registry.me_map
             |> List.filter_map (fun (src, med) ->
                    if List.mem_assoc med attrs then None
                    else
                      Some
                        (Check.diag ~code:a005 ~severity:Check.Error
                           ~path:(Printf.sprintf "extent(%s)" me.Registry.me_name)
                           "type map binds source field %S to mediator \
                            attribute %S, which interface %s does not declare"
                           src med me.Registry.me_interface)))

let analyze ?(workload = []) reg =
  let pl = Pipeline.create reg in
  let queries =
    List.concat_map
      (fun (file, text) -> queries_of_corpus ~file text)
      workload
  in
  let planned =
    List.map (fun (loc, text) -> (loc, text, plan_query pl text)) queries
  in
  (* query reports + per-query diagnostics *)
  let qdiags = ref [] in
  let reports =
    List.map
      (fun (loc, text, p) ->
        match p with
        | Pfail d ->
            qdiags := (loc, d) :: !qdiags;
            {
              q_loc = loc;
              q_text = text;
              q_class = Invalid;
              q_sources = [];
              q_outages = [];
            }
        | Phybrid extents ->
            let repos =
              List.sort_uniq String.compare
                (List.filter_map (Pipeline.repo_of pl) extents)
            in
            {
              q_loc = loc;
              q_text = text;
              q_class = Hybrid;
              q_sources = repos;
              q_outages = outages_of_extents reg extents;
            }
        | Pok { logical; _ } ->
            let submits = Expr.submits logical in
            {
              q_loc = loc;
              q_text = text;
              q_class = (if fully_pushed logical then Pushed else Mixed);
              q_sources =
                List.sort_uniq String.compare (List.map fst submits);
              q_outages = outages_of_submits reg submits;
            })
      planned
  in
  let compiled =
    List.filter_map
      (fun (loc, _, p) ->
        match p with Pok ok -> Some (loc, ok) | Pfail _ | Phybrid _ -> None)
      planned
  in
  (* A001: single points of failure across the workload *)
  let spof_tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun o ->
          let prev =
            try Hashtbl.find spof_tbl o.o_down with Not_found -> []
          in
          Hashtbl.replace spof_tbl o.o_down (r.q_loc :: prev))
        r.q_outages)
    reports;
  let spofs =
    Hashtbl.fold (fun repo locs acc -> (repo, List.rev locs) :: acc) spof_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let spof_diags =
    List.map
      (fun (repo, locs) ->
        Check.diag ~code:a001 ~severity:Check.Warning
          ~path:(Printf.sprintf "repo(%s)" repo)
          "single point of failure: no replica covers repository %s; %d \
           workload %s answers when it is down (%s)"
          repo (List.length locs)
          (if List.length locs = 1 then "query loses part of its"
           else "queries lose part of their")
          (truncate_list 4 locs))
      spofs
  in
  (* A002 + wrapper reports: route every submit to its serving wrapper,
     mark the grammar productions it exercises *)
  let wobjs = objects_of_kind reg "Wrapper" in
  let used : (string, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let submit_counts = Hashtbl.create 8 in
  let serving_object body =
    match
      List.filter_map
        (fun e ->
          Option.map
            (fun me -> me.Registry.me_wrapper)
            (Registry.find_extent reg e))
        (Expr.gets body)
    with
    | [] -> None
    | first :: rest when List.for_all (( = ) first) rest -> Some first
    | _ :: _ -> None
  in
  List.iter
    (fun (_, { logical; _ }) ->
      List.iter
        (fun (_, body) ->
          match serving_object body with
          | None -> ()
          | Some wname -> (
              let prev =
                try Hashtbl.find submit_counts wname with Not_found -> 0
              in
              Hashtbl.replace submit_counts wname (prev + 1);
              let marks =
                match Hashtbl.find_opt used wname with
                | Some t -> t
                | None ->
                    let t = Hashtbl.create 16 in
                    Hashtbl.replace used wname t;
                    t
              in
              match Pipeline.wrapper_object pl wname with
              | None -> ()
              | Some w ->
                  let g = Wrapper.functionality w in
                  let sentence = Grammar.tokens_of_expr body in
                  if Grammar.derives g sentence then
                    List.iter
                      (fun p ->
                        Hashtbl.replace marks
                          (Grammar.production_to_string p) ())
                      (Grammar.used_productions g sentence)))
        (Expr.submits logical))
    compiled;
  let wrapper_reports, dead_diags =
    List.fold_left
      (fun (wrs, ds) (name, o) ->
        let extents =
          Registry.all_extents reg
          |> List.filter (fun me -> me.Registry.me_wrapper = name)
          |> List.map (fun me -> me.Registry.me_name)
          |> List.sort String.compare
        in
        let submits =
          try Hashtbl.find submit_counts name with Not_found -> 0
        in
        match Pipeline.wrapper_object pl name with
        | None ->
            ( wrs
              @ [
                  {
                    w_object = name;
                    w_constructor = o.Registry.obj_constructor;
                    w_extents = extents;
                    w_submits = submits;
                    w_dead = [];
                  };
                ],
              ds )
        | Some w ->
            let g = Wrapper.functionality w in
            let marks = Hashtbl.find_opt used name in
            let dead =
              g.Grammar.productions
              |> List.map Grammar.production_to_string
              |> List.filter (fun p ->
                     match marks with
                     | None -> true
                     | Some t -> not (Hashtbl.mem t p))
              |> List.sort_uniq String.compare
            in
            let ds =
              if compiled <> [] && extents <> [] && dead <> [] then
                ds
                @ [
                    Check.diag ~code:a002 ~severity:Check.Warning
                      ~path:(Printf.sprintf "wrapper(%s)" name)
                      "%d of %d grammar productions are unreachable by the \
                       workload: %s"
                      (List.length dead)
                      (List.length g.Grammar.productions)
                      (truncate_list 4 dead);
                  ]
              else ds
            in
            ( wrs
              @ [
                  {
                    w_object = name;
                    w_constructor = o.Registry.obj_constructor;
                    w_extents = extents;
                    w_submits = submits;
                    w_dead = (if compiled <> [] then dead else []);
                  };
                ],
              ds ))
      ([], []) wobjs
  in
  (* A003: shard keys the workload never constrains *)
  let shard_diags =
    Registry.all_extents reg
    |> List.filter_map (fun me ->
           Option.map (fun p -> (me, p)) me.Registry.me_partition)
    |> List.concat_map (fun (me, p) ->
           let children =
             Registry.shard_children reg me.Registry.me_name
             |> List.map (fun c -> c.Registry.me_name)
           in
           let referenced = ref false and constrained = ref false in
           List.iter
             (fun (_, { located; _ }) ->
               List.iter
                 (fun (child, constrs) ->
                   if List.mem child children then begin
                     referenced := true;
                     if constrs <> [] then constrained := true
                   end)
                 (Shard_prune.key_constraints ~shard:(Pipeline.shard_of pl) located))
             compiled;
           if !referenced && not !constrained then
             [
               Check.diag ~code:a003 ~severity:Check.Warning
                 ~path:(Printf.sprintf "extent(%s)" me.Registry.me_name)
                 "shard key %S of partitioned extent %s is never constrained \
                  by the workload: every query scatters to all %d shards \
                  (partition pruning can never fire)"
                 p.Shard.p_key me.Registry.me_name
                 (List.length p.Shard.p_shards);
             ]
           else [])
  in
  (* A004: advertised index attributes the workload never filters on *)
  let filtered =
    List.concat_map
      (fun (_, { located; _ }) -> filtered_fields reg located)
      compiled
  in
  let referenced_extents =
    List.concat_map
      (fun (_, { located; _ }) ->
        List.map (display_extent reg) (Expr.gets located))
      compiled
    |> List.sort_uniq String.compare
  in
  let index_diags =
    if compiled = [] then []
    else
      Registry.all_extents reg
      |> List.filter (fun me -> me.Registry.me_shard_of = None)
      |> List.concat_map (fun me ->
             let name = me.Registry.me_name in
             if not (List.mem name referenced_extents) then []
             else
               match Pipeline.wrapper_of pl name with
               | None -> []
               | Some w ->
                   Grammar.named_attributes (Wrapper.functionality w)
                   |> List.filter_map (fun f ->
                          if List.mem (name, f) filtered then None
                          else
                            Some
                              (Check.diag ~code:a004 ~severity:Check.Warning
                                 ~path:(Printf.sprintf "extent(%s)" name)
                                 "wrapper %s advertises index-served lookups \
                                  on %s.%s, but no workload query filters on \
                                  it"
                                 me.Registry.me_wrapper name f)))
  in
  (* A005 + A006 *)
  let consistency_diags = view_diags pl reg @ typemap_diags reg in
  let cache_diags =
    collision_diags
      ~resolve:(synthetic_resolve reg)
      (List.concat_map
         (fun (_, { logical; _ }) -> Expr.submits logical)
         compiled)
  in
  let fed_diags =
    List.map
      (fun d -> (fed_file, d))
      (spof_diags @ dead_diags @ shard_diags @ index_diags
     @ consistency_diags @ cache_diags)
  in
  let all_diags =
    Check.sort_diags (List.rev_append !qdiags fed_diags)
  in
  let obj_count prefix = List.length (objects_of_kind reg prefix) in
  {
    r_summary =
      {
        s_interfaces = List.length (Registry.interface_names reg);
        s_extents =
          List.length
            (List.filter
               (fun me -> me.Registry.me_shard_of = None)
               (Registry.all_extents reg));
        s_repositories = obj_count "Repository";
        s_wrappers = obj_count "Wrapper";
        s_views = List.length (Registry.view_names reg);
        s_queries = List.length queries;
      };
    r_queries = reports;
    r_wrappers = wrapper_reports;
    r_spofs = List.map fst spofs;
    r_diags = all_diags;
  }

(* -- rendering -- *)

let diagnostics_doc () =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "# Disco diagnostic codes\n\n";
  add
    "Generated from the diagnostic registries — regenerate with\n\
     `discoctl analyze --doc > doc/diagnostics.md`. `discoctl lint` emits\n\
     the `Exxx`/`Wxxx` codes; `discoctl analyze` adds the federation-wide\n\
     `Axxx` codes. Both render diagnostics through the same JSON schema\n\
     (`--json`): an array of `{file, code, severity, path, message}`\n\
     objects, stably sorted.\n";
  let codes = Check.code_registry @ code_registry in
  let section title sev =
    add "\n## %s\n\n" title;
    add "| code | summary |\n|------|---------|\n";
    List.iter
      (fun (code, s, summary) ->
        if s = sev then add "| `%s` | %s |\n" code summary)
      (List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) codes)
  in
  section "Errors" Check.Error;
  section "Warnings" Check.Warning;
  Buffer.contents b

let pp_outage ppf o =
  Fmt.pf ppf "%s down -> unavailable {%s}" o.o_down
    (String.concat ", " o.o_unavailable)

let pp_query ppf q =
  Fmt.pf ppf "%s: %s; sources {%s}" q.q_loc (class_name q.q_class)
    (String.concat ", " q.q_sources);
  List.iter (fun o -> Fmt.pf ppf "@,  %a" pp_outage o) q.q_outages

let pp_report ppf r =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf
    "federation: %d interface(s), %d extent(s), %d repository(ies), %d \
     wrapper(s), %d view(s)@,"
    r.r_summary.s_interfaces r.r_summary.s_extents r.r_summary.s_repositories
    r.r_summary.s_wrappers r.r_summary.s_views;
  let count c =
    List.length (List.filter (fun q -> q.q_class = c) r.r_queries)
  in
  Fmt.pf ppf
    "workload: %d quer(ies) — %d pushed, %d mixed, %d hybrid, %d invalid@,"
    r.r_summary.s_queries (count Pushed) (count Mixed) (count Hybrid)
    (count Invalid);
  List.iter (fun q -> Fmt.pf ppf "%a@," pp_query q) r.r_queries;
  List.iter
    (fun w ->
      Fmt.pf ppf
        "wrapper %s (%s): %d extent(s), %d workload submit(s), %d dead \
         production(s)@,"
        w.w_object w.w_constructor
        (List.length w.w_extents)
        w.w_submits
        (List.length w.w_dead))
    r.r_wrappers;
  (match r.r_spofs with
  | [] -> Fmt.pf ppf "no single point of failure@,"
  | spofs ->
      Fmt.pf ppf "single points of failure: %s@," (String.concat ", " spofs));
  List.iter
    (fun (f, d) -> Fmt.pf ppf "%s: %a@," f Check.pp_diag d)
    r.r_diags;
  Fmt.pf ppf "@]"

let json_string = Disco_obs.Trace.json_string
let json_list items = "[" ^ String.concat "," items ^ "]"
let json_strings ss = json_list (List.map json_string ss)

let json_of_report r =
  let outage o =
    Printf.sprintf {|{"down":%s,"unavailable":%s,"fragments":%s}|}
      (json_string o.o_down)
      (json_strings o.o_unavailable)
      (json_strings o.o_fragments)
  in
  let query q =
    Printf.sprintf
      {|{"loc":%s,"query":%s,"class":%s,"sources":%s,"outages":%s}|}
      (json_string q.q_loc) (json_string q.q_text)
      (json_string (class_name q.q_class))
      (json_strings q.q_sources)
      (json_list (List.map outage q.q_outages))
  in
  let wrapper w =
    Printf.sprintf
      {|{"object":%s,"constructor":%s,"extents":%s,"submits":%d,"dead_productions":%s}|}
      (json_string w.w_object)
      (json_string w.w_constructor)
      (json_strings w.w_extents)
      w.w_submits
      (json_strings w.w_dead)
  in
  let federation =
    Printf.sprintf
      {|{"interfaces":%d,"extents":%d,"repositories":%d,"wrappers":%d,"views":%d,"queries":%d}|}
      r.r_summary.s_interfaces r.r_summary.s_extents
      r.r_summary.s_repositories r.r_summary.s_wrappers r.r_summary.s_views
      r.r_summary.s_queries
  in
  Printf.sprintf
    {|{"federation":%s,"queries":%s,"wrappers":%s,"spofs":%s,"diagnostics":%s}|}
    federation
    (json_list (List.map query r.r_queries))
    (json_list (List.map wrapper r.r_wrappers))
    (json_strings r.r_spofs)
    (Check.json_of_diags r.r_diags)

let publish cat ~owner r =
  List.iter
    (fun repo ->
      let affected =
        List.length
          (List.filter
             (fun q -> List.exists (fun o -> o.o_down = repo) q.q_outages)
             r.r_queries)
      in
      Catalog.register cat
        {
          Catalog.e_kind = Catalog.Repository;
          e_name = repo;
          e_owner = owner;
          e_info =
            [
              ("spof", "true"); ("affected_queries", string_of_int affected);
            ];
        })
    r.r_spofs
