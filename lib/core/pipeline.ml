module Registry = Disco_odl.Registry
module Ast = Disco_oql.Ast
module Typecheck = Disco_oql.Typecheck
module Expr = Disco_algebra.Expr
module Compile = Disco_algebra.Compile
module Plan = Disco_physical.Plan
module Optimizer = Disco_optimizer.Optimizer
module Check = Disco_check.Check
module Cost_model = Disco_cost.Cost_model
module Wrapper = Disco_wrapper.Wrapper

(* Registered wrappers, then constructed ones cached by name. Every
   query of one mediator reads it and a miss may add to it, so [lock]
   guards the table. *)
type wrappers = { lock : Mutex.t; by_name : (string, Wrapper.t) Hashtbl.t }

type t = {
  registry : Registry.t;
  wrappers : wrappers;
  params : Plan.params;
  metrics : Disco_obs.Metrics.t option;
  batch : bool;
  check : Check.t * Check.mode;
  cost : Cost_model.t;
}

(* -- resolvers -- *)

let find_wrapper reg wrappers name =
  Mutex.protect wrappers.lock @@ fun () ->
  match Hashtbl.find_opt wrappers.by_name name with
  | Some w -> Some w
  | None ->
      let w =
        Option.bind (Registry.find_object reg name) (fun o ->
            Wrapper.of_constructor_args o.Registry.obj_constructor
              o.Registry.obj_args)
      in
      Option.iter (Hashtbl.replace wrappers.by_name name) w;
      w

let extent_wrapper reg wrappers ext =
  Option.bind (Registry.find_extent reg ext) (fun me ->
      find_wrapper reg wrappers me.Registry.me_wrapper)

let extent_repo reg ext =
  Option.map
    (fun me -> me.Registry.me_repository)
    (Registry.find_extent reg ext)

let create ?(source_known = fun _ -> false) ?(params = Plan.default_params)
    ?metrics ?(batch = true) ?(check = Check.Warn)
    ?(cost = Cost_model.create ()) registry =
  let wrappers = { lock = Mutex.create (); by_name = Hashtbl.create 16 } in
  let checker =
    Check.make ~registry
      ~wrapper_of:(extent_wrapper registry wrappers)
      ~repo_of:(extent_repo registry)
      ~repo_known:(fun r ->
        source_known r || Registry.find_object registry r <> None)
      ()
  in
  { registry; wrappers; params; metrics; batch; check = (checker, check); cost }

let register_wrapper t ~name w =
  Mutex.protect t.wrappers.lock (fun () ->
      Hashtbl.replace t.wrappers.by_name name w)

let wrapper_object t = find_wrapper t.registry t.wrappers
let wrapper_of t = extent_wrapper t.registry t.wrappers
let repo_of t = extent_repo t.registry
let checker t = fst t.check

let can_push t ~repo:_ expr =
  let extents = Expr.gets expr in
  let wrappers = List.filter_map (wrapper_of t) extents in
  List.length wrappers = List.length extents
  && (match wrappers with
     | [] -> false
     | first :: rest ->
         List.for_all
           (fun w -> String.equal (Wrapper.name w) (Wrapper.name first))
           rest)
  && List.for_all (fun w -> Wrapper.accepts w expr) wrappers

let shard_of t ext =
  match Registry.find_extent t.registry ext with
  | Some { Registry.me_shard_of = Some (parent, k); _ } ->
      Option.bind (Registry.find_extent t.registry parent) (fun pe ->
          Option.map (fun p -> (p, k)) pe.Registry.me_partition)
  | _ -> None

(* -- stages -- *)

type error =
  | Parse_error of int * string
  | Expand_error of string
  | Type_error of string

type span = { span : 'a. string -> (unit -> 'a) -> 'a }

let no_span = { span = (fun _ f -> f ()) }

let parse text =
  match Disco_oql.Parser.parse text with
  | ast -> Ok ast
  | exception Disco_lex.Lexer.Error (m, pos) -> Error (Parse_error (pos, m))

let front ?(span = no_span) ?typecheck t text =
  let typed stage q =
    if typecheck <> Some stage then Ok q
    else
      match Typecheck.check (Typecheck.env_of_registry t.registry) q with
      | Ok _ -> Ok q
      | Error m -> Error (Type_error m)
  in
  Result.bind (span.span "parse" (fun () -> parse text)) @@ fun ast ->
  Result.bind (typed `Parsed ast) @@ fun ast ->
  match span.span "expand" (fun () -> Expand.expand t.registry ast) with
  | exception Expand.Expand_error m -> Error (Expand_error m)
  | expanded -> typed `Expanded expanded

let compile t expanded =
  Result.map (Compile.locate ~repo_of:(repo_of t)) (Compile.compile expanded)

let optimize t located =
  Optimizer.optimize ~params:t.params ?metrics:t.metrics ~batch:t.batch
    ~check:t.check ~shard:(shard_of t) ~can_push:(can_push t) ~cost:t.cost
    located

let diag_of_error e =
  let query code fmt = Check.diag ~code ~severity:Check.Error ~path:"query" fmt in
  match e with
  | Parse_error (pos, m) ->
      query "DISCO-E012" "parse error at offset %d: %s" pos m
  | Expand_error m -> query "DISCO-E013" "expansion failed: %s" m
  | Type_error m -> query "DISCO-E013" "type error: %s" m
