module V = Disco_value.Value
module Otype = Disco_odl.Otype
module Registry = Disco_odl.Registry
module Typemap = Disco_odl.Typemap
module Lexer = Disco_lex.Lexer
module Ast = Disco_oql.Ast
module Parser = Disco_oql.Parser
module Expr = Disco_algebra.Expr
module Compile = Disco_algebra.Compile
module Decompile = Disco_algebra.Decompile
module Rules = Disco_algebra.Rules
module Grammar = Disco_wrapper.Grammar
module Wrapper = Disco_wrapper.Wrapper
module Translate = Disco_wrapper.Translate
module Plan = Disco_physical.Plan

type severity = Warning | Error

type diag = {
  d_code : string;
  d_severity : severity;
  d_path : string;
  d_message : string;
}

type mode = Off | Warn | Enforce

exception Check_error of diag list

let severity_name = function Warning -> "warning" | Error -> "error"

type t = {
  registry : Registry.t option;
  wrapper_of : (string -> Wrapper.t option) option;
  repo_of : string -> string option;
  repo_known : (string -> bool) option;
}

let make ?registry ?wrapper_of ?(repo_of = fun _ -> None) ?repo_known () =
  { registry; wrapper_of; repo_of; repo_known }

let of_registry ?wrapper_of reg =
  let default_wrapper_of ext =
    Option.bind (Registry.find_extent reg ext) (fun me ->
        Option.bind (Registry.find_object reg me.Registry.me_wrapper) (fun o ->
            Wrapper.of_constructor_args o.Registry.obj_constructor
              o.Registry.obj_args))
  in
  {
    registry = Some reg;
    wrapper_of = Some (Option.value wrapper_of ~default:default_wrapper_of);
    repo_of =
      (fun ext ->
        Option.map
          (fun me -> me.Registry.me_repository)
          (Registry.find_extent reg ext));
    repo_known = Some (fun r -> Registry.find_object reg r <> None);
  }

(* -- diagnostics -- *)

type state = { checker : t; diags : diag list ref }

let render_path rev_path = String.concat "." (List.rev rev_path)

let kdiag k ~code ~severity ~path fmt =
  Format.kasprintf
    (fun d_message ->
      k { d_code = code; d_severity = severity; d_path = path; d_message })
    fmt

let diag ~code ~severity ~path fmt = kdiag Fun.id ~code ~severity ~path fmt

let emit st ~code ~severity ~path fmt =
  kdiag
    (fun d -> st.diags := d :: !(st.diags))
    ~code ~severity ~path:(render_path path) fmt

let sort_diags entries =
  List.sort
    (fun (f1, d1) (f2, d2) ->
      compare
        (f1, d1.d_code, d1.d_path, d1.d_message)
        (f2, d2.d_code, d2.d_path, d2.d_message))
    entries

let error st code path fmt = emit st ~code ~severity:Error ~path fmt
let warn st code path fmt = emit st ~code ~severity:Warning ~path fmt
let errors ds = List.filter (fun d -> d.d_severity = Error) ds
let has_errors ds = List.exists (fun d -> d.d_severity = Error) ds

(* -- the type lattice --

   Only concretely known facts are represented; [Any] silences every
   check downstream of a type the schema cannot determine, so the
   verifier never rejects a tree for lack of information. *)

type ty = Any | Bool | Int | Float | Str | Row of (string * ty) list

let rec ty_of_otype = function
  | Otype.TBool -> Bool
  | Otype.TInt -> Int
  | Otype.TFloat -> Float
  | Otype.TString -> Str
  | Otype.TStruct fields ->
      Row (List.map (fun (n, t) -> (n, ty_of_otype t)) fields)
  | Otype.TVoid | Otype.TInterface _ | Otype.TBag _ | Otype.TSet _
  | Otype.TList _ ->
      Any

let rec ty_of_value = function
  | V.Null | V.Object _ | V.Bag _ | V.Set _ | V.List _ -> Any
  | V.Bool _ -> Bool
  | V.Int _ -> Int
  | V.Float _ -> Float
  | V.String _ -> Str
  | V.Struct fields -> Row (List.map (fun (n, v) -> (n, ty_of_value v)) fields)

let rec lub a b =
  match (a, b) with
  | x, y when x = y -> x
  | (Int | Float), (Int | Float) -> Float
  | Row fa, Row fb ->
      (* union of fields: extents of sibling interfaces contribute their
         common attributes plus each one's extras *)
      let extra = List.filter (fun (n, _) -> not (List.mem_assoc n fa)) fb in
      Row
        (List.map
           (fun (n, t) ->
             match List.assoc_opt n fb with
             | Some t' -> (n, lub t t')
             | None -> (n, t))
           fa
        @ extra)
  | _ -> Any

(* element type of a constant collection *)
let elem_ty_of_value v =
  if not (V.is_collection v) then Any
  else
    match V.elements v with
    | [] -> Any
    | e :: es -> List.fold_left (fun acc x -> lub acc (ty_of_value x)) (ty_of_value e) es

let is_numeric = function Any | Int | Float -> true | _ -> false
let is_string = function Any | Str -> true | _ -> false

(* comparable under [V.numeric_compare]: numerics cross-compare, equal
   kinds compare; a concrete kind mismatch can never be true *)
let comparable a b =
  match (a, b) with
  | Any, _ | _, Any -> true
  | (Int | Float), (Int | Float) -> true
  | x, y -> x = y

let ty_name = function
  | Any -> "unknown"
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | Str -> "string"
  | Row _ -> "struct"

let rec resolve ty path =
  match path with
  | [] -> Ok ty
  | f :: rest -> (
      match ty with
      | Any -> Ok Any
      | Row fields -> (
          match List.assoc_opt f fields with
          | Some t -> resolve t rest
          | None -> Result.Error (Printf.sprintf "no attribute %S" f))
      | t ->
          Result.Error
            (Printf.sprintf "component %S descends into a %s" f (ty_name t)))

let path_string p = match p with [] -> "@elem" | _ -> String.concat "." p

let e001 = "DISCO-E001"
let e002 = "DISCO-E002"
let e003 = "DISCO-E003"
let e004 = "DISCO-E004"
let e005 = "DISCO-E005"
let e006 = "DISCO-E006"
let e007 = "DISCO-E007"
let e008 = "DISCO-E008"
let e009 = "DISCO-E009"
let e010 = "DISCO-E010"
let e011 = "DISCO-E011"
let e012 = "DISCO-E012"
let e013 = "DISCO-E013"
let e014 = "DISCO-E014"
let e015 = "DISCO-E015"
let e016 = "DISCO-E016"
let w001 = "DISCO-W001"
let w002 = "DISCO-W002"
let w003 = "DISCO-W003"
let w004 = "DISCO-W004"
let w005 = "DISCO-W005"
let w006 = "DISCO-W006"

(* Every code this module can emit, with a one-line summary. The
   generated doc/diagnostics.md and the analyzer's shared --json schema
   are asserted against this registry, so a new code must be added here
   (a test fails otherwise). *)
let code_registry =
  [
    (e001, Error, "unknown collection: a Get names an unregistered extent");
    ( e002,
      Error,
      "unresolved attribute: an attribute path does not resolve against the \
       concretely known element type" );
    ( e003,
      Error,
      "operand type mismatch: comparison or arithmetic operands are \
       concretely incompatible" );
    ( e004,
      Error,
      "non-constant membership: a Member filter's key set is not a constant \
       collection" );
    ( e005,
      Error,
      "capability violation: a wrapper grammar refuses a submitted subtree, \
       or one submit spans extents served by different wrappers" );
    ( e006,
      Error,
      "not decompilable: the tree cannot round-trip through OQL \
       (decompile, re-parse, re-compile)" );
    ( e007,
      Error,
      "unknown repository: an exec names an unregistered repository or an \
       extent bound elsewhere" );
    (e008, Error, "empty join key list: an equi-join algorithm has no key pairs");
    ( e009,
      Error,
      "binding overlap: the binding-struct field sets of a join's sides \
       intersect, or a struct head binds a field twice" );
    (e010, Error, "unresolvable wrapper: an extent's wrapper cannot be constructed");
    (e011, Error, "schema error: an ODL file fails to load");
    (e012, Error, "parse error: an OQL query fails to parse");
    ( e013,
      Error,
      "type error: an OQL query fails expansion or static typing against \
       the schema" );
    ( e014,
      Error,
      "unknown shard repository: a partitioned extent names a shard \
       repository that is not a registered source" );
    ( e015,
      Error,
      "bad shard key: a partitioned extent's shard key is not a declared \
       scalar attribute of its interface" );
    ( e016,
      Error,
      "bad range boundaries: a range partition's boundaries are unsorted, \
       duplicated, or incomparable" );
    (w001, Warning, "union drift: union members have concretely incompatible element types");
    ( w002,
      Warning,
      "wrapper over-claim: the capability grammar derives a sentence whose \
       translation leaves the grammar, or that the wrapper refuses to \
       execute" );
    ( w003,
      Warning,
      "round-trip drift: the tree decompiles and recompiles, but not to an \
       alpha-equivalent tree" );
    ( w004,
      Warning,
      "semijoin filter not pushable: a second-round membership filter is \
       outside the wrapper grammar" );
    ( w005,
      Warning,
      "heterogeneous shard grammars: the wrappers serving one sharded \
       extent advertise different capability grammars" );
    ( w006,
      Warning,
      "unbacked index advertisement: an indexed wrapper's grammar \
       advertises index-served lookups on an attribute that is undeclared \
       or has no declared index" );
  ]

(* -- typing -- *)

let resolve_attr st path elem p =
  match resolve elem p with
  | Ok t -> t
  | Result.Error msg ->
      error st e002 path "attribute path %s does not resolve: %s"
        (path_string p) msg;
      Any

let rec scalar_ty st path elem (s : Expr.scalar) =
  match s with
  | Expr.Const v -> ty_of_value v
  | Expr.Attr p -> resolve_attr st path elem p
  | Expr.Arith (op, a, b) -> (
      let ta = scalar_ty st path elem a and tb = scalar_ty st path elem b in
      match op with
      | Expr.Add ->
          if is_numeric ta && is_numeric tb then
            if ta = Float || tb = Float then Float else lub ta tb
          else if is_string ta && is_string tb then Str
          else (
            error st e003 path
              "operands of + must be both numeric or both strings, got %s \
               and %s"
              (ty_name ta) (ty_name tb);
            Any)
      | Expr.Sub | Expr.Mul | Expr.Div ->
          if is_numeric ta && is_numeric tb then
            if ta = Float || tb = Float then Float else lub ta tb
          else (
            error st e003 path "arithmetic over non-numbers: %s and %s"
              (ty_name ta) (ty_name tb);
            Any)
      | Expr.Mod ->
          if
            (ta = Int || ta = Any) && (tb = Int || tb = Any)
          then Int
          else (
            error st e003 path "mod requires integer operands, got %s and %s"
              (ty_name ta) (ty_name tb);
            Any))

let rec pred_check st path elem (p : Expr.pred) =
  match p with
  | Expr.True -> ()
  | Expr.Cmp (Expr.Like, a, b) ->
      let ta = scalar_ty st path elem a and tb = scalar_ty st path elem b in
      if not (is_string ta && is_string tb) then
        error st e003 path "like requires string operands, got %s and %s"
          (ty_name ta) (ty_name tb)
  | Expr.Cmp (_, a, b) ->
      let ta = scalar_ty st path elem a and tb = scalar_ty st path elem b in
      if not (comparable ta tb) then
        error st e003 path "comparison between %s and %s can never hold"
          (ty_name ta) (ty_name tb)
  | Expr.Member (s, keys) ->
      let ts = scalar_ty st path elem s in
      if not (V.is_collection keys) then
        error st e004 path
          "membership filter requires a constant collection of keys"
      else
        let tk = elem_ty_of_value keys in
        if not (comparable ts tk) then
          error st e003 path "membership of a %s in a collection of %s"
            (ty_name ts) (ty_name tk)
  | Expr.And (a, b) | Expr.Or (a, b) ->
      pred_check st path elem a;
      pred_check st path elem b
  | Expr.Not a -> pred_check st path elem a

let row_names = function Row fields -> Some (List.map fst fields) | _ -> None

let rec infer st path (e : Expr.expr) : ty =
  match e with
  | Expr.Get name -> (
      match st.checker.registry with
      | None -> Any
      | Some reg -> (
          match Registry.find_extent reg name with
          | None ->
              error st e001 path "collection %S is not a registered extent"
                name;
              Any
          | Some me -> (
              match Registry.attributes_of reg me.Registry.me_interface with
              | attrs ->
                  Row (List.map (fun (n, t) -> (n, ty_of_otype t)) attrs)
              | exception Registry.Odl_error msg ->
                  error st e001 path "extent %S: %s" name msg;
                  Any)))
  | Expr.Data v -> elem_ty_of_value v
  | Expr.Select (inner, p) ->
      let t = infer st ("select" :: path) inner in
      pred_check st ("pred" :: "select" :: path) t p;
      t
  | Expr.Project (inner, attrs) ->
      let t = infer st ("project" :: path) inner in
      Row
        (List.map
           (fun a ->
             ( a,
               match resolve t [ a ] with
               | Ok ta -> ta
               | Result.Error msg ->
                   error st e002 ("project" :: path)
                     "projected attribute %S does not resolve: %s" a msg;
                   Any ))
           attrs)
  | Expr.Map (inner, Expr.Hscalar s) ->
      let t = infer st ("map" :: path) inner in
      scalar_ty st ("head" :: "map" :: path) t s
  | Expr.Map (inner, Expr.Hstruct fields) ->
      let t = infer st ("map" :: path) inner in
      let rec dup = function
        | [] -> None
        | n :: rest -> if List.mem n rest then Some n else dup rest
      in
      (match dup (List.map fst fields) with
      | Some n ->
          error st e009 ("head" :: "map" :: path)
            "struct head binds field %S twice" n
      | None -> ());
      Row
        (List.map
           (fun (n, s) -> (n, scalar_ty st ("head" :: "map" :: path) t s))
           fields)
  | Expr.Join (l, r, pairs) ->
      let tl = infer st ("l" :: "join" :: path) l
      and tr = infer st ("r" :: "join" :: path) r in
      (match (tl, tr) with
      | Row _, Row _ -> (
          let nl = Option.get (row_names tl)
          and nr = Option.get (row_names tr) in
          match List.filter (fun n -> List.mem n nr) nl with
          | [] -> ()
          | overlap ->
              error st e009 ("join" :: path)
                "binding fields {%s} appear on both sides of the join"
                (String.concat ", " overlap))
      | (Bool | Int | Float | Str), _ | _, (Bool | Int | Float | Str) ->
          error st e009 ("join" :: path)
            "join sides must produce struct elements"
      | _ -> ());
      List.iteri
        (fun i (pl, pr) ->
          let pi = Printf.sprintf "pairs[%d]" i :: "join" :: path in
          let ta = resolve_attr st pi tl pl in
          let tb = resolve_attr st pi tr pr in
          if not (comparable ta tb) then
            error st e003 pi "join key %s : %s against %s : %s"
              (path_string pl) (ty_name ta) (path_string pr) (ty_name tb))
        pairs;
      (match (tl, tr) with
      | Row fl, Row fr ->
          Row (fl @ List.filter (fun (n, _) -> not (List.mem_assoc n fl)) fr)
      | _ -> Any)
  | Expr.Union es ->
      let tys =
        List.mapi
          (fun i m -> infer st (Printf.sprintf "union[%d]" i :: path) m)
          es
      in
      let concrete = List.filter (fun t -> t <> Any) tys in
      (match concrete with
      | first :: rest ->
          List.iter
            (fun t ->
              let drift =
                match (first, t) with
                | Row fa, Row fb ->
                    List.exists
                      (fun (n, ta) ->
                        match List.assoc_opt n fb with
                        | Some tb -> not (comparable ta tb)
                        | None -> false)
                      fa
                | a, b -> not (comparable a b)
              in
              if drift then
                warn st w001 ("union" :: path)
                  "union members have incompatible element types (%s vs %s)"
                  (ty_name first) (ty_name t))
            rest
      | [] -> ());
      if List.exists (fun t -> t = Any) tys then Any
      else (
        match tys with [] -> Any | t :: ts -> List.fold_left lub t ts)
  | Expr.Distinct inner -> infer st ("distinct" :: path) inner
  | Expr.Submit (repo, inner) ->
      infer st (Printf.sprintf "submit(%s)" repo :: path) inner

(* -- capability conformance -- *)

let check_submit st path repo sub =
  let c = st.checker in
  (match c.repo_known with
  | Some known when not (known repo) ->
      error st e007 path "repository %S is not registered" repo
  | _ -> ());
  let extents = Expr.gets sub in
  (match extents with
  | [] -> error st e007 path "exec to %S references no extent" repo
  | _ ->
      List.iter
        (fun ext ->
          match c.repo_of ext with
          | Some r when r <> repo ->
              error st e007 path
                "extent %S is bound to repository %S, not %S" ext r repo
          | _ -> ())
        extents);
  match c.wrapper_of with
  | None -> ()
  | Some wrapper_of -> (
      let resolved =
        List.filter_map
          (fun ext ->
            match wrapper_of ext with
            | Some w -> Some (ext, w)
            | None ->
                (* only a hole in the schema when the extent itself is
                   known; unknown extents already got DISCO-E001 *)
                (match c.registry with
                | Some reg when Registry.find_extent reg ext <> None ->
                    error st e010 path
                      "no wrapper can be resolved for extent %S" ext
                | _ -> ());
                None)
          (List.sort_uniq compare extents)
      in
      match resolved with
      | [] -> ()
      | (_, w0) :: _ -> (
          match
            List.sort_uniq compare
              (List.map (fun (_, w) -> Wrapper.name w) resolved)
          with
          | _ :: _ :: _ as names ->
              error st e005 path
                "one exec spans extents served by different wrappers (%s)"
                (String.concat ", " names)
          | _ ->
              if not (Wrapper.accepts w0 sub) then
                error st e005 path
                  "wrapper %S does not accept the pushed expression %s"
                  (Wrapper.name w0) (Expr.to_string sub)))

(* -- decompilability -- *)

let rec strip_submits (e : Expr.expr) : Expr.expr =
  match e with
  | Expr.Submit (_, i) -> strip_submits i
  | _ -> Expr.map_children strip_submits e

(* [Project] is semantically the struct-rebuilding [Map]; canonicalize so
   wrapper-split trees (Project pushed, Map kept) compare equal to their
   recompilations *)
let rec project_as_map (e : Expr.expr) : Expr.expr =
  match e with
  | Expr.Project (i, attrs) ->
      Expr.Map
        ( project_as_map i,
          Expr.Hstruct (List.map (fun a -> (a, Expr.Attr [ a ])) attrs) )
  | _ -> Expr.map_children project_as_map e

let rec contains_member_pred (p : Expr.pred) =
  match p with
  | Expr.Member _ -> true
  | Expr.And (a, b) | Expr.Or (a, b) ->
      contains_member_pred a || contains_member_pred b
  | Expr.Not a -> contains_member_pred a
  | Expr.True | Expr.Cmp _ -> false

(* [Member] decompiles to an existential the algebra compiler does not
   accept back (it only ever arises from runtime semijoin reduction), and
   constant [Data] collections print as value literals OQL cannot always
   re-read; for such trees only decompilation itself is required *)
let rec roundtrip_exempt (e : Expr.expr) =
  match e with
  | Expr.Data _ -> true
  | Expr.Select (_, p) when contains_member_pred p -> true
  | _ -> Expr.fold_children (fun exempt c -> exempt || roundtrip_exempt c) false e

(* α-canonicalization: rename binding variables (the fields of pure
   binding structs) positionally, in order of first occurrence *)
let alpha_rename (e : Expr.expr) : Expr.expr =
  let rec collect order (e : Expr.expr) =
    let order = Expr.fold_children collect order e in
    match e with
    | Expr.Map (_, Expr.Hstruct [ (v, Expr.Attr []) ])
      when not (List.mem v order) ->
        v :: order
    | _ -> order
  in
  let vars = List.rev (collect [] e) in
  let renaming =
    List.mapi (fun i v -> (v, Printf.sprintf "\xce\xb1%d" i)) vars
  in
  let ren v = match List.assoc_opt v renaming with Some v' -> v' | None -> v in
  let ren_path = function h :: rest -> ren h :: rest | [] -> [] in
  let rec ren_scalar (s : Expr.scalar) =
    match s with
    | Expr.Attr p -> Expr.Attr (ren_path p)
    | Expr.Const _ -> s
    | Expr.Arith (op, a, b) -> Expr.Arith (op, ren_scalar a, ren_scalar b)
  in
  let ren_head (h : Expr.head) =
    match h with
    | Expr.Hstruct [ (v, Expr.Attr []) ] ->
        Expr.Hstruct [ (ren v, Expr.Attr []) ]
    | _ -> Expr.map_head_scalars ren_scalar h
  in
  let rec go (e : Expr.expr) : Expr.expr =
    match e with
    | Expr.Select (i, p) ->
        Expr.Select (go i, Expr.map_pred_scalars ren_scalar p)
    | Expr.Map (i, h) -> Expr.Map (go i, ren_head h)
    | Expr.Join (l, r, pairs) ->
        Expr.Join (go l, go r, List.map (fun (a, b) -> (ren_path a, ren_path b)) pairs)
    | _ -> Expr.map_children go e
  in
  go e

let canon e =
  alpha_rename
    (Rules.normalize ~can_push:Rules.push_none (project_as_map e))

let check_roundtrip st path e =
  match Decompile.decompile e with
  | exception Decompile.Not_decompilable msg ->
      error st e006 path "not decompilable to OQL: %s" msg
  | q ->
      if not (roundtrip_exempt e) then (
        let text = Ast.to_string q in
        match Parser.parse text with
        | exception Lexer.Error (msg, pos) ->
            error st e006 path
              "decompiled OQL %S does not re-parse: %s (at %d)" text msg pos
        | q' -> (
            match Compile.compile q' with
            | Result.Error msg ->
                error st e006 path
                  "decompiled OQL %S does not recompile: %s" text msg
            | Ok e' ->
                let c0 = canon (strip_submits e)
                and c1 = canon (strip_submits e') in
                if not (Expr.equal c0 c1) then
                  warn st w003 path
                    "round-trip drift: recompiled tree is not α-equivalent \
                     (%s vs %s)"
                    (Expr.to_string c0) (Expr.to_string c1)))

(* -- entry points -- *)

let finish st = List.rev !(st.diags)

let check_expr_st st e =
  ignore (infer st [] e);
  List.iter
    (fun (repo, sub) ->
      check_submit st [ Printf.sprintf "submit(%s)" repo ] repo sub)
    (Expr.submits e);
  check_roundtrip st [] e

let check_expr checker e =
  let st = { checker; diags = ref [] } in
  check_expr_st st e;
  finish st

(* the membership filter the runtime will push on a semijoin's second
   round; key sets are only known at run time, so probe with an empty bag
   (token-wise a [CONST] like any other) *)
let semijoin_probe re pairs =
  let member (_, rpath) = Expr.Member (Expr.Attr rpath, V.bag []) in
  match pairs with
  | [] -> re
  | p0 :: rest ->
      Expr.Select
        ( re,
          List.fold_left
            (fun acc p -> Expr.And (acc, member p))
            (member p0) rest )

let check_plan ?folded checker plan =
  let st = { checker; diags = ref [] } in
  let rec walk path (p : Plan.plan) =
    match p with
    | Plan.Exec (repo, e) ->
        check_submit st (Printf.sprintf "exec(%s)" repo :: path) repo e
    | Plan.Mk_data _ -> ()
    | Plan.Mk_select (i, _) -> walk ("select" :: path) i
    | Plan.Mk_project (i, _) -> walk ("project" :: path) i
    | Plan.Mk_map (i, _) -> walk ("map" :: path) i
    | Plan.Nested_loop_join (l, r, _) ->
        walk ("l" :: "join" :: path) l;
        walk ("r" :: "join" :: path) r
    | Plan.Hash_join (l, r, pairs) ->
        if pairs = [] then
          error st e008 ("join" :: path)
            "equi-join algorithm carries no key pairs";
        walk ("l" :: "join" :: path) l;
        walk ("r" :: "join" :: path) r
    | Plan.Semi_join (l, (repo, re), pairs) ->
        let spath = Printf.sprintf "semijoin(%s)" repo :: path in
        if pairs = [] then
          error st e008 spath "semijoin carries no key pairs";
        check_submit st ("r" :: spath) repo re;
        (match st.checker.wrapper_of with
        | Some wrapper_of when pairs <> [] -> (
            let probe = semijoin_probe re pairs in
            match
              List.filter_map wrapper_of
                (List.sort_uniq compare (Expr.gets re))
            with
            | w :: _ when not (Wrapper.accepts w probe) ->
                warn st w004 spath
                  "wrapper %S cannot push the second-round membership \
                   filter; the runtime will ship the unreduced answer"
                  (Wrapper.name w)
            | _ -> ())
        | _ -> ());
        walk ("l" :: spath) l
    | Plan.Mk_union ps ->
        List.iteri
          (fun i sub -> walk (Printf.sprintf "union[%d]" i :: path) sub)
          ps
    | Plan.Mk_shard_merge ps ->
        List.iteri
          (fun i sub -> walk (Printf.sprintf "shardmerge[%d]" i :: path) sub)
          ps
    | Plan.Mk_distinct i -> walk ("distinct" :: path) i
  in
  walk [] plan;
  (* the logical reading of the plan carries the typing and
     decompilability obligations; capability was already checked exec by
     exec above *)
  let whole st plan =
    let logical = Plan.to_logical (Plan.degrade_semi_joins plan) in
    ignore (infer st [] logical);
    check_roundtrip st [] logical
  in
  (* a clean folded plan stands for the plan; any diagnostic there is
     recomputed on the plan itself, so its paths and counts are exact *)
  let folded_clean =
    match folded with
    | None -> false
    | Some f ->
        let probe = { checker; diags = ref [] } in
        whole probe f;
        !(probe.diags) = []
  in
  if not folded_clean then whole st plan;
  finish st

(* -- wrapper-conformance audit -- *)

let const_of_otype = function
  | Otype.TInt -> V.Int 1
  | Otype.TFloat -> V.Float 1.0
  | Otype.TBool -> V.Bool true
  | _ -> V.String "alpha"

let audit_catalog ~extent ~attrs =
  let get = Expr.Get extent in
  let bind v e = Expr.Map (e, Expr.Hstruct [ (v, Expr.Attr []) ]) in
  let names = List.map fst attrs in
  let a1, c1 =
    match attrs with
    | (n, t) :: _ -> (n, const_of_otype t)
    | [] -> ("key", V.String "alpha")
  in
  let eq1 = Expr.Cmp (Expr.Eq, Expr.Attr [ a1 ], Expr.Const c1) in
  let per_attr =
    List.concat_map
      (fun (n, t) ->
        let c = const_of_otype t in
        [
          Expr.Select (get, Expr.Cmp (Expr.Eq, Expr.Attr [ n ], Expr.Const c));
          Expr.Select (get, Expr.Cmp (Expr.Lt, Expr.Attr [ n ], Expr.Const c));
        ]
        @
        if t = Otype.TString then
          [
            Expr.Select
              ( get,
                Expr.Cmp
                  ( Expr.Like,
                    Expr.Attr [ n ],
                    Expr.Const (V.String "%alpha%") ) );
          ]
        else [])
      attrs
  in
  [ get; bind "x" get ]
  @ per_attr
  @ [
      Expr.Select (get, Expr.And (eq1, eq1));
      Expr.Select (get, Expr.Or (eq1, eq1));
      Expr.Select (get, Expr.Not eq1);
      Expr.Select (get, Expr.Member (Expr.Attr [ a1 ], V.bag [ c1 ]));
      Expr.Project (get, [ a1 ]);
      Expr.Project (get, names);
      Expr.Map (get, Expr.Hstruct [ (a1, Expr.Attr [ a1 ]) ]);
      Expr.Map
        ( Expr.Select
            (bind "x" get, Expr.Cmp (Expr.Eq, Expr.Attr [ "x"; a1 ], Expr.Const c1)),
          Expr.Hscalar (Expr.Attr [ "x"; a1 ]) );
      Expr.Distinct get;
      Expr.Distinct (Expr.Project (get, [ a1 ]));
    ]

let audit_wrapper ?source ?(indexed = fun _ -> false) ?(map = Typemap.identity)
    ~extent ~attrs w =
  let st =
    { checker = make (); diags = ref [] }
  in
  (* indexed wrappers advertise index-served lookups as named
     ATTRIBUTE:f terminals; each advertisement must name a declared
     attribute backed by a declared index, or the optimizer will push
     lookups the source answers with a full scan *)
  List.iter
    (fun f ->
      let path = [ Printf.sprintf "wrapper(%s)" (Wrapper.name w) ] in
      if not (List.mem_assoc f attrs) then
        warn st w006 path
          "the grammar advertises index-backed lookups on %S, which extent \
           %s does not declare"
          f extent
      else if not (indexed f) then
        warn st w006 path
          "the grammar advertises index-backed lookups on %s.%s but no \
           declared index backs them"
          extent f)
    (Grammar.named_attributes (Wrapper.functionality w));
  let catalog = audit_catalog ~extent ~attrs in
  let accepted = List.filter (Wrapper.accepts w) catalog in
  if accepted = [] then
    warn st w002
      [ Printf.sprintf "wrapper(%s)" (Wrapper.name w) ]
      "the capability grammar derives none of the audit sentences";
  (* translation through the extent's own map must keep accepted
     sentences inside the grammar *)
  List.iter
    (fun e ->
      let path =
        [ Printf.sprintf "audit(%s)" (Expr.to_string e) ]
      in
      (match Translate.to_source ~map_of:(fun _ -> map) e with
      | translated ->
          if not (Wrapper.accepts w translated) then
            warn st w002 path
              "the translated sentence %s leaves the grammar"
              (Expr.to_string translated)
      | exception Typemap.Map_error msg ->
          warn st w002 path "translation failed: %s" msg);
      match source with
      | None -> ()
      | Some src -> (
          match Wrapper.execute w src e with
          | Ok _ -> ()
          | Result.Error (Wrapper.Refused msg) ->
              warn st w002 path
                "the grammar derives this sentence but the wrapper refuses \
                 it: %s"
                msg
          | Result.Error (Wrapper.Native_error msg) ->
              warn st w002 path
                "the grammar derives this sentence but the source fails on \
                 it: %s"
                msg))
    accepted;
  finish st

(* -- shard-declaration audit -- *)

let audit_shards checker =
  let st = { checker; diags = ref [] } in
  (match checker.registry with
  | None -> ()
  | Some reg ->
      let repo_known =
        match checker.repo_known with
        | Some f -> f
        | None -> fun r -> Registry.find_object reg r <> None
      in
      List.iter
        (fun me ->
          match me.Registry.me_partition with
          | None -> ()
          | Some p ->
              let path = [ Printf.sprintf "extent(%s)" me.Registry.me_name ] in
              (* E014: every shard repository must name a known source *)
              List.iteri
                (fun k shard ->
                  let repo = shard.Disco_shard.Shard.s_repository in
                  if not (repo_known repo) then
                    error st e014
                      (Printf.sprintf "shard[%d]" k :: path)
                      "shard repository %s is not a known source" repo)
                p.Disco_shard.Shard.p_shards;
              (* E015: the shard key must be a declared scalar attribute *)
              (let attrs =
                 try Registry.attributes_of reg me.Registry.me_interface
                 with Registry.Odl_error _ -> []
               in
               match
                 List.assoc_opt p.Disco_shard.Shard.p_key attrs
               with
               | None ->
                   error st e015 path
                     "shard key %s is not an attribute of interface %s"
                     p.Disco_shard.Shard.p_key me.Registry.me_interface
               | Some
                   (Otype.TBool | Otype.TInt | Otype.TFloat | Otype.TString) ->
                   ()
               | Some ty ->
                   error st e015 path
                     "shard key %s has non-scalar type %s; keys must be \
                      bool, int, float or string"
                     p.Disco_shard.Shard.p_key (Otype.to_string ty));
              (* E016: range boundaries must be strictly increasing *)
              (match p.Disco_shard.Shard.p_scheme with
              | Disco_shard.Shard.Hash _ -> ()
              | Disco_shard.Shard.Range bs ->
                  let rec check_sorted i = function
                    | a :: (b :: _ as rest) ->
                        (match V.numeric_compare a b with
                        | Some c when c < 0 -> ()
                        | Some _ ->
                            error st e016 path
                              "range boundaries %a and %a are unsorted or \
                               overlapping (shards %d and %d double-cover)"
                              V.pp a V.pp b i (i + 1)
                        | None ->
                            error st e016 path
                              "range boundaries %a and %a are not comparable"
                              V.pp a V.pp b);
                        check_sorted (i + 1) rest
                    | [ _ ] | [] -> ()
                  in
                  check_sorted 0 bs);
              (* W005: shards answering through wrappers with different
                 capability grammars make pushdown asymmetric: the
                 mediator must plan for the weakest member *)
              match checker.wrapper_of with
              | None -> ()
              | Some wrapper_of -> (
                  let children = Registry.shard_children reg me.Registry.me_name in
                  let grammars =
                    List.filter_map
                      (fun child ->
                        Option.map
                          (fun w -> (Wrapper.name w, Wrapper.functionality w))
                          (wrapper_of child.Registry.me_name))
                      children
                  in
                  match grammars with
                  | [] -> ()
                  | (_, g0) :: rest ->
                      if
                        List.exists
                          (fun (_, g) -> not (Grammar.equal g g0))
                          rest
                      then
                        warn st w005 path
                          "shard wrappers advertise heterogeneous grammars \
                           (%s); pushdown degrades to the weakest shard"
                          (String.concat ", "
                             (List.sort_uniq String.compare
                                (List.map fst grammars)))))
        (Registry.all_extents reg));
  finish st

(* -- rendering -- *)

let pp_diag ppf d =
  Format.fprintf ppf "%s %s%s: %s" d.d_code
    (severity_name d.d_severity)
    (if d.d_path = "" then "" else " at " ^ d.d_path)
    d.d_message

(* -- reporting a verdict -- *)

let log_src = Logs.Src.create "disco.check" ~doc:"Disco static verifier"

module Log = (val Logs.src_log log_src)

let report ?metrics diags =
  let errs = List.length (errors diags) in
  let warns = List.length diags - errs in
  (match metrics with
  | Some m ->
      if warns > 0 then Disco_obs.Metrics.incr ~by:warns m "check.warnings";
      if errs > 0 then Disco_obs.Metrics.incr ~by:errs m "check.violations"
  | None -> ());
  List.iter
    (fun d ->
      match d.d_severity with
      | Error -> Log.warn (fun f -> f "%a" pp_diag d)
      | Warning -> Log.debug (fun f -> f "%a" pp_diag d))
    diags

let json_string = Disco_obs.Trace.json_string

let json_of_diags entries =
  let item (file, d) =
    Printf.sprintf
      {|{"file":%s,"code":%s,"severity":"%s","path":%s,"message":%s}|}
      (json_string file) (json_string d.d_code)
      (severity_name d.d_severity)
      (json_string d.d_path)
      (json_string d.d_message)
  in
  "[" ^ String.concat "," (List.map item (sort_diags entries)) ^ "]"
