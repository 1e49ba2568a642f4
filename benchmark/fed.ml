(* The benchmark's federations and the reference answers they are checked
   against. A federation is built only through public entry points:
   sources registered with [Mediator.register_source], schema and views
   loaded as ODL, indexes declared with [Mediator.declare_index]. *)

module V = Disco_value.Value
module Ast = Disco_oql.Ast
module Oql = Disco_oql.Parser
module Eval = Disco_oql.Eval
module Mediator = Disco_core.Mediator
module Runtime = Disco_runtime.Runtime
module Source = Disco_source.Source
module Schedule = Disco_source.Schedule
module Datagen = Disco_source.Datagen
module Database = Disco_relation.Database
module Table = Disco_relation.Table
module Gen = Disco_bench_kit.Gen

type spec = {
  sources : int;
  rows : int;
  data_seed : int -> int;  (** seed of source [i]'s rows *)
  spread : bool;
      (** salaries from [Gen.spread_salaries]; otherwise [Datagen.person_rows]'s *)
  wrapper : int -> string;  (** ODL wrapper constructor serving source [i] *)
  schedule : int -> Schedule.t;
  view : (string * string) option;  (** [(name, OQL body)] *)
  indexes : bool;  (** hash index on [id], sorted index on [salary] *)
}

type t = {
  spec : spec;
  m : Mediator.t;
  sources : Source.t array;
  tables : Table.t array;  (** source [i] holds extent [person<i>] *)
}

let extent i = Printf.sprintf "person%d" i
let repo i = Printf.sprintf "r%d" i

(* Rows [0, n) of the person schema: Datagen's names, and either its
   uniformly drawn salaries or the same salaries in every table. *)
let person_rows (spec : spec) i =
  let seed = spec.data_seed i and n = spec.rows in
  if spec.spread then
    let salaries = Gen.spread_salaries ~seed ~n in
    List.init n (fun id -> [| V.Int id; V.String (Datagen.pick_name ~seed id); V.Int salaries.(id) |])
  else Datagen.person_rows ~seed ~n

let build ?(config = Mediator.Config.default) (spec : spec) =
  let m = Mediator.create ~config ~name:"bench" () in
  let ctors = List.sort_uniq compare (List.init spec.sources spec.wrapper) in
  let wobj ctor =
    let rec go i = function
      | c :: _ when c = ctor -> Printf.sprintf "w%d" i
      | _ :: rest -> go (i + 1) rest
      | [] -> assert false
    in
    go 0 ctors
  in
  let odl = Buffer.create 4096 in
  Buffer.add_string odl
    "interface Person (extent person) {\n\
    \  attribute Short id;\n\
    \  attribute String name;\n\
    \  attribute Short salary; }\n";
  List.iter (fun c -> Printf.bprintf odl "%s := %s();\n" (wobj c) c) ctors;
  let made =
    Array.init spec.sources (fun i ->
        let db = Database.create ~name:"db" in
        let table =
          Datagen.table_of db ~name:(extent i) Datagen.person_schema (person_rows spec i)
        in
        let source =
          Source.create ~id:(extent i)
            ~address:
              (Source.address ~host:(Printf.sprintf "site%d" i) ~db_name:"db"
                 ~ip:(Printf.sprintf "10.0.%d.%d" (i / 256) (i mod 256))
                 ())
            ~schedule:(spec.schedule i) (Source.Relational db)
        in
        Mediator.register_source m ~name:(repo i) source;
        Printf.bprintf odl
          "%s := Repository(host=\"site%d\", name=\"db\", address=\"10.0.%d.%d\");\n\
           extent %s of Person wrapper %s repository %s;\n"
          (repo i) i (i / 256) (i mod 256) (extent i)
          (wobj (spec.wrapper i))
          (repo i);
        (source, table))
  in
  Option.iter (fun (name, body) -> Printf.bprintf odl "define %s as %s;\n" name body) spec.view;
  Mediator.load_odl m (Buffer.contents odl);
  if spec.indexes then
    for i = 0 to spec.sources - 1 do
      Mediator.declare_index m ~repo:(repo i) ~table:(extent i) ~column:"id" ~kind:`Hash;
      Mediator.declare_index m ~repo:(repo i) ~table:(extent i) ~column:"salary"
        ~kind:`Sorted
    done;
  { spec; m; sources = Array.map fst made; tables = Array.map snd made }

(* Rows a source-side write appends: ids from [rows] up, after the built
   ones; names come from the same generator as the initial data. *)
let write_rows ~seed ~rows salaries =
  Array.to_list
    (Array.mapi
       (fun k s ->
         let id = rows + k in
         [| V.Int id; V.String (Datagen.pick_name ~seed id); V.Int s |])
       salaries)

(* Delete the rows writes added to source [src] (ids from [spec.rows]
   up), if any. *)
let retract t src =
  let tb = t.tables.(src) in
  if Table.cardinality tb > t.spec.rows then
    ignore
      (Table.delete_where tb (fun row ->
           match row.(0) with V.Int id -> id >= t.spec.rows | _ -> false))

(* Every table back to the rows it was built with. *)
let reset t = Array.iteri (fun src _ -> retract t src) t.tables

(* A source-side write: the previous write's rows are retracted, then
   [rows] are appended, so a table never holds more than one write's rows
   beyond those built, however long the run. Returns the seconds the
   append took; the retraction is not timed. *)
let write t ~src rows =
  retract t src;
  let t0 = Unix.gettimeofday () in
  Table.insert_all t.tables.(src) rows;
  Unix.gettimeofday () -. t0

(* -- reference answers --

   The reference OQL evaluator over the ground-truth extents: each
   [person<i>] is the current content of source [i]'s table, [person] is
   their union, and the view evaluates its own OQL body. No mediator code
   is involved. The independent [from] collections of a top-level select
   are evaluated once instead of once per outer binding (the evaluator's
   dependent join would otherwise redo them), which changes nothing but
   the time the check takes. *)

let extent_index name =
  let n = String.length name in
  if n > 6 && String.sub name 0 6 = "person" then
    int_of_string_opt (String.sub name 6 (n - 6))
  else None

let eval_select env q =
  match q with
  | Ast.Select sel ->
      let vars = List.map fst sel.Ast.sel_from in
      let independent c =
        not (List.exists (fun f -> List.mem f vars) (Ast.free_collections c))
      in
      let from =
        List.map
          (fun (v, c) -> if independent c then (v, Ast.Const (Eval.eval env c)) else (v, c))
          sel.Ast.sel_from
      in
      Eval.eval env (Ast.Select { sel with Ast.sel_from = from })
  | q -> Eval.eval env q

let reference t text =
  let memo = Hashtbl.create 8 in
  let rec resolve name =
    match Hashtbl.find_opt memo name with
    | Some v -> Some v
    | None ->
        let v =
          if name = "person" then
            Some
              (V.bag
                 (List.concat_map (fun tb -> V.elements (Table.to_bag tb))
                    (Array.to_list t.tables)))
          else
            match (extent_index name, t.spec.view) with
            | Some i, _ when i >= 0 && i < Array.length t.tables ->
                Some (Table.to_bag t.tables.(i))
            | _, Some (view, body) when view = name ->
                Some (eval_select (Eval.env ~resolve ()) (Oql.parse body))
            | _ -> None
        in
        Option.iter (Hashtbl.replace memo name) v;
        v
  in
  eval_select (Eval.env ~resolve ()) (Oql.parse text)

(* Repositories a query reads, per the generator's [touched] list. *)
let touched_repos t (q : Gen.query) =
  match q.Gen.touched with
  | Some is -> List.sort_uniq compare (List.map repo is)
  | None -> List.init t.spec.sources repo

let source_of t r = t.sources.(int_of_string (String.sub r 1 (String.length r - 1)))

let down_at t repos now = List.filter (fun r -> not (Source.is_up (source_of t r) now)) repos

(* Whether a source is down at [t0] and at every availability change in
   [(t0, t1]]: [(down throughout, down at some instant)]. *)
let down_during t r ~t0 ~t1 =
  let s = source_of t r in
  let rec go at all any =
    let up = Source.is_up s at in
    let all = all && not up and any = any || not up in
    match Schedule.next_transition (Source.schedule s) at with
    | Some next when next <= t1 -> go next all any
    | _ -> (all, any)
  in
  go t0 true false

(* A 63-bit hash that identifies a value. Bags and sets are kept in a
   sorted canonical form, so equal values hash alike. It allocates
   nothing, so checking an answer leaves no garbage for the next timed
   query to collect. *)
let fingerprint (v : V.t) =
  let mix h x = (h * 1_000_003) lxor x in
  let rec go h = function
    | V.Null -> mix h 1
    | V.Bool b -> mix h (if b then 2 else 3)
    | V.Int i -> mix (mix h 4) i
    | V.Float f -> mix (mix h 5) (Hashtbl.hash f)
    | V.String s -> mix (mix h 6) (Hashtbl.hash s)
    | V.Object o -> mix (mix h 7) o.V.oid_id
    | V.Struct fields -> List.fold_left (fun h (k, x) -> go (mix h (Hashtbl.hash k)) x) (mix h 8) fields
    | V.Bag xs -> List.fold_left go (mix h 9) xs
    | V.Set xs -> List.fold_left go (mix h 10) xs
    | V.List xs -> List.fold_left go (mix h 11) xs
  in
  go 0 v

(* Check an outcome against the reference answer. A complete answer must
   be one [matches] accepts. A partial answer must name the touched sources that were
   down when their calls were issued: every source down throughout the
   query's virtual interval [[t0, t1]], and only sources down at some
   instant of it (a query with a down source waits for its deadline, and
   later rounds issue later). *)
let check_outcome t ~t0 ~t1 (q : Gen.query) (o : Mediator.outcome) ~matches =
  let states = List.map (fun r -> (r, down_during t r ~t0 ~t1)) (touched_repos t q) in
  let must = List.filter_map (fun (r, (all, _)) -> if all then Some r else None) states in
  let may = List.filter_map (fun (r, (_, any)) -> if any then Some r else None) states in
  match o.Mediator.answer with
  | Mediator.Complete v ->
      if must <> [] then Error "complete answer although a touched source was down"
      else if matches v then Ok ()
      else
        let s = V.to_string v in
        Error
          (Printf.sprintf "complete answer %s differs from the reference"
             (if String.length s > 160 then String.sub s 0 160 ^ "..." else s))
  | Mediator.Partial p ->
      let un = List.sort_uniq compare p.Runtime.unavailable in
      if
        un <> []
        && List.for_all (fun r -> List.mem r un) must
        && List.for_all (fun r -> List.mem r may) un
      then Ok ()
      else
        Error
          (Printf.sprintf "partial answer names [%s], sources down were [%s]"
             (String.concat "," un) (String.concat "," may))
  | Mediator.Unavailable _ -> Error "unavailable answer under partial-answer semantics"
