module Expr = Disco_algebra.Expr
module Plan = Disco_physical.Plan

type t = {
  copies : (string, (string * string) list) Hashtbl.t;
      (** representative extent -> (repository, extent) of every other
          member it stands for, in union order *)
  slots : (string, int * int) Hashtbl.t;
      (** extent of each member of a folded union -> (union, position) *)
  folded : (string, unit) Hashtbl.t;  (** the extents folded away *)
}

(* The extent a union member reads, when it reads exactly one. *)
type sole = No_extent | One of string | Several

let rec sole acc (e : Expr.expr) =
  match (acc, e) with
  | Several, _ -> Several
  | No_extent, Expr.Get n -> One n
  | One _, Expr.Get _ -> Several
  | _ -> Expr.fold_children sole acc e

let rec sole_plan acc (p : Plan.plan) =
  match p with
  | Plan.Exec (_, e) -> sole acc e
  | Plan.Semi_join (l, (_, re), _) -> sole_plan (sole acc re) l
  | _ -> Plan.fold_children sole_plan acc p

let fold ~classes located =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace counts e
        (1 + Option.value (Hashtbl.find_opt counts e) ~default:0))
    (Expr.gets located);
  let t =
    {
      copies = Hashtbl.create 8;
      slots = Hashtbl.create 64;
      folded = Hashtbl.create 64;
    }
  in
  let unions = ref 0 in
  let leaf = function
    | Expr.Submit (repo, Expr.Get e) when Hashtbl.find counts e = 1 ->
        Some (repo, e)
    | _ -> None
  in
  let fold_union ms =
    let leaves = List.filter_map leaf ms in
    if List.compare_lengths leaves ms <> 0 then None
    else
      (* each class's members, in union order *)
      let by_class = Hashtbl.create 8 in
      List.iter
        (fun (repo, e) ->
          Option.iter
            (fun k ->
              Hashtbl.replace by_class k
                ((repo, e)
                :: Option.value (Hashtbl.find_opt by_class k) ~default:[]))
            (classes e))
        leaves;
      let copies = Hashtbl.create 8 and gone = Hashtbl.create 32 in
      Hashtbl.iter
        (fun _ rev_members ->
          match List.rev rev_members with
          | (_, rep) :: (_ :: _ as rest) ->
              Hashtbl.replace copies rep rest;
              List.iter (fun (_, e) -> Hashtbl.replace gone e ()) rest
          | _ -> ())
        by_class;
      (* A union left with one member would be collapsed into it by
         normalization, which could then push a distinct or a join into
         that one source: keep the class's second member too. *)
      (match List.filter (fun (_, e) -> not (Hashtbl.mem gone e)) leaves with
      | [ (_, rep) ] -> (
          match Hashtbl.find_opt copies rep with
          | Some ((_, second) :: rest) ->
              Hashtbl.remove gone second;
              Hashtbl.replace copies rep rest
          | Some [] | None -> ())
      | _ -> ());
      if Hashtbl.length gone = 0 then None
      else (
        let u = !unions in
        incr unions;
        List.iteri (fun i (_, e) -> Hashtbl.replace t.slots e (u, i)) leaves;
        Hashtbl.iter (Hashtbl.replace t.copies) copies;
        Hashtbl.iter (Hashtbl.replace t.folded) gone;
        Some
          (Expr.Union
             (List.filter
                (function
                  | Expr.Submit (_, Expr.Get e) -> not (Hashtbl.mem gone e)
                  | _ -> true)
                ms)))
  in
  let rec go e =
    match e with
    | Expr.Union ms -> (
        match fold_union ms with
        | Some folded -> folded
        | None -> Expr.map_children go e)
    | _ -> Expr.map_children go e
  in
  let folded = go located in
  if Hashtbl.length t.folded = 0 then None else Some (folded, t)

(* A member derived from a representative reads only its extent, at its
   repository. *)
let rename ~repo ~extent e =
  let rec go (e : Expr.expr) =
    match e with
    | Expr.Get _ -> Expr.Get extent
    | Expr.Submit (_, body) -> Expr.Submit (repo, go body)
    | _ -> Expr.map_children go e
  in
  go e

(* Rewrite rules keep union members in order (they distribute over a
   union member by member and flatten nested unions in place), so the
   members of one folded union stay one consecutive run: sorting each run
   by original position restores the interleaving. *)
let restore tagged =
  let rec go acc = function
    | [] -> List.rev acc
    | (None, m) :: rest -> go (m :: acc) rest
    | ((Some (u, _), _) :: _) as start ->
        let rec split run = function
          | ((Some (u', _), _) as x) :: rest when u' = u -> split (x :: run) rest
          | rest -> (List.rev run, rest)
        in
        let run, rest = split [] start in
        let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) run in
        go (List.rev_append (List.map snd sorted) acc) rest
  in
  go [] tagged

let instantiate t e =
  let slot x = Hashtbl.find_opt t.slots x in
  let expand m =
    match sole No_extent m with
    | One x ->
        (slot x, m)
        :: (match Hashtbl.find_opt t.copies x with
           | Some copies ->
               List.map
                 (fun (repo, extent) -> (slot extent, rename ~repo ~extent m))
                 copies
           | None -> [])
    | No_extent | Several -> [ (None, m) ]
  in
  let rec go e =
    match e with
    | Expr.Union ms -> Expr.Union (restore (List.concat_map expand (List.map go ms)))
    | _ -> Expr.map_children go e
  in
  go e

let fold_plan t p =
  let kept m =
    match sole_plan No_extent m with
    | One x -> not (Hashtbl.mem t.folded x)
    | No_extent | Several -> true
  in
  let rec go (p : Plan.plan) =
    match p with
    | Plan.Mk_union ps -> Plan.Mk_union (List.map go (List.filter kept ps))
    | _ -> Plan.map_children go p
  in
  go p
