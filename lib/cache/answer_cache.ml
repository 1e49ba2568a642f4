module Expr = Disco_algebra.Expr
module V = Disco_value.Value

let log_src = Logs.Src.create "disco.cache" ~doc:"Disco answer cache"

module Log = (val Logs.src_log log_src)

(* -- expression normalization -- *)

let pred_string p = Fmt.str "%a" Expr.pp_pred p
let scalar_string s = Fmt.str "%a" Expr.pp_scalar s

(* Flatten an And/Or chain into its conjuncts/disjuncts. *)
let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let rec disjuncts = function
  | Expr.Or (a, b) -> disjuncts a @ disjuncts b
  | p -> [ p ]

let rec normalize_pred p =
  match p with
  | Expr.True -> Expr.True
  | Expr.Cmp (op, a, b) -> (
      (* canonical operand order for symmetric operators; > / >= flip to
         < / <= so both spellings share a slot *)
      match op with
      | Expr.Eq | Expr.Ne ->
          if String.compare (scalar_string b) (scalar_string a) < 0 then
            Expr.Cmp (op, b, a)
          else p
      | Expr.Gt -> Expr.Cmp (Expr.Lt, b, a)
      | Expr.Ge -> Expr.Cmp (Expr.Le, b, a)
      | Expr.Lt | Expr.Le | Expr.Like -> p)
  | Expr.Member (s, v) -> Expr.Member (s, v)
  | Expr.And _ ->
      rebuild (fun a b -> Expr.And (a, b)) (List.map normalize_pred (conjuncts p))
  | Expr.Or _ ->
      rebuild (fun a b -> Expr.Or (a, b)) (List.map normalize_pred (disjuncts p))
  | Expr.Not q -> Expr.Not (normalize_pred q)

and rebuild mk parts =
  match List.sort (fun a b -> String.compare (pred_string a) (pred_string b)) parts with
  | [] -> Expr.True
  | first :: rest -> List.fold_left mk first rest

let rec normalize e =
  match e with
  | Expr.Select (e, p) -> Expr.Select (normalize e, normalize_pred p)
  | Expr.Join (l, r, pairs) ->
      Expr.Join (normalize l, normalize r, List.sort compare pairs)
  | _ -> Expr.map_children normalize e

let key ~repo expr = repo ^ "|" ^ Expr.to_string (normalize expr)

(* -- the cache proper -- *)

type entry = { e_value : V.t; e_version : int; e_stored_at : float }

(* One mediator's cache serves every query, from several threads at
   once: [lock] guards the LRU and the counters, and is held only across
   their own reads and writes. *)
type t = {
  lock : Mutex.t;
  lru : (string, entry) Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable stale_served : int;
  mutable stale_ms : float;
}

let create ?(capacity = 512) () =
  {
    lock = Mutex.create ();
    lru = Lru.create ~capacity ();
    hits = 0;
    misses = 0;
    stale = 0;
    stale_served = 0;
    stale_ms = 0.0;
  }

let locked t f = Mutex.protect t.lock f

let find_fresh t ~key ~version =
  locked t @@ fun () ->
  match Lru.find t.lru key with
  | Some e when e.e_version = version ->
      t.hits <- t.hits + 1;
      Some e.e_value
  | Some _ ->
      (* the source's data moved on: invalid for fresh serving, but kept
         for the outage fallback until overwritten or evicted *)
      t.stale <- t.stale + 1;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

let find_stale t ~key ~now ~max_stale_ms =
  let found =
    locked t @@ fun () ->
    match Lru.find t.lru key with
    | Some e when now -. e.e_stored_at <= max_stale_ms ->
        let age = now -. e.e_stored_at in
        t.stale_served <- t.stale_served + 1;
        t.stale_ms <- Float.max t.stale_ms age;
        Some (e.e_value, age)
    | Some _ | None -> None
  in
  Option.iter
    (fun (_, age) ->
      Log.info (fun m ->
          m "serving %s from cache at staleness %.1f ms" key age))
    found;
  found

let store t ~key ~version ~now value =
  locked t (fun () ->
      Lru.add t.lru key
        { e_value = value; e_version = version; e_stored_at = now })

let invalidate_repo t repo =
  let prefix = repo ^ "|" in
  let plen = String.length prefix in
  locked t @@ fun () ->
  List.iter
    (fun (k, _) ->
      if String.length k >= plen && String.sub k 0 plen = prefix then
        Lru.remove t.lru k)
    (Lru.to_list t.lru)

type stats = {
  hits : int;
  misses : int;
  stale : int;
  stale_served : int;
  stale_ms : float;
  evictions : int;
  size : int;
  capacity : int;
}

let stats (t : t) =
  locked t @@ fun () ->
  {
    hits = t.hits;
    misses = t.misses;
    stale = t.stale;
    stale_served = t.stale_served;
    stale_ms = t.stale_ms;
    evictions = Lru.evictions t.lru;
    size = Lru.length t.lru;
    capacity = Lru.capacity t.lru;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d/%d entries, %d hits, %d misses, %d stale, %d stale-served (max %.1f \
     ms), %d evictions"
    s.size s.capacity s.hits s.misses s.stale s.stale_served s.stale_ms
    s.evictions
