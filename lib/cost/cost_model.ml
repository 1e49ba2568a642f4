module Expr = Disco_algebra.Expr
module V = Disco_value.Value

type basis = Exact of int | Close of int | Indexed | Default

type estimate = { est_time_ms : float; est_rows : float; est_basis : basis }

(* Paper Section 3.3: "a default time cost of 0 and a data cost of 1". *)
let default_estimate = { est_time_ms = 0.0; est_rows = 1.0; est_basis = Default }

type record_entry = { time_ms : float; rows : int }

(* One observed batched round-trip: [b_size] expressions answered by one
   wrapper call taking [b_time_ms] total. *)
type batch_entry = { b_size : int; b_time_ms : float }

type t = {
  history : int;
  smoothing : float;
  close_matching : bool;
  (* exact key -> most-recent-first entries *)
  exact : (string, record_entry list) Hashtbl.t;
  (* skeleton key -> most-recent-first entries (bounded the same way) *)
  close : (string, record_entry list) Hashtbl.t;
  (* repo -> most-recent-first batched round-trips (bounded the same way) *)
  batch : (string, batch_entry list) Hashtbl.t;
  (* repo -> attributes with a declared source-side index *)
  declared : (string, (string * [ `Hash | `Sorted ]) list) Hashtbl.t;
}

let create ?(history = 8) ?(smoothing = 0.5) ?(close_matching = true) () =
  if history < 1 then invalid_arg "Cost_model.create: history must be >= 1";
  if smoothing <= 0.0 || smoothing > 1.0 then
    invalid_arg "Cost_model.create: smoothing must be in (0, 1]";
  {
    history;
    smoothing;
    close_matching;
    exact = Hashtbl.create 64;
    close = Hashtbl.create 64;
    batch = Hashtbl.create 16;
    declared = Hashtbl.create 8;
  }

let declare_index t ~repo ~attr ~kind =
  let existing = Option.value (Hashtbl.find_opt t.declared repo) ~default:[] in
  let existing = List.remove_assoc attr existing in
  Hashtbl.replace t.declared repo ((attr, kind) :: existing)

let indexed_attrs t ~repo =
  Option.value (Hashtbl.find_opt t.declared repo) ~default:[]
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Erase constants so that only the operator structure and the compared
   attributes remain. *)
let rec erase_scalar = function
  | Expr.Const _ -> Expr.Const V.Null
  | Expr.Attr p -> Expr.Attr p
  | Expr.Arith (op, a, b) -> Expr.Arith (op, erase_scalar a, erase_scalar b)

let rec erase_pred = function
  | Expr.True -> Expr.True
  | Expr.Cmp (op, a, b) -> Expr.Cmp (op, erase_scalar a, erase_scalar b)
  | Expr.Member (a, _) -> Expr.Member (erase_scalar a, V.Bag [])
  | Expr.And (a, b) -> Expr.And (erase_pred a, erase_pred b)
  | Expr.Or (a, b) -> Expr.Or (erase_pred a, erase_pred b)
  | Expr.Not a -> Expr.Not (erase_pred a)

let rec erase = function
  | Expr.Data _ -> Expr.Data (V.Bag [])
  | Expr.Select (e, p) -> Expr.Select (erase e, erase_pred p)
  | Expr.Map (e, h) -> Expr.Map (erase e, Expr.map_head_scalars erase_scalar h)
  | e -> Expr.map_children erase e

let skeleton e = Expr.to_string (erase e)

let exact_key ~repo e = repo ^ "|" ^ Expr.to_string e
let close_key ~repo e = repo ^ "|" ^ skeleton e

let push t table key entry =
  let existing = Option.value (Hashtbl.find_opt table key) ~default:[] in
  let trimmed = List.filteri (fun i _ -> i < t.history - 1) existing in
  Hashtbl.replace table key (entry :: trimmed)

let record t ~repo ~expr ~time_ms ~rows =
  let entry = { time_ms; rows } in
  push t t.exact (exact_key ~repo expr) entry;
  push t t.close (close_key ~repo expr) entry

(* Exponential smoothing, most recent first: the newest call has weight
   alpha, the next alpha*(1-alpha), etc., renormalized over the window. *)
let smooth t entries =
  let alpha = t.smoothing in
  let _, wsum, tsum, rsum =
    List.fold_left
      (fun (w, wsum, tsum, rsum) e ->
        ( w *. (1.0 -. alpha),
          wsum +. w,
          tsum +. (w *. e.time_ms),
          rsum +. (w *. float_of_int e.rows) ))
      (alpha, 0.0, 0.0, 0.0) entries
  in
  (tsum /. wsum, rsum /. wsum)

(* Is this submit shaped like an indexed lookup at [repo]? Strip the
   structural wrappers the compiler adds (binds, projections), then look
   for a select over a get with at least one conjunct comparing a
   declared attribute to a constant (equality for any index kind, range
   comparisons only for sorted indexes). *)
let rec strip_shape = function
  | Expr.Project (e, _) | Expr.Map (e, _) | Expr.Distinct e -> strip_shape e
  | e -> e

let rec any_conjunct f = function
  | Expr.And (a, b) -> any_conjunct f a || any_conjunct f b
  | p -> f p

let attr_field path = match List.rev path with f :: _ -> f | [] -> ""

let indexed_shape t ~repo expr =
  match Hashtbl.find_opt t.declared repo with
  | None | Some [] -> false
  | Some attrs -> (
      match strip_shape expr with
      | Expr.Select (e, pred) -> (
          match strip_shape e with
          | Expr.Get _ ->
              any_conjunct
                (fun p ->
                  match p with
                  | Expr.Cmp (op, Expr.Attr path, Expr.Const _)
                  | Expr.Cmp (op, Expr.Const _, Expr.Attr path) -> (
                      match (List.assoc_opt (attr_field path) attrs, op) with
                      | Some _, Expr.Eq -> true
                      | Some `Sorted, (Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge)
                        ->
                          true
                      | _ -> false)
                  | _ -> false)
                pred
          | _ -> false)
      | _ -> false)

(* An indexed lookup we have no history for: priced like the default
   (time 0, data 1 — the paper's pushdown bias) but on an [Indexed]
   basis, which the optimizer treats as informed rather than guessed. *)
let indexed_estimate = { est_time_ms = 0.0; est_rows = 1.0; est_basis = Indexed }

let uninformed t ~repo expr =
  if indexed_shape t ~repo expr then indexed_estimate else default_estimate

let estimate t ~repo expr =
  match Hashtbl.find_opt t.exact (exact_key ~repo expr) with
  | Some (_ :: _ as entries) ->
      let time, rows = smooth t entries in
      { est_time_ms = time; est_rows = rows; est_basis = Exact (List.length entries) }
  | Some [] | None when t.close_matching -> (
      match Hashtbl.find_opt t.close (close_key ~repo expr) with
      | Some (_ :: _ as entries) ->
          let time, rows = smooth t entries in
          {
            est_time_ms = time;
            est_rows = rows;
            est_basis = Close (List.length entries);
          }
      | Some [] | None -> uninformed t ~repo expr)
  | Some [] | None -> uninformed t ~repo expr

let record_batch t ~repo ~size ~time_ms =
  if size < 1 then invalid_arg "Cost_model.record_batch: size must be >= 1";
  let existing = Option.value (Hashtbl.find_opt t.batch repo) ~default:[] in
  let trimmed = List.filteri (fun i _ -> i < t.history - 1) existing in
  Hashtbl.replace t.batch repo ({ b_size = size; b_time_ms = time_ms } :: trimmed)

(* Calibrate the batched round-trip the same way Section 3.3 calibrates
   single calls: from recorded (size, time) pairs, fit
   [time = overhead + marginal * size] by least squares.  With a single
   observed size the slope is unidentifiable, so fall back to scaling the
   mean time by size — pessimistic (it re-charges the overhead per call)
   but monotone, and it self-corrects once a second size is observed. *)
let estimate_batch t ~repo ~size =
  match Hashtbl.find_opt t.batch repo with
  | None | Some [] -> None
  | Some entries ->
      let n = float_of_int (List.length entries) in
      let sx, sy, sxx, sxy =
        List.fold_left
          (fun (sx, sy, sxx, sxy) e ->
            let x = float_of_int e.b_size in
            (sx +. x, sy +. e.b_time_ms, sxx +. (x *. x), sxy +. (x *. e.b_time_ms)))
          (0.0, 0.0, 0.0, 0.0) entries
      in
      let mean_x = sx /. n and mean_y = sy /. n in
      let denom = sxx -. (sx *. sx /. n) in
      let k = float_of_int size in
      let predicted =
        if denom > 1e-9 then
          let marginal = (sxy -. (sx *. sy /. n)) /. denom in
          let overhead = mean_y -. (marginal *. mean_x) in
          overhead +. (marginal *. k)
        else if mean_x > 0.0 then mean_y /. mean_x *. k
        else mean_y
      in
      Some (Float.max 0.0 predicted)

let recorded_calls t =
  Hashtbl.fold (fun _ entries acc -> acc + List.length entries) t.exact 0

let clear t =
  (* observations only: index declarations are DDL, not history *)
  Hashtbl.reset t.exact;
  Hashtbl.reset t.close;
  Hashtbl.reset t.batch
