module Expr = Disco_algebra.Expr
module V = Disco_value.Value
module Lru = Disco_cache.Lru

type basis = Exact of int | Close of int | Indexed | Default

type estimate = { est_time_ms : float; est_rows : float; est_basis : basis }

(* Paper Section 3.3: "a default time cost of 0 and a data cost of 1". *)
let default_estimate = { est_time_ms = 0.0; est_rows = 1.0; est_basis = Default }

(* A key's last [history] observations in a ring, written in place. It
   starts with one slot (a key recorded once, as most ad-hoc execs are,
   costs no more than a one-entry list) and takes its full size at the
   second observation, after which recording allocates nothing. An
   observation is a time and a count: a call's rows, or a batched
   round-trip's size (that many expressions answered by one wrapper call
   taking that time in total). *)
type ring = {
  mutable times : float array;
  mutable counts : int array;
  mutable len : int;
  mutable next : int;  (* the slot the next observation overwrites *)
}

let fresh_ring () = { times = [||]; counts = [||]; len = 0; next = 0 }

(* The exact history keeps at most this many keys, the least recently
   recorded or estimated evicted first. One mediator serves a whole
   [discoctl serve] process, and every ad-hoc query adds a key per pushed
   exec with new constants (one per branch of a multi-extent view), while
   the skeletons of the close history stay few. An evicted key's calls
   still inform its skeleton's close estimate. A pass of the benchmark's
   [cold_adhoc] workload keys about 400 execs. *)
let exact_bound = 4096

(* One mediator's model serves every query, from several threads and
   domains at once: [lock] guards the four tables and the rings, which
   are written in place. It is never held across anything but their own
   reads and writes. *)
type t = {
  lock : Mutex.t;
  history : int;
  smoothing : float;
  close_matching : bool;
  exact : (string, ring) Lru.t;  (* exact key -> calls *)
  close : (string, ring) Hashtbl.t;  (* skeleton key -> calls *)
  batch : (string, ring) Hashtbl.t;  (* repo -> batched round-trips *)
  (* repo -> attributes with a declared source-side index *)
  declared : (string, (string * [ `Hash | `Sorted ]) list) Hashtbl.t;
}

let create ?(history = 8) ?(smoothing = 0.5) ?(close_matching = true) () =
  if history < 1 then invalid_arg "Cost_model.create: history must be >= 1";
  if smoothing <= 0.0 || smoothing > 1.0 then
    invalid_arg "Cost_model.create: smoothing must be in (0, 1]";
  {
    lock = Mutex.create ();
    history;
    smoothing;
    close_matching;
    exact = Lru.create ~capacity:exact_bound ();
    close = Hashtbl.create 64;
    batch = Hashtbl.create 16;
    declared = Hashtbl.create 8;
  }

let locked t f = Mutex.protect t.lock f

let declare_index t ~repo ~attr ~kind =
  locked t (fun () ->
      let existing =
        Option.value (Hashtbl.find_opt t.declared repo) ~default:[]
      in
      let existing = List.remove_assoc attr existing in
      Hashtbl.replace t.declared repo ((attr, kind) :: existing))

let indexed_attrs t ~repo =
  locked t (fun () -> Hashtbl.find_opt t.declared repo)
  |> Option.value ~default:[]
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

(* An exec's two history keys, printed once: the exact key (repository
   and printed expression) and the close key (repository and skeleton). *)
type key = {
  k_repo : string;
  k_expr : Expr.expr;
  k_printed : string;
  k_exact : string;
  k_close : string;
}

let key ~repo e =
  let printed = Expr.to_string e in
  {
    k_repo = repo;
    k_expr = e;
    k_printed = printed;
    k_exact = repo ^ "|" ^ printed;
    k_close = repo ^ "|" ^ skeleton e;
  }

let printed k = k.k_printed

(* [Hashtbl.find] raises a preallocated [Not_found], so finding a
   recorded key allocates nothing. *)
let ring_in table key =
  match Hashtbl.find table key with
  | r -> r
  | exception Not_found ->
      let r = fresh_ring () in
      Hashtbl.replace table key r;
      r

let push t r ~time ~count =
  let cap = Array.length r.times in
  if r.len = cap && cap < t.history then (
    (* nothing was overwritten yet, so slots [0, len) hold the
       observations oldest first *)
    let grown = if cap = 0 then 1 else t.history in
    let grow a fill =
      let b = Array.make grown fill in
      Array.blit a 0 b 0 cap;
      b
    in
    r.times <- grow r.times 0.0;
    r.counts <- grow r.counts 0;
    r.next <- r.len);
  let cap = Array.length r.times in
  r.times.(r.next) <- time;
  r.counts.(r.next) <- count;
  r.next <- (r.next + 1) mod cap;
  r.len <- min (r.len + 1) cap

(* The slot of a ring's [i]th most recent observation. *)
let slot r i =
  let cap = Array.length r.times in
  (r.next - 1 - i + cap) mod cap

(* Every exec records here, so the lock is taken without a closure. *)
let record_key t k ~time_ms ~rows =
  Mutex.lock t.lock;
  push t (Lru.find_or_add t.exact k.k_exact fresh_ring) ~time:time_ms ~count:rows;
  push t (ring_in t.close k.k_close) ~time:time_ms ~count:rows;
  Mutex.unlock t.lock

let record t ~repo ~expr ~time_ms ~rows =
  record_key t (key ~repo expr) ~time_ms ~rows

(* Exponential smoothing, most recent first: the newest call has weight
   alpha, the next alpha*(1-alpha), etc., renormalized over the window. *)
let smooth t r =
  let alpha = t.smoothing in
  let w = ref alpha and wsum = ref 0.0 and tsum = ref 0.0 and rsum = ref 0.0 in
  for i = 0 to r.len - 1 do
    let j = slot r i in
    wsum := !wsum +. !w;
    tsum := !tsum +. (!w *. r.times.(j));
    rsum := !rsum +. (!w *. float_of_int r.counts.(j));
    w := !w *. (1.0 -. alpha)
  done;
  (!tsum /. !wsum, !rsum /. !wsum)

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

(* The one estimate path, from the exec's keys when they were made
   ([key]) and otherwise printing them here, the skeleton only when the
   exact history is empty. *)
let lookup t ~repo expr key =
  let exact =
    match key with Some k -> k.k_exact | None -> repo ^ "|" ^ Expr.to_string expr
  in
  match Lru.find t.exact exact with
  | Some r ->
      let time, rows = smooth t r in
      { est_time_ms = time; est_rows = rows; est_basis = Exact r.len }
  | None when t.close_matching -> (
      let close =
        match key with Some k -> k.k_close | None -> repo ^ "|" ^ skeleton expr
      in
      match Hashtbl.find_opt t.close close with
      | Some r ->
          let time, rows = smooth t r in
          { est_time_ms = time; est_rows = rows; est_basis = Close r.len }
      | None -> uninformed t ~repo expr)
  | None -> uninformed t ~repo expr

let estimate t ~repo expr = locked t (fun () -> lookup t ~repo expr None)

let estimate_key t k =
  locked t (fun () -> lookup t ~repo:k.k_repo k.k_expr (Some k))

let record_batch t ~repo ~size ~time_ms =
  if size < 1 then invalid_arg "Cost_model.record_batch: size must be >= 1";
  locked t (fun () -> push t (ring_in t.batch repo) ~time:time_ms ~count:size)

(* Calibrate the batched round-trip the same way Section 3.3 calibrates
   single calls: from recorded (size, time) pairs, fit
   [time = overhead + marginal * size] by least squares.  With a single
   observed size the slope is unidentifiable, so fall back to scaling the
   mean time by size — pessimistic (it re-charges the overhead per call)
   but monotone, and it self-corrects once a second size is observed. *)
let estimate_batch t ~repo ~size =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.batch repo with
  | None -> None
  | Some r ->
      let n = float_of_int r.len in
      let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
      for i = 0 to r.len - 1 do
        let j = slot r i in
        let x = float_of_int r.counts.(j) and y = r.times.(j) in
        sx := !sx +. x;
        sy := !sy +. y;
        sxx := !sxx +. (x *. x);
        sxy := !sxy +. (x *. y)
      done;
      let sx = !sx and sy = !sy and sxx = !sxx and sxy = !sxy in
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
  locked t (fun () -> Lru.fold (fun _ r acc -> acc + r.len) t.exact 0)

let clear t =
  (* observations only: index declarations are DDL, not history *)
  locked t (fun () ->
      Lru.clear t.exact;
      Hashtbl.reset t.close;
      Hashtbl.reset t.batch)
