module V = Disco_value.Value
module Database = Disco_relation.Database
module Sql = Disco_relation.Sql

type address = {
  host : string;
  db_name : string;
  ip : string;
  maintainer : string option;
  cost_hint : float option;
}

let address ?maintainer ?cost_hint ~host ~db_name ~ip () =
  { host; db_name; ip; maintainer; cost_hint }

type latency = { base_ms : float; per_row_ms : float; jitter : float }

let default_latency = { base_ms = 5.0; per_row_ms = 0.01; jitter = 0.1 }

type kind =
  | Relational of Database.t
  | Key_value of (string, V.t) Hashtbl.t
  | Flat_file of V.t list ref
  | Text of Text_index.t

type stats = {
  calls_answered : int;
  calls_refused : int;
  calls_timed_out : int;
  rows_shipped : int;
  busy_ms : float;
}

let zero_stats =
  {
    calls_answered = 0;
    calls_refused = 0;
    calls_timed_out = 0;
    rows_shipped = 0;
    busy_ms = 0.0;
  }

type t = {
  id : string;
  addr : address;
  kind : kind;
  latency : latency;
  mutable schedule : Schedule.t;
  stats : stats Atomic.t;
  call_counter : int Atomic.t;  (* drives deterministic jitter *)
  mutable kv_version : int;  (* mutations of kv / flat-file stores *)
}

let create ~id ~address ?(latency = default_latency)
    ?(schedule = Schedule.always_up) kind =
  {
    id;
    addr = address;
    kind;
    latency;
    schedule;
    stats = Atomic.make zero_stats;
    call_counter = Atomic.make 0;
    kv_version = 0;
  }

let id t = t.id
let addr t = t.addr
let kind t = t.kind
let schedule t = t.schedule
let set_schedule t s = t.schedule <- s
let is_up t time = Schedule.is_up t.schedule time

let data_version t =
  match t.kind with
  | Relational db -> Database.version db
  | Text idx -> Text_index.version idx
  | Key_value _ | Flat_file _ -> t.kv_version

let exec_sql t q =
  match t.kind with
  | Relational db -> Sql.run db q
  | Key_value _ | Flat_file _ | Text _ ->
      raise (Sql.Sql_error (Fmt.str "source %s is not relational" t.id))

let kv_table t =
  match t.kind with
  | Key_value tbl -> tbl
  | Relational _ | Flat_file _ | Text _ ->
      invalid_arg (Fmt.str "source %s is not a key-value store" t.id)

let kv_get t key = Hashtbl.find_opt (kv_table t) key

let kv_put t key v =
  Hashtbl.replace (kv_table t) key v;
  t.kv_version <- t.kv_version + 1

let kv_scan t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (kv_table t) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let file_store t =
  match t.kind with
  | Flat_file records -> records
  | Relational _ | Key_value _ | Text _ ->
      invalid_arg (Fmt.str "source %s is not a flat file" t.id)

let file_append t v =
  let store = file_store t in
  store := v :: !store;
  t.kv_version <- t.kv_version + 1

let file_records t = List.rev !(file_store t)

type 'a outcome = Answered of 'a * float | Unavailable | Timed_out of float

(* Deterministic jitter in [0, jitter] as a fraction of the nominal
   latency, derived from the call's number at this source. *)
let jitter_fraction t n =
  let h = Hashtbl.hash (t.id, n, 0xD15C0) in
  t.latency.jitter *. (float_of_int (h land 0xFFFF) /. 65536.0)

(* Calls to one source may run on several domains at once: the counter
   and the stats are atomics, so none is lost and each call draws its own
   number. *)
let rec add_stats t ~answered ~refused ~timed_out ~rows ~busy_ms =
  let s = Atomic.get t.stats in
  let s' =
    {
      calls_answered = s.calls_answered + answered;
      calls_refused = s.calls_refused + refused;
      calls_timed_out = s.calls_timed_out + timed_out;
      rows_shipped = s.rows_shipped + rows;
      busy_ms = s.busy_ms +. busy_ms;
    }
  in
  if not (Atomic.compare_and_set t.stats s s') then
    add_stats t ~answered ~refused ~timed_out ~rows ~busy_ms

let call_at t ~now ?deadline f =
  let issue_time = now in
  let n = Atomic.fetch_and_add t.call_counter 1 + 1 in
  if not (is_up t issue_time) then (
    add_stats t ~answered:0 ~refused:1 ~timed_out:0 ~rows:0 ~busy_ms:0.0;
    Unavailable)
  else
    let payload, rows = f () in
    let nominal =
      t.latency.base_ms +. (t.latency.per_row_ms *. float_of_int rows)
    in
    let elapsed =
      nominal *. (1.0 +. jitter_fraction t n)
      *. Schedule.latency_factor t.schedule issue_time
    in
    let completion = issue_time +. elapsed in
    match deadline with
    | Some d when completion > d ->
        (* the source did the work even though the answer arrives too
           late — its time is spent and the outcome is a timeout, not a
           refusal *)
        add_stats t ~answered:0 ~refused:0 ~timed_out:1 ~rows:0
          ~busy_ms:elapsed;
        Timed_out completion
    | _ ->
        add_stats t ~answered:1 ~refused:0 ~timed_out:0 ~rows ~busy_ms:elapsed;
        Answered (payload, completion)

let call t ~clock ?deadline f = call_at t ~now:(Clock.now clock) ?deadline f

let stats t = Atomic.get t.stats
let reset_stats t = Atomic.set t.stats zero_stats

let pp ppf t =
  let kind_name =
    match t.kind with
    | Relational _ -> "relational"
    | Key_value _ -> "key-value"
    | Flat_file _ -> "flat-file"
    | Text _ -> "text"
  in
  Fmt.pf ppf "source %s (%s at %s/%s, %a)" t.id kind_name t.addr.host
    t.addr.db_name Schedule.pp t.schedule
