type origin =
  | Source
  | Cache
  | Stale of float
  | Failover of string
  | Blocked

let origin_label = function
  | Source -> "source"
  | Cache -> "cache"
  | Stale _ -> "stale"
  | Failover _ -> "failover"
  | Blocked -> "blocked"

let pp_origin ppf = function
  | Source -> Fmt.string ppf "source"
  | Cache -> Fmt.string ppf "cache"
  | Stale age -> Fmt.pf ppf "stale(age %.1fms)" age
  | Failover repo -> Fmt.pf ppf "failover->%s" repo
  | Blocked -> Fmt.string ppf "blocked"

type exec = {
  x_repo : string;
  x_wrapper : string;
  x_expr : string;
  x_origin : origin;
  x_start_ms : float;
  x_elapsed_ms : float;
  x_tuples : int;
  x_rows : int;
  x_predicted_ms : float option;
  x_predicted_rows : float option;
  x_batch_id : int option;
  x_batch_size : int;
}

type attempt = {
  a_number : int;
  a_start_ms : float;
  a_elapsed_ms : float;
  a_outcome : string;
}

type span = {
  s_name : string;
  s_start_ms : float;
  s_elapsed_ms : float;
  s_meta : (string * string) list;
  s_exec : exec option;
  s_children : span list;
}

type trace = { t_query : string; t_root : span }
type sink = trace -> unit

(* -- builder -- *)

type frame = {
  f_name : string;
  f_start : float;
  mutable f_meta : (string * string) list; (* reversed *)
  mutable f_children : span list; (* reversed *)
}

type t = { b_query : string; mutable b_stack : frame list (* top first *) }

let frame name now = { f_name = name; f_start = now; f_meta = []; f_children = [] }

let make ~query ~now = { b_query = query; b_stack = [ frame "query" now ] }

let enter t ~now name = t.b_stack <- frame name now :: t.b_stack

let meta t k v =
  match t.b_stack with
  | f :: _ -> f.f_meta <- (k, v) :: f.f_meta
  | [] -> ()

let close f ~now =
  {
    s_name = f.f_name;
    s_start_ms = f.f_start;
    s_elapsed_ms = now -. f.f_start;
    s_meta = List.rev f.f_meta;
    s_exec = None;
    s_children = List.rev f.f_children;
  }

let leave t ~now =
  match t.b_stack with
  | f :: (parent :: _ as rest) ->
      parent.f_children <- close f ~now :: parent.f_children;
      t.b_stack <- rest
  | _ -> ()

let attempt_span a =
  {
    s_name = "retry";
    s_start_ms = a.a_start_ms;
    s_elapsed_ms = a.a_elapsed_ms;
    s_meta =
      [ ("attempt", string_of_int a.a_number); ("outcome", a.a_outcome) ];
    s_exec = None;
    s_children = [];
  }

let exec ?(attempts = []) t x =
  match t.b_stack with
  | f :: _ ->
      let leaf =
        {
          s_name = "exec";
          s_start_ms = x.x_start_ms;
          s_elapsed_ms = x.x_elapsed_ms;
          s_meta = [];
          s_exec = Some x;
          s_children = List.map attempt_span attempts;
        }
      in
      f.f_children <- leaf :: f.f_children
  | [] -> ()

let rec finish t ~now =
  match t.b_stack with
  | [ root ] -> { t_query = t.b_query; t_root = close root ~now }
  | _ :: _ :: _ ->
      leave t ~now;
      finish t ~now
  | [] -> { t_query = t.b_query; t_root = close (frame "query" now) ~now }

(* -- pretty printing -- *)

let pp_meta ppf = function
  | [] -> ()
  | kvs ->
      Fmt.pf ppf " {%a}"
        (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
        kvs

let pp_exec ppf x =
  Fmt.pf ppf "exec %s [%a] @@%.1f +%.1fms, %d tuples, %d rows" x.x_repo
    pp_origin x.x_origin x.x_start_ms x.x_elapsed_ms x.x_tuples x.x_rows;
  (match (x.x_predicted_ms, x.x_predicted_rows) with
  | Some ms, Some rows -> Fmt.pf ppf " (predicted %.1fms / %.0f rows)" ms rows
  | Some ms, None -> Fmt.pf ppf " (predicted %.1fms)" ms
  | None, _ -> ());
  (match x.x_batch_id with
  | Some id -> Fmt.pf ppf " [batch %d/%d]" id x.x_batch_size
  | None -> ());
  Fmt.pf ppf " :: %s <- %s" x.x_wrapper x.x_expr

let rec pp_span ~prefix ~last ppf sp =
  let branch = if last then "`- " else "|- " in
  let extend = if last then "   " else "|  " in
  (match sp.s_exec with
  | Some x -> Fmt.pf ppf "%s%s%a@." prefix branch pp_exec x
  | None ->
      Fmt.pf ppf "%s%s%s @@%.1f +%.1fms%a@." prefix branch sp.s_name
        sp.s_start_ms sp.s_elapsed_ms pp_meta sp.s_meta);
  let n = List.length sp.s_children in
  List.iteri
    (fun i child ->
      pp_span ~prefix:(prefix ^ extend) ~last:(i = n - 1) ppf child)
    sp.s_children

let pp ppf tr =
  Fmt.pf ppf "trace %S@." tr.t_query;
  pp_span ~prefix:"" ~last:true ppf tr.t_root

(* -- JSON export -- *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_string s =
  let b = Buffer.create (String.length s + 8) in
  buf_add_json_string b s;
  Buffer.contents b

let buf_add_float b f =
  (* fixed decimal notation keeps output deterministic and JSON-legal
     (no OCaml-style trailing dots or infinities) *)
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" f)
  else Buffer.add_string b (Printf.sprintf "%.6g" f)

let buf_add_field b first k =
  if not !first then Buffer.add_char b ',';
  first := false;
  buf_add_json_string b k;
  Buffer.add_char b ':'

let add_exec b x =
  Buffer.add_char b '{';
  let first = ref true in
  let str k v =
    buf_add_field b first k;
    buf_add_json_string b v
  in
  let num k v =
    buf_add_field b first k;
    buf_add_float b v
  in
  let int k v =
    buf_add_field b first k;
    Buffer.add_string b (string_of_int v)
  in
  str "repo" x.x_repo;
  str "wrapper" x.x_wrapper;
  str "expr" x.x_expr;
  str "origin" (origin_label x.x_origin);
  (match x.x_origin with
  | Stale age -> num "stale_age_ms" age
  | Failover repo -> str "failover_repo" repo
  | Source | Cache | Blocked -> ());
  num "start_ms" x.x_start_ms;
  num "elapsed_ms" x.x_elapsed_ms;
  int "tuples" x.x_tuples;
  int "rows" x.x_rows;
  (match x.x_predicted_ms with Some ms -> num "predicted_ms" ms | None -> ());
  (match x.x_predicted_rows with
  | Some rows -> num "predicted_rows" rows
  | None -> ());
  (match x.x_batch_id with
  | Some id ->
      int "batch_id" id;
      int "batch_size" x.x_batch_size
  | None -> ());
  Buffer.add_char b '}'

let rec add_span b sp =
  Buffer.add_char b '{';
  let first = ref true in
  buf_add_field b first "name";
  buf_add_json_string b sp.s_name;
  buf_add_field b first "start_ms";
  buf_add_float b sp.s_start_ms;
  buf_add_field b first "elapsed_ms";
  buf_add_float b sp.s_elapsed_ms;
  if sp.s_meta <> [] then (
    buf_add_field b first "meta";
    Buffer.add_char b '{';
    let mfirst = ref true in
    List.iter
      (fun (k, v) ->
        buf_add_field b mfirst k;
        buf_add_json_string b v)
      sp.s_meta;
    Buffer.add_char b '}');
  (match sp.s_exec with
  | Some x ->
      buf_add_field b first "exec";
      add_exec b x
  | None -> ());
  if sp.s_children <> [] then (
    buf_add_field b first "children";
    Buffer.add_char b '[';
    List.iteri
      (fun i child ->
        if i > 0 then Buffer.add_char b ',';
        add_span b child)
      sp.s_children;
    Buffer.add_char b ']');
  Buffer.add_char b '}'

let to_json tr =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"query\":";
  buf_add_json_string b tr.t_query;
  Buffer.add_string b ",\"root\":";
  add_span b tr.t_root;
  Buffer.add_char b '}';
  Buffer.contents b
