module Expr = Disco_algebra.Expr

type symbol = T of string | N of string
type production = { lhs : string; rhs : symbol list }

(* The verdicts [accepts] has recorded for one grammar value, keyed on
   the token string. The map is immutable and published whole by
   compare-and-set, so readers on any domain or thread see a consistent
   snapshot without a lock. *)
module Verdicts = Map.Make (struct
  type t = string list

  let compare = List.compare String.compare
end)

type verdicts = { known : bool Verdicts.t; entries : int }
type memo = verdicts Atomic.t
type t = { start : string; productions : production list; memo : memo }

let memo_bound = 1024

let equal a b =
  a == b || (String.equal a.start b.start && a.productions = b.productions)

let pp_symbol ppf = function
  | T s -> Fmt.string ppf s
  | N s -> Fmt.string ppf s

let pp ppf g =
  List.iter
    (fun p ->
      Fmt.pf ppf "%s :- %a@\n" p.lhs
        (Fmt.list ~sep:Fmt.sp pp_symbol)
        p.rhs)
    g.productions

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let split_production line =
    match Str_split.split_on_substring ~sep:":-" line with
    | [ lhs; rhs ] ->
        ( String.trim lhs,
          String.split_on_char ' ' (String.trim rhs)
          |> List.filter (fun s -> s <> "") )
    | _ -> invalid_arg ("Grammar.parse: malformed production: " ^ line)
  in
  let raw = List.map split_production lines in
  let nonterminals = List.map fst raw in
  (* the terminal vocabulary [tokens_of_expr] can actually emit: operator
     names plus predicate connectives. Anything else lowercase on a rhs
     is a typo'd nonterminal — a silent one would make the production
     underivable forever, so reject it here. *)
  let operator_terminals =
    [
      "get"; "select"; "project"; "map"; "join"; "union"; "distinct";
      "like"; "and"; "or"; "not"; "member";
    ]
  in
  let symbol s =
    if List.mem s nonterminals then N s
    else
      let lowercase_name =
        s <> "" && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
      in
      if (not lowercase_name) || List.mem s operator_terminals then T s
      else
        invalid_arg
          (Printf.sprintf
             "Grammar.parse: %S is neither a defined nonterminal nor a \
              known terminal"
             s)
  in
  let productions =
    List.map (fun (lhs, rhs) -> { lhs; rhs = List.map symbol rhs }) raw
  in
  match productions with
  | [] -> invalid_arg "Grammar.parse: empty grammar"
  | first :: _ ->
      {
        start = first.lhs;
        productions;
        memo = Atomic.make { known = Verdicts.empty; entries = 0 };
      }

(* -- serialization -- *)

let cmp_token = function
  | Expr.Eq -> "="
  | Expr.Ne -> "!="
  | Expr.Lt -> "<"
  | Expr.Le -> "<="
  | Expr.Gt -> ">"
  | Expr.Ge -> ">="
  | Expr.Like -> "like"

(* Attributes serialize with their terminal field name —
   [ATTRIBUTE:salary] — so a grammar can advertise productions over
   specific attributes (an indexed wrapper names its indexed columns).
   The generic [ATTRIBUTE] terminal matches any of them (see
   [token_matches]), which keeps every attribute-agnostic grammar
   unchanged. *)
let attr_token path =
  match List.rev path with
  | [] -> "ATTRIBUTE"
  | field :: _ -> "ATTRIBUTE:" ^ field

let rec scalar_tokens = function
  | Expr.Attr path -> [ attr_token path ]
  | Expr.Const _ -> [ "CONST" ]
  | Expr.Arith (_, a, b) ->
      (* arithmetic collapses to one ARITH marker surrounding operands *)
      ("ARITH" :: scalar_tokens a) @ scalar_tokens b

let rec pred_tokens = function
  | Expr.True -> [ "CONST" ]
  | Expr.Cmp (op, a, b) -> scalar_tokens a @ [ cmp_token op ] @ scalar_tokens b
  | Expr.Member (a, _) -> scalar_tokens a @ [ "member"; "CONST" ]
  | Expr.And (a, b) -> pred_tokens a @ [ "and" ] @ pred_tokens b
  | Expr.Or (a, b) -> pred_tokens a @ [ "or" ] @ pred_tokens b
  | Expr.Not a -> "not" :: pred_tokens a

let head_tokens = function
  | Expr.Hscalar s -> scalar_tokens s
  | Expr.Hstruct fields ->
      List.concat
        (List.mapi
           (fun i (_, s) -> if i = 0 then scalar_tokens s else "COMMA" :: scalar_tokens s)
           fields)

let rec tokens_of_expr = function
  | Expr.Get _ -> [ "get"; "OPEN"; "SOURCE"; "CLOSE" ]
  | Expr.Data _ -> [ "CONST" ]
  | Expr.Select (e, p) ->
      [ "select"; "OPEN" ] @ pred_tokens p @ [ "COMMA" ] @ tokens_of_expr e
      @ [ "CLOSE" ]
  | Expr.Project (e, attrs) ->
      let attr_toks =
        List.concat
          (List.mapi
             (fun i a ->
               let t = attr_token [ a ] in
               if i = 0 then [ t ] else [ "COMMA"; t ])
             attrs)
      in
      [ "project"; "OPEN" ] @ attr_toks @ [ "COMMA" ] @ tokens_of_expr e
      @ [ "CLOSE" ]
  | Expr.Map (e, Expr.Hstruct [ (_, Expr.Attr []) ]) ->
      (* a pure bind (aliasing), distinguished from computed maps *)
      [ "BIND"; "OPEN" ] @ tokens_of_expr e @ [ "CLOSE" ]
  | Expr.Map (e, h) ->
      [ "map"; "OPEN" ] @ head_tokens h @ [ "COMMA" ] @ tokens_of_expr e
      @ [ "CLOSE" ]
  | Expr.Join (l, r, pairs) ->
      let pair_toks =
        List.concat
          (List.mapi
             (fun i (pl, pr) ->
               let eq = [ attr_token pl; "="; attr_token pr ] in
               if i = 0 then eq else "COMMA" :: eq)
             pairs)
      in
      [ "join"; "OPEN" ] @ tokens_of_expr l @ [ "COMMA" ] @ tokens_of_expr r
      @ (if pairs = [] then [] else "COMMA" :: pair_toks)
      @ [ "CLOSE" ]
  | Expr.Union es ->
      [ "union"; "OPEN" ]
      @ List.concat
          (List.mapi
             (fun i e ->
               if i = 0 then tokens_of_expr e else "COMMA" :: tokens_of_expr e)
             es)
      @ [ "CLOSE" ]
  | Expr.Distinct e -> [ "distinct"; "OPEN" ] @ tokens_of_expr e @ [ "CLOSE" ]
  | Expr.Submit (_, _) -> [ "SUBMIT" ]
(* nested submits never reach a wrapper; the token makes them unparseable *)

(* -- Earley recognition -- *)

(* The generic [ATTRIBUTE] terminal matches any named attribute token;
   a named terminal ([ATTRIBUTE:salary]) matches only itself. *)
let token_matches terminal tok =
  String.equal terminal tok
  || (String.equal terminal "ATTRIBUTE"
     && String.starts_with ~prefix:"ATTRIBUTE:" tok)

type item = { prod : production; dot : int; origin : int }

let derives g tokens =
  let tokens = Array.of_list tokens in
  let n = Array.length tokens in
  let chart = Array.make (n + 1) [] in
  let add k item =
    if not (List.mem item chart.(k)) then (
      chart.(k) <- item :: chart.(k);
      true)
    else false
  in
  let predict k nt =
    List.iter
      (fun p -> if p.lhs = nt then ignore (add k { prod = p; dot = 0; origin = k }))
      g.productions
  in
  (* seed *)
  predict 0 g.start;
  let rec process k =
    (* iterate until chart.(k) stops growing *)
    let changed = ref false in
    let items = chart.(k) in
    List.iter
      (fun item ->
        if item.dot < List.length item.prod.rhs then
          match List.nth item.prod.rhs item.dot with
          | N nt ->
              (* predictor *)
              List.iter
                (fun p ->
                  if p.lhs = nt then
                    if add k { prod = p; dot = 0; origin = k } then
                      changed := true)
                g.productions;
              (* completer for already-complete items starting at k
                 (nullable rules) *)
              List.iter
                (fun c ->
                  if
                    c.origin = k && c.dot = List.length c.prod.rhs
                    && c.prod.lhs = nt
                  then if add k { item with dot = item.dot + 1 } then changed := true)
                chart.(k)
          | T _ -> ()
        else
          (* completer: item is complete; advance items waiting on its lhs *)
          List.iter
            (fun waiting ->
              if waiting.dot < List.length waiting.prod.rhs then
                match List.nth waiting.prod.rhs waiting.dot with
                | N nt when nt = item.prod.lhs ->
                    if add k { waiting with dot = waiting.dot + 1 } then
                      changed := true
                | _ -> ())
            chart.(item.origin))
      items;
    if !changed then process k
  in
  process 0;
  let scan k =
    if k < n then
      List.iter
        (fun item ->
          if item.dot < List.length item.prod.rhs then
            match List.nth item.prod.rhs item.dot with
            | T t when token_matches t tokens.(k) ->
                ignore (add (k + 1) { item with dot = item.dot + 1 })
            | _ -> ())
        chart.(k)
  in
  for k = 0 to n - 1 do
    scan k;
    process (k + 1)
  done;
  List.exists
    (fun item ->
      item.prod.lhs = g.start
      && item.origin = 0
      && item.dot = List.length item.prod.rhs)
    chart.(n)

(* Record a verdict unless another asker got there first; a full memo
   starts again from this one entry. *)
let rec record memo tokens verdict =
  let seen = Atomic.get memo in
  if not (Verdicts.mem tokens seen.known) then
    let next =
      if seen.entries >= memo_bound then
        { known = Verdicts.singleton tokens verdict; entries = 1 }
      else
        {
          known = Verdicts.add tokens verdict seen.known;
          entries = seen.entries + 1;
        }
    in
    if not (Atomic.compare_and_set memo seen next) then
      record memo tokens verdict

let accepts g e =
  let tokens = tokens_of_expr e in
  match Verdicts.find_opt tokens (Atomic.get g.memo).known with
  | Some verdict -> verdict
  | None ->
      let verdict = derives g tokens in
      record g.memo tokens verdict;
      verdict

(* -- derivation coverage -- *)

let production_to_string p =
  p.lhs ^ " :- " ^ String.concat " " (List.map (function T t -> t | N n -> n) p.rhs)

let named_attributes g =
  let prefix = "ATTRIBUTE:" in
  let plen = String.length prefix in
  List.concat_map
    (fun p ->
      List.filter_map
        (function
          | T t when String.starts_with ~prefix t ->
              Some (String.sub t plen (String.length t - plen))
          | T _ | N _ -> None)
        p.rhs)
    g.productions
  |> List.sort_uniq String.compare

(* Which productions participate in a derivation? The Earley chart above
   keeps no back-pointers, so coverage is computed separately: a
   least-fixpoint derivability table over spans, then a top-down mark of
   every production usable in some derivation of the whole sentence.
   Grammars and sentences are tiny, so the cubic table is irrelevant. *)
let used_productions g sentence =
  let tokens = Array.of_list sentence in
  let n = Array.length tokens in
  let derivable : (string * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let d nt i j = Hashtbl.mem derivable (nt, i, j) in
  (* end positions reachable by deriving [syms] from position [i] *)
  let rec ends syms i =
    match syms with
    | [] -> [ i ]
    | T t :: rest ->
        if i < n && token_matches t tokens.(i) then ends rest (i + 1) else []
    | N nt :: rest ->
        List.init (n - i + 1) (fun k -> i + k)
        |> List.concat_map (fun j -> if d nt i j then ends rest j else [])
        |> List.sort_uniq compare
  in
  let spans syms i j = List.mem j (ends syms i) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun p ->
        for i = 0 to n do
          for j = i to n do
            if (not (d p.lhs i j)) && spans p.rhs i j then (
              Hashtbl.replace derivable (p.lhs, i, j) ();
              changed := true)
          done
        done)
      g.productions
  done;
  let used : (production, unit) Hashtbl.t = Hashtbl.create 16 in
  let visited : (string * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* [spans p.rhs i j] holding means some split derives the span; walk
     every valid split so each usable production is marked *)
  let rec visit nt i j =
    if not (Hashtbl.mem visited (nt, i, j)) then (
      Hashtbl.replace visited (nt, i, j) ();
      List.iter
        (fun p ->
          if p.lhs = nt && spans p.rhs i j then (
            Hashtbl.replace used p ();
            mark_rhs p.rhs i j))
        g.productions)
  and mark_rhs syms i j =
    match syms with
    | [] -> ()
    | T t :: rest ->
        if i < n && token_matches t tokens.(i) then mark_rhs rest (i + 1) j
    | N nt :: rest ->
        for k = i to j do
          if d nt i k && spans rest k j then (
            visit nt i k;
            mark_rhs rest k j)
        done
  in
  if d g.start 0 n then visit g.start 0 n;
  List.filter (Hashtbl.mem used) g.productions

(* -- standard grammars -- *)

let get_only =
  parse {|
    a :- get OPEN SOURCE CLOSE
  |}

let project_no_compose =
  parse
    {|
    a :- b
    a :- c
    b :- get OPEN SOURCE CLOSE
    c :- project OPEN attrs COMMA b CLOSE
    attrs :- ATTRIBUTE
    attrs :- ATTRIBUTE COMMA attrs
  |}

let select_pushdown ?(comparisons = [ "="; "!="; "<"; "<="; ">"; ">=" ]) () =
  let cmp_prods =
    comparisons
    |> List.map (fun c -> Fmt.str "cmp :- %s" c)
    |> String.concat "\n"
  in
  parse
    (Fmt.str
       {|
    a :- b
    a :- s
    b :- get OPEN SOURCE CLOSE
    s :- select OPEN pred COMMA b CLOSE
    pred :- operand cmp operand
    pred :- pred and pred
    pred :- pred or pred
    pred :- not pred
    pred :- CONST
    operand :- ATTRIBUTE
    operand :- CONST
    %s
  |}
       cmp_prods)

let full_relational =
  parse
    {|
    a :- b
    a :- select OPEN pred COMMA a CLOSE
    a :- project OPEN attrs COMMA a CLOSE
    a :- map OPEN heads COMMA a CLOSE
    a :- join OPEN a COMMA a CLOSE
    a :- join OPEN a COMMA a COMMA eqs CLOSE
    a :- distinct OPEN a CLOSE
    a :- BIND OPEN a CLOSE
    b :- get OPEN SOURCE CLOSE
    attrs :- ATTRIBUTE
    attrs :- ATTRIBUTE COMMA attrs
    heads :- scalar
    heads :- scalar COMMA heads
    scalar :- ATTRIBUTE
    scalar :- CONST
    scalar :- ARITH scalar scalar
    eqs :- ATTRIBUTE = ATTRIBUTE
    eqs :- ATTRIBUTE = ATTRIBUTE COMMA eqs
    pred :- operand cmp operand
    pred :- operand member CONST
    pred :- pred and pred
    pred :- pred or pred
    pred :- not pred
    pred :- CONST
    operand :- scalar
    cmp :- =
    cmp :- !=
    cmp :- <
    cmp :- <=
    cmp :- >
    cmp :- >=
    cmp :- like
  |}

let key_lookup =
  parse
    {|
    a :- b
    a :- select OPEN ATTRIBUTE = CONST COMMA b CLOSE
    b :- get OPEN SOURCE CLOSE
  |}

let indexed_lookup ?(eq = []) ?(range = []) () =
  (* Index advertisement: productions name the indexed attributes, so the
     grammar accepts exactly the filters the source can serve from an
     access path (plus whole scans), and nothing else. *)
  let dedup xs = List.sort_uniq String.compare xs in
  let eq = dedup eq and range = dedup range in
  let eq_prods a =
    [
      Fmt.str "pred :- ATTRIBUTE:%s = CONST" a;
      Fmt.str "pred :- CONST = ATTRIBUTE:%s" a;
    ]
  in
  let range_prods a =
    List.concat_map
      (fun op ->
        [
          Fmt.str "pred :- ATTRIBUTE:%s %s CONST" a op;
          Fmt.str "pred :- CONST %s ATTRIBUTE:%s" op a;
        ])
      [ "="; "<"; "<="; ">"; ">=" ]
  in
  let pred_prods =
    dedup (List.concat_map eq_prods eq @ List.concat_map range_prods range)
  in
  match pred_prods with
  | [] -> get_only
  | _ ->
      parse
        (Fmt.str
           {|
    a :- b
    a :- select OPEN pred COMMA b CLOSE
    b :- get OPEN SOURCE CLOSE
    pred :- pred and pred
    %s
  |}
           (String.concat "\n" pred_prods))
