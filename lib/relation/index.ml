module V = Disco_value.Value

type kind = Hash | Sorted

let kind_name = function Hash -> "hash" | Sorted -> "sorted"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "hash" -> Some Hash
  | "sorted" | "range" | "btree" -> Some Sorted
  | _ -> None

let kind_supported kind ty =
  match (kind, ty) with
  | Hash, _ -> true
  | Sorted, (Schema.TInt | Schema.TFloat) -> true
  | Sorted, (Schema.TString | Schema.TBool) -> false

type op = Op_eq | Op_lt | Op_le | Op_gt | Op_ge

let serves kind op =
  match (kind, op) with
  | Sorted, _ | Hash, Op_eq -> true
  | Hash, (Op_lt | Op_le | Op_gt | Op_ge) -> false

(* Both kinds share one layout: every row id, the [nulls] NULL rows first
   in ascending order, then the other rows by key with ties in ascending
   id order. The key is the value on numeric columns, the dictionary
   code on string columns (whose codes keep their relative order across
   {!Column.filter}), false before true on boolean ones. The rows a
   comparison with a probe selects form one slice of [order]. *)
type t = { kind : kind; nulls : int; order : int array }

let key_compare col =
  match col.Column.payload with
  | Column.Ints a -> fun r1 r2 -> Int.compare a.(r1) a.(r2)
  | Column.Floats a -> fun r1 r2 -> Float.compare a.(r1) a.(r2)
  | Column.Bools b -> fun r1 r2 -> Char.compare (Bytes.get b r1) (Bytes.get b r2)
  | Column.Strings s -> fun r1 r2 -> Int.compare s.codes.(r1) s.codes.(r2)

(* Rows [from, length col) in index order, and how many are NULL. *)
let sorted_run col ~from =
  let n = Column.length col in
  let nulls = ref 0 in
  for r = from to n - 1 do
    if Column.is_null col r then incr nulls
  done;
  let run = Array.make (n - from) 0 in
  let i = ref 0 and j = ref !nulls in
  for r = from to n - 1 do
    if Column.is_null col r then (
      run.(!i) <- r;
      incr i)
    else (
      run.(!j) <- r;
      incr j)
  done;
  let keyed = Array.sub run !nulls (n - from - !nulls) in
  Array.stable_sort (key_compare col) keyed;
  Array.blit keyed 0 run !nulls (Array.length keyed);
  (!nulls, run)

let build kind col =
  let nulls, order = sorted_run col ~from:0 in
  { kind; nulls; order }

(* First position in [lo, hi) of [a] where [f] holds; [f] must be monotone
   (false then true) over the range. *)
let bsearch a lo hi f =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if f a.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let covers t col = Array.length t.order = Column.length col

(* Each appended row goes after the old rows whose key is not above its
   own: its id is larger than theirs. *)
let merge_appended t col =
  let old = t.order and n_old = Array.length t.order in
  let fresh_nulls, fresh = sorted_run col ~from:n_old in
  let order = Array.make (Column.length col) 0 in
  Array.blit old 0 order 0 t.nulls;
  Array.blit fresh 0 order t.nulls fresh_nulls;
  let cmp = key_compare col in
  let src = ref t.nulls and dst = ref (t.nulls + fresh_nulls) in
  for j = fresh_nulls to Array.length fresh - 1 do
    let r = fresh.(j) in
    let stop = bsearch old !src n_old (fun o -> cmp o r > 0) in
    Array.blit old !src order !dst (stop - !src);
    dst := !dst + (stop - !src);
    src := stop;
    order.(!dst) <- r;
    incr dst
  done;
  Array.blit old !src order !dst (n_old - !src);
  { t with nulls = t.nulls + fresh_nulls; order }

let extend t col = if covers t col then t else merge_appended t col

let remap t ids =
  let order = Array.make (Array.length t.order) 0 in
  let k = ref 0 and nulls = ref 0 in
  Array.iteri
    (fun pos r ->
      let r' = ids.(r) in
      if r' >= 0 then (
        order.(!k) <- r';
        incr k;
        if pos < t.nulls then incr nulls))
    t.order;
  { t with nulls = !nulls; order = Array.sub order 0 !k }

(* Sign of (row value - probe) on the non-NULL rows, following
   {!Disco_value.Value.numeric_compare}; [None] when the probe is not
   comparable with the column. A string absent from the dictionary equals
   no row: its comparator answers "above" everywhere, which is right for
   equality, the only operator a string column's index serves. *)
let probe_compare col probe =
  match (col.Column.payload, probe) with
  | Column.Ints a, V.Int k -> Some (fun r -> Int.compare a.(r) k)
  | Column.Ints a, V.Float f -> Some (fun r -> Float.compare (float_of_int a.(r)) f)
  | Column.Floats a, V.Float f -> Some (fun r -> Float.compare a.(r) f)
  | Column.Floats a, V.Int k ->
      let f = float_of_int k in
      Some (fun r -> Float.compare a.(r) f)
  | Column.Bools b, V.Bool x ->
      let c = if x then '\001' else '\000' in
      Some (fun r -> Char.compare (Bytes.get b r) c)
  | Column.Strings s, V.String str -> (
      match Column.code_of_opt col str with
      | Some code -> Some (fun r -> Int.compare s.codes.(r) code)
      | None -> Some (fun _ -> 1))
  | _ -> None

let interval t col op probe =
  let n = Array.length t.order in
  (* [lower, upper): the rows equal to the probe; rows before compare
     below it (NULL is below every value), rows after above it *)
  let bounds =
    match probe with
    | V.Null -> Some (0, t.nulls)
    | _ ->
        Option.map
          (fun cmp ->
            ( bsearch t.order t.nulls n (fun r -> cmp r >= 0),
              bsearch t.order t.nulls n (fun r -> cmp r > 0) ))
          (probe_compare col probe)
  in
  match bounds with
  | Some (lower, upper) when serves t.kind op ->
      Some
        (match op with
        | Op_eq -> (lower, upper)
        | Op_lt -> (0, lower)
        | Op_le -> (0, upper)
        | Op_gt -> (upper, n)
        | Op_ge -> (lower, n))
  | _ -> None

(* A small slice is sorted; a large one is marked on a bitmap of the
   row ids, which is read back in id order. *)
let rows t (lo, hi) =
  let k = hi - lo and n = Array.length t.order in
  if k <= 0 then [||]
  else if 64 * k < n then (
    let a = Array.sub t.order lo k in
    Array.stable_sort Int.compare a;
    a)
  else
    let marks = Bytes.make n '\000' in
    for p = lo to hi - 1 do
      Bytes.set marks t.order.(p) '\001'
    done;
    let a = Array.make k 0 and j = ref 0 in
    for r = 0 to n - 1 do
      if Bytes.get marks r = '\001' then (
        a.(!j) <- r;
        incr j)
    done;
    a
