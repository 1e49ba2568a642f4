(* Seeded input generation: Zipf draws and the OQL texts of every
   workload. The program under test only ever sees the generated text;
   [touched] tells the correctness checks which sources a query reads
   ([None]: every source of the federation). *)

type query = { text : string; touched : int list option }

let rng ~seed ~salt = Random.State.make [| seed; salt |]
let int r lo hi = lo + Random.State.int r (hi - lo + 1)
let pick r arr = arr.(Random.State.int r (Array.length arr))

let rec two_distinct r n =
  let a = Random.State.int r n and b = Random.State.int r n in
  if a = b then two_distinct r n else (a, b)

let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* The salaries of a table of [n] rows: spread evenly over 10..500, in a
   seeded order. Every table of every seed holds the same salaries, so a
   salary predicate selects as many rows whatever the seed. *)
let spread_salaries ~seed ~n = shuffle (rng ~seed ~salt:8) (Array.init n (fun j -> 10 + (j * 491 / n)))

(* -- Zipf(s) over ranks 0..n-1: rank k has weight 1 / (k+1)^s -- *)

type zipf = float array (* cumulative distribution *)

let zipf ~s ~n : zipf =
  if n < 1 then invalid_arg "Gen.zipf: n must be positive";
  let w = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw (z : zipf) r =
  let u = Random.State.float r 1.0 in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if u <= z.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length z - 1)

(* How often each rank comes up in [block] draws: its expected count,
   with the rounding remainders handed to the largest fractions, so the
   counts sum to [block]. *)
let zipf_counts (z : zipf) ~block =
  let n = Array.length z in
  let expected k = (z.(k) -. if k = 0 then 0.0 else z.(k - 1)) *. float_of_int block in
  let counts = Array.init n (fun k -> int_of_float (expected k)) in
  let frac k = expected k -. float_of_int counts.(k) in
  let missing = block - Array.fold_left ( + ) 0 counts in
  List.iteri
    (fun i k -> if i < missing then counts.(k) <- counts.(k) + 1)
    (List.stable_sort (fun a b -> Float.compare (frac b) (frac a)) (List.init n Fun.id));
  counts

(* Ranks in blocks of [block]: each block holds every rank exactly its
   [zipf_counts] times, in a seeded order. Every block of every seed has
   the same mix, so the seed cannot change how much work a block does. *)
let zipf_blocks (z : zipf) ~block r =
  let counts = zipf_counts z ~block in
  let ranks = Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts)) in
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !cur then begin
      cur := shuffle r ranks;
      pos := 0
    end;
    incr pos;
    !cur.(!pos - 1)

(* Draw texts from [make] until one is new; the stream of a seed never
   repeats a text. *)
let fresh seen make r =
  let rec go () =
    let q = make r in
    if Hashtbl.mem seen q.text then go ()
    else (
      Hashtbl.add seen q.text ();
      q)
  in
  go ()

let one i = Some [ i ]
let pair i j = Some [ i; j ]

(* -- hot_repeat: 16 sources of 100 rows (ids 0..99, the salaries of
   [spread_salaries]) and the view [highpaid]. Twelve selective texts in
   fixed rank order. Salary bounds are fixed, or only slide a narrow
   range along the evenly spread salaries; the seed picks extents, keys
   and offsets. So every seed's texts return as many rows. -- *)

let hot_sources = 16
let hot_rows = 100
let hot_view = ("highpaid", "select x from x in person where x.salary > 450")

let hot_pool ~seed =
  let r = rng ~seed ~salt:1 in
  let seen = Hashtbl.create 16 in
  let src () = Random.State.int r hot_sources in
  let templates =
    [
      (fun r ->
        let a = src () in
        { text = Printf.sprintf "select x.name from x in person%d where x.id = %d" a (int r 0 99);
          touched = one a });
      (fun r ->
        let a = src () and lo = int r 10 480 in
        { text =
            Printf.sprintf
              "select x.name from x in person%d where x.salary >= %d and x.salary < %d"
              a lo (lo + 10);
          touched = one a });
      (fun r ->
        { text = Printf.sprintf "select x from x in person where x.id = %d" (int r 0 99);
          touched = None });
      (fun r ->
        let a, b = two_distinct r hot_sources in
        { text =
            Printf.sprintf
              "select struct(a: x.name, b: y.name) from x in person%d, y in person%d \
               where x.id = y.id and x.salary > 445"
              a b;
          touched = pair a b });
      (fun _ ->
        { text = "select h.name from h in highpaid where h.salary < 470"; touched = None });
      (fun r ->
        (* a distinct over one extent alone is pushed whole into SQL and
           comes back as a bag instead of a set, so the union form *)
        let a, b = two_distinct r hot_sources in
        { text =
            Printf.sprintf
              "select distinct x.salary from x in union(person%d, person%d) where x.salary < 42"
              a b;
          touched = pair a b });
      (fun r ->
        let a = src () in
        { text = Printf.sprintf "select x.salary from x in person%d where x.id = %d" a (int r 0 99);
          touched = one a });
      (fun r ->
        let a = src () and k = int r 0 94 in
        { text =
            Printf.sprintf "select x from x in person%d where x.id >= %d and x.id < %d" a k (k + 5);
          touched = one a });
      (fun _ ->
        { text = "select distinct x.name from x in person where x.salary > 490"; touched = None });
      (fun r ->
        let a, b = two_distinct r hot_sources in
        { text =
            Printf.sprintf
              "select struct(n: x.name, s: y.salary) from x in person%d, y in person%d \
               where x.id = y.id and y.salary < 58"
              a b;
          touched = pair a b });
      (fun _ -> { text = "select h.id from h in highpaid where h.salary > 477"; touched = None });
      (fun r ->
        let a = src () and lo = int r 10 480 in
        { text =
            Printf.sprintf
              "select struct(i: x.id, s: x.salary) from x in person%d where x.salary > %d \
               and x.salary <= %d"
              a lo (lo + 8);
          touched = one a });
    ]
  in
  Array.of_list (List.map (fun make -> fresh seen make r) templates)

(* -- cold_adhoc: 32 sources of 200 rows behind four wrapper kinds, plus
   the view [richp]. The stream cycles through 20 slots: 9 selections of
   1-3 conjuncts, 5 two-extent joins, 4 selections on the view, and 2
   aggregates, one over a source and one over the view (outside the
   algebraic subset, so the mediator's hybrid path runs them). A slot and
   its cycle fix the query's shape, the wrapper kind behind each extent it
   names, and where each constant falls in its column's range; the seed
   picks the extents among the sources of that kind and moves each
   constant a little. So every seed's cycles do about the same work, which
   a random mix of shapes, wrappers and selectivities would not. The range
   variables are named after the query's position in the stream, so no
   text repeats. -- *)

let cold_sources = 32
let cold_rows = 200
let cold_view = ("richp", "select x from x in person where x.salary > 300")
let cold_cycle = 20
let cold_slots = "SJSVSJSASVSJSVSJVASJ"

(* The sources come in [cold_kinds] runs of equal length, one per
   wrapper kind: sources 0-7 behind the first kind, 8-15 the second, and
   so on. *)
let cold_kinds = 4

let kind_source r kind =
  let per = cold_sources / cold_kinds in
  (kind mod cold_kinds * per) + Random.State.int r per

(* A conjunct on [var] of one of six shapes; [at] is where its constant
   falls in the column's range, in percent. *)
let conjunct r var ~shape ~at =
  let salary () = 10 + (at * 49 / 10) + int r (-10) 10 in
  let id () = max 0 ((at * 2) + int r (-4) 4) in
  match shape mod 6 with
  | 0 -> Printf.sprintf "%s.salary > %d" var (salary ())
  | 1 -> Printf.sprintf "%s.salary < %d" var (salary ())
  | 2 -> Printf.sprintf "%s.salary >= %d" var (salary ())
  | 3 -> Printf.sprintf "%s.id < %d" var (id ())
  | 4 -> Printf.sprintf "%s.id >= %d" var (id ())
  | _ -> Printf.sprintf "%s.id = %d" var (id ())

(* The query at position [k] of the stream. *)
let cold_query r k =
  let c = k / cold_cycle and j = k mod cold_cycle in
  let conjuncts var n =
    String.concat " and "
      (List.init n (fun i ->
           conjunct r var ~shape:(j + (2 * i) + c) ~at:(((j * 37) + (i * 53) + (c * 17)) mod 100)))
  in
  let x = Printf.sprintf "x%d" k and y = Printf.sprintf "y%d" k and v = Printf.sprintf "v%d" k in
  let agg = [| "count"; "sum"; "max"; "min" |].((j + c) mod 4) in
  (* the wrapper kind of the (first) extent, paired differently with the
     projection from one cycle to the next *)
  let kind = j + (2 * c) + 1 in
  match cold_slots.[j] with
  | 'S' ->
      let a = kind_source r kind in
      let proj =
        match (j + c) mod 4 with
        | 0 -> x ^ ".name"
        | 1 -> x
        | 2 -> Printf.sprintf "struct(n: %s.name, s: %s.salary)" x x
        | _ -> x ^ ".id"
      in
      { text =
          Printf.sprintf "select %s from %s in person%d where %s" proj x a
            (conjuncts x (1 + ((j + c) mod 3)));
        touched = one a }
  | 'J' ->
      let a = kind_source r kind in
      let b = kind_source r (kind + 1 + (c mod (cold_kinds - 1))) in
      { text =
          Printf.sprintf
            "select struct(a: %s.name, b: %s.salary) from %s in person%d, %s in person%d where \
             %s.id = %s.id and %s"
            x y x a y b x y (conjuncts x 1);
        touched = pair a b }
  | 'V' ->
      let proj = match (j + c) mod 3 with 0 -> v ^ ".name" | 1 -> v ^ ".id" | _ -> v in
      { text =
          Printf.sprintf "select %s from %s in richp where %s" proj v
            (conjuncts v (1 + ((j + c) mod 2)));
        touched = None }
  | _ when j < cold_cycle / 2 ->
      let a = kind_source r kind in
      { text =
          Printf.sprintf "%s(select %s.salary from %s in person%d where %s)" agg x x a
            (conjuncts x 1);
        touched = one a }
  | _ ->
      { text =
          Printf.sprintf "%s(select %s.salary from %s in richp where %s)" agg v v (conjuncts v 1);
        touched = None }

let cold_stream ~seed =
  let r = rng ~seed ~salt:2 in
  let k = ref (-1) in
  fun () ->
    incr k;
    cold_query r !k

(* -- bulk_churn: 8 sources of 20,000 rows. Reads come from a fixed pool
   of 36 range scans, 12 point lookups and 6 joins, walked over and over
   in one order, so every text runs equally often and plans are cached
   after the first walk. Every tenth operation is a write of 50 rows to
   one source: 60% ranges, 20% points, 10% joins, 10% writes. The pool's
   ranges, the extent each text reads and the order are the same for
   every seed; the seed picks the lookup keys, the join offsets and the
   written salaries, besides the tables' data. -- *)

let bulk_sources = 8
let bulk_rows = 20_000
let bulk_write_rows = 50

type bulk_op = Read of query | Write of { src : int; salaries : int array }

let bulk_pool ~seed =
  let r = rng ~seed ~salt:3 in
  let seen = Hashtbl.create 64 in
  let projections = [| "x"; "x.name"; "struct(i: x.id, s: x.salary)" |] in
  (* range [k] returns 1-10% of the rows: widths 5..49 salary units, at
     offsets spread over the salary domain. The offset is fixed too: a
     range is served from the sorted index by its lower bound alone, so
     its cost follows the rows above [lo], not its width. *)
  let range k _ =
    let a = k mod bulk_sources in
    let w = 5 + (k * 44 / 35) in
    let lo = 10 + (k * 137 mod (491 - w)) in
    { text =
        Printf.sprintf "select %s from x in person%d where x.salary >= %d and x.salary < %d"
          projections.(k mod Array.length projections)
          a lo (lo + w);
      touched = one a }
  in
  let point k r =
    let a = k * 3 mod bulk_sources in
    { text =
        Printf.sprintf "select x.name from x in person%d where x.id = %d" a
          (int r 0 (bulk_rows - 1));
      touched = one a }
  in
  let join k r =
    let a = k mod bulk_sources in
    let b = (a + 1 + (k mod (bulk_sources - 1))) mod bulk_sources in
    let lo = int r 0 (bulk_rows - 50) in
    { text =
        Printf.sprintf
          "select struct(a: x.name, b: y.salary) from x in (select p from p in person%d \
           where p.id >= %d and p.id < %d), y in (select q from q in person%d where q.id \
           >= %d and q.id < %d) where x.id = y.id"
          a lo (lo + 50) b lo (lo + 50);
      touched = pair a b }
  in
  let make n f = Array.init n (fun k -> fresh seen (f k) r) in
  Array.concat [ make 36 range; make 12 point; make 6 join ]

(* Operations in one pass over the pool, writes included. *)
let bulk_pass = 60

(* Every walk reads the pool in one order, the same for every seed, and
   the writes go to the sources in turn, so which read pays for the index
   rebuild after a write does not depend on the seed either. *)
let bulk_stream ~seed =
  let pool = bulk_pool ~seed in
  let order = shuffle (rng ~seed:0 ~salt:4) (Array.init (Array.length pool) Fun.id) in
  let r = rng ~seed ~salt:4 in
  let pos = ref 0 and k = ref 0 and writes = ref 0 in
  fun () ->
    incr k;
    if !k mod 10 = 0 then begin
      incr writes;
      Write
        { src = !writes mod bulk_sources;
          salaries = Array.init bulk_write_rows (fun _ -> int r 10 500) }
    end
    else begin
      if !pos >= Array.length pool then pos := 0;
      incr pos;
      Read pool.(order.(!pos - 1))
    end

(* -- serve_zipf: discoctl's default 4-query pool (ranks 0-3) plus four
   selective texts over its 8-source, 200-row demo federation. -- *)

let serve_sources = 8
let serve_rows = 200

let serve_defaults =
  [|
    "select x.name from x in person where x.salary > 10";
    "select x.name from x in person";
    "select x from x in person where x.id < 5";
    "select x.salary from x in person where x.salary < 40";
  |]

let serve_pool ~seed =
  let r = rng ~seed ~salt:5 in
  let a, b = two_distinct r serve_sources in
  Array.append serve_defaults
    [|
      Printf.sprintf "select x.name from x in person where x.id = %d" (int r 0 199);
      Printf.sprintf "select x from x in person%d where x.salary > %d"
        (Random.State.int r serve_sources) (int r 470 495);
      Printf.sprintf "select x.salary from x in person%d where x.id = %d"
        (Random.State.int r serve_sources) (int r 0 199);
      Printf.sprintf
        "select struct(a: x.name, b: y.salary) from x in person%d, y in person%d where \
         x.id = y.id and x.salary > %d"
        a b (int r 450 490);
    |]
