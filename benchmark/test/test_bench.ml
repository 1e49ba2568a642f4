(* Unit tests of the benchmark's pure parts: order statistics, input
   generation, the rate ladder and the --compare verdicts. *)

open Disco_bench_kit

let floats = Alcotest.(list (float 1e-9))

(* -- tail percentiles -- *)

let test_tail_rule () =
  let xs n = List.init n float_of_int in
  Alcotest.(check bool) "p99 of 1000 has 10 beyond" true (Stats.tail (xs 1000) 0.99 <> None);
  Alcotest.(check bool) "p99 of 999 has 9 beyond" true (Stats.tail (xs 999) 0.99 = None);
  Alcotest.(check bool) "p95 of 200" true (Stats.tail (xs 200) 0.95 <> None);
  Alcotest.(check bool) "p95 of 199" true (Stats.tail (xs 199) 0.95 = None);
  Alcotest.(check (option (float 1e-9))) "nearest rank" (Some 989.0) (Stats.tail (xs 1000) 0.99);
  match Stats.tail_with_fallback (xs 500) [ 0.99; 0.95; 0.9 ] with
  | Some (p, v) ->
      Alcotest.(check (float 1e-9)) "falls back to p95" 0.95 p;
      Alcotest.(check (float 1e-9)) "p95 of 0..499" 474.0 v
  | None -> Alcotest.fail "expected a supported percentile"

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check floats "python quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-9)) "even median" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

(* -- input generation -- *)

let draws ~seed n =
  let z = Gen.zipf ~s:1.1 ~n:12 in
  let r = Gen.rng ~seed ~salt:6 in
  List.init n (fun _ -> Gen.draw z r)

let test_zipf () =
  Alcotest.(check (list int)) "same seed, same draws" (draws ~seed:3 500) (draws ~seed:3 500);
  Alcotest.(check bool) "another seed, other draws" true (draws ~seed:3 500 <> draws ~seed:4 500);
  let d = draws ~seed:5 20_000 in
  let count k = List.length (List.filter (( = ) k) d) in
  Alcotest.(check bool) "rank 0 most popular" true (count 0 > count 1 && count 1 > count 11);
  (* rank 0 has weight 1 / H(12, 1.1) ~ 0.355 *)
  let share = float_of_int (count 0) /. 20_000.0 in
  Alcotest.(check bool) "rank 0 share" true (share > 0.31 && share < 0.37);
  Alcotest.(check bool) "all ranks in range" true (List.for_all (fun k -> k >= 0 && k < 12) d)

let test_zipf_blocks () =
  let z = Gen.zipf ~s:1.1 ~n:12 in
  let counts = Gen.zipf_counts z ~block:1000 in
  Alcotest.(check int) "counts fill the block" 1000 (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "rank 0's expected share" 355 counts.(0);
  let blocks seed =
    let next = Gen.zipf_blocks z ~block:1000 (Gen.rng ~seed ~salt:6) in
    List.init 3 (fun _ -> List.init 1000 (fun _ -> next ()))
  in
  let tally block = Array.init 12 (fun k -> List.length (List.filter (( = ) k) block)) in
  List.iter
    (fun block -> Alcotest.(check (array int)) "every block has the same mix" counts (tally block))
    (blocks 3 @ blocks 4);
  Alcotest.(check bool) "same seed, same order" true (blocks 3 = blocks 3);
  Alcotest.(check bool) "another seed, another order" true (blocks 3 <> blocks 4)

let test_spread_salaries () =
  let sorted seed = List.sort compare (Array.to_list (Gen.spread_salaries ~seed ~n:200)) in
  Alcotest.(check (list int)) "every seed, the same salaries" (sorted 1) (sorted 2);
  Alcotest.(check bool) "within 10..500" true
    (List.for_all (fun s -> s >= 10 && s <= 500) (sorted 1));
  Alcotest.(check bool) "in a seeded order" true
    (Gen.spread_salaries ~seed:1 ~n:200 <> Gen.spread_salaries ~seed:2 ~n:200)

let texts qs = List.map (fun q -> q.Gen.text) qs

let cold ~seed n =
  let next = Gen.cold_stream ~seed in
  List.init n (fun _ -> next ())

let test_templates_deterministic () =
  Alcotest.(check (list string)) "hot pool"
    (texts (Array.to_list (Gen.hot_pool ~seed:9)))
    (texts (Array.to_list (Gen.hot_pool ~seed:9)));
  Alcotest.(check (list string)) "cold stream" (texts (cold ~seed:9 300)) (texts (cold ~seed:9 300));
  let bulk seed = texts (Array.to_list (Gen.bulk_pool ~seed)) in
  Alcotest.(check (list string)) "bulk pool" (bulk 9) (bulk 9);
  Alcotest.(check (list string)) "serve pool"
    (Array.to_list (Gen.serve_pool ~seed:9))
    (Array.to_list (Gen.serve_pool ~seed:9));
  Alcotest.(check bool) "seeds differ" true (texts (cold ~seed:9 50) <> texts (cold ~seed:10 50))

let parses text =
  match Disco_oql.Parser.parse text with
  | _ -> true
  | exception Disco_lex.Lexer.Error (m, pos) ->
      Alcotest.failf "%s does not parse: %s at %d" text m pos

let test_cold_unique_and_parse () =
  let ts = texts (cold ~seed:17 2000) in
  Alcotest.(check int) "no text repeats" 2000 (List.length (List.sort_uniq compare ts));
  Alcotest.(check bool) "every text parses" true (List.for_all parses ts);
  let others =
    texts (Array.to_list (Gen.hot_pool ~seed:17))
    @ texts (Array.to_list (Gen.bulk_pool ~seed:17))
    @ Array.to_list (Gen.serve_pool ~seed:17)
  in
  Alcotest.(check bool) "every pool text parses" true (List.for_all parses others);
  Alcotest.(check int) "hot pool is 12 distinct texts" 12
    (List.length (List.sort_uniq compare (texts (Array.to_list (Gen.hot_pool ~seed:17)))))

(* The wrapper kind behind each extent a cold query names depends on its
   position in the stream, not on the seed. *)
let test_cold_kinds () =
  let kinds seed =
    List.map
      (fun q ->
        Option.map (List.map (fun i -> i * Gen.cold_kinds / Gen.cold_sources)) q.Gen.touched)
      (cold ~seed 200)
  in
  Alcotest.(check (list (option (list int)))) "same kinds for every seed" (kinds 1) (kinds 2);
  Alcotest.(check bool) "extents differ" true
    (List.map (fun q -> q.Gen.touched) (cold ~seed:1 200)
    <> List.map (fun q -> q.Gen.touched) (cold ~seed:2 200))

(* -- the ladder -- *)

(* A queue whose latency grows as the offered rate nears 200/s: 10 ms
   idle, 50 ms at 160/s. *)
let latency rate = 10.0 /. (1.0 -. (rate /. 200.0))
let meets rate = rate < 200.0 && latency rate <= 50.0

let test_ladder () =
  let best, steps = Stats.ladder ~start:100.0 meets in
  Alcotest.(check bool) "at or below the knee" true (best <= 160.0);
  Alcotest.(check bool) "within the bisection's resolution" true
    (best > 160.0 /. Float.pow 1.25 (1.0 /. 8.0));
  Alcotest.(check bool) "every passing step meets the limit" true
    (List.for_all (fun (r, ok) -> ok = meets r) steps);
  (* 100, 125, 156.25, 195.3 (fail), then 3 bisections *)
  Alcotest.(check int) "steps" 7 (List.length steps);
  let best, _ = Stats.ladder ~start:300.0 meets in
  Alcotest.(check (float 0.0)) "first step fails" 0.0 best;
  let best, steps = Stats.ladder ~start:100.0 (fun _ -> true) in
  Alcotest.(check (float 1e-6)) "ladder top" (100.0 *. Float.pow 1.25 11.0) best;
  Alcotest.(check int) "climb steps" 12 (List.length steps)

(* -- --compare verdicts -- *)

let noisy ~seed ~base ~spread n =
  let r = Random.State.make [| seed |] in
  List.init n (fun _ -> base *. (1.0 +. ((Random.State.float r 2.0 -. 1.0) *. spread)))

let verdict ~better ~bound parent change =
  Stats.verdict_name (Stats.verdict ~better ~bound ~parent ~change)

let test_verdicts () =
  let parent = noisy ~seed:1 ~base:10.0 ~spread:0.02 12 in
  let check name expected got = Alcotest.(check string) name expected got in
  check "clear gain" "improved"
    (verdict ~better:Stats.Lower ~bound:0.1 parent (noisy ~seed:2 ~base:8.0 ~spread:0.02 12));
  check "same code" "unchanged"
    (verdict ~better:Stats.Lower ~bound:0.1 parent (noisy ~seed:3 ~base:10.0 ~spread:0.02 12));
  check "past the bound" "regressed"
    (verdict ~better:Stats.Lower ~bound:0.1 parent (noisy ~seed:4 ~base:13.0 ~spread:0.02 12));
  check "higher is better" "regressed"
    (verdict ~better:Stats.Higher ~bound:0.1 parent (noisy ~seed:5 ~base:8.0 ~spread:0.02 12));
  check "gain with too few pairs" "unchanged"
    (verdict ~better:Stats.Lower ~bound:0.1
       (List.filteri (fun i _ -> i < 5) parent)
       (noisy ~seed:6 ~base:9.5 ~spread:0.01 5));
  let wide = noisy ~seed:7 ~base:10.0 ~spread:0.5 12 in
  check "spread wider than the bound" "unresolved"
    (verdict ~better:Stats.Lower ~bound:0.1 wide (noisy ~seed:8 ~base:10.0 ~spread:0.5 12));
  check "one pair" "unresolved" (verdict ~better:Stats.Lower ~bound:0.1 [ 1.0 ] [ 2.0 ]);
  let count better parent change =
    Stats.verdict_name (Stats.count_verdict ~better ~parent ~change)
  in
  check "count repeats" "unchanged" (count Stats.Lower [ 4.0; 4.0; 4.0 ] [ 4.0; 4.0 ]);
  check "count fell" "improved" (count Stats.Lower [ 4.0; 4.0 ] [ 3.0; 3.0 ]);
  check "count rose by a hair" "regressed" (count Stats.Lower [ 4.0; 4.0 ] [ 4.0001; 4.0001 ]);
  check "ratio fell" "regressed" (count Stats.Higher [ 1.0; 1.0 ] [ 0.99; 0.99 ]);
  check "count does not repeat" "unresolved" (count Stats.Lower [ 4.0; 5.0 ] [ 4.0; 4.0 ])

(* -- json -- *)

let test_json () =
  let v =
    Json.Obj
      [ ("a", Json.Num 1.5); ("b", Json.Arr [ Json.Bool true; Json.Null; Json.Str "x\"y\n" ]);
        ("c", Json.Num 3.0); ("d", Json.Num 0.1234567890123) ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check string) "integral numbers" "{\"c\": 3}" (Json.to_string (Json.Obj [ ("c", Json.Num 3.0) ]));
  Alcotest.(check bool) "metrics reply" true
    (Json.member "h" (Json.of_string {|{"h": {"count":2,"sum":1e-3}}|})
    = Some (Json.Obj [ ("count", Json.Num 2.0); ("sum", Json.Num 0.001) ]))

let () =
  Alcotest.run "benchmark"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "gen",
        [
          Alcotest.test_case "zipf determinism" `Quick test_zipf;
          Alcotest.test_case "zipf blocks" `Quick test_zipf_blocks;
          Alcotest.test_case "spread salaries" `Quick test_spread_salaries;
          Alcotest.test_case "template determinism" `Quick test_templates_deterministic;
          Alcotest.test_case "cold texts unique and parse" `Quick test_cold_unique_and_parse;
          Alcotest.test_case "cold wrapper kinds" `Quick test_cold_kinds;
        ] );
      ("ladder", [ Alcotest.test_case "synthetic latency curve" `Quick test_ladder ]);
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ("json", [ Alcotest.test_case "round trip" `Quick test_json ]);
    ]
