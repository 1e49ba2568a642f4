(* Order statistics, the rate-ladder search and the --compare verdicts.
   Everything here is pure so the unit tests can pin it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [p] of the samples at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let percentile xs p = percentile_sorted (sorted xs) p

(* Samples strictly beyond the nearest-rank [p] percentile. *)
let beyond ~n p = n - int_of_float (Float.ceil (p *. float_of_int n))

(* A tail percentile is reported only when at least 10 samples lie
   beyond it; otherwise it says nothing about the tail. *)
let tail xs p =
  let n = List.length xs in
  if n = 0 || beyond ~n p < 10 then None else Some (percentile xs p)

(* The first percentile of [candidates] the sample count supports. *)
let tail_with_fallback xs candidates =
  List.find_map (fun p -> Option.map (fun v -> (p, v)) (tail xs p)) candidates

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Python's [statistics.median]. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles data ~n:4] (the default 'exclusive'
   method), so spreads here match the ones Python computes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* -- the offered-rate ladder --

   [probe rate] runs one step at [rate] and says whether it met the
   latency limit. The search climbs by ×1.25 until a step fails, then
   bisects (geometrically) between the last passing and the first failing
   rate three times. The climb stops after 12 steps (start × 1.25^11).
   Returns the highest passing rate (0 when even [start] fails) and every
   step taken, in order. *)
let ladder ~start probe =
  let max_coarse = 12 in
  let steps = ref [] in
  let run rate =
    let ok = probe rate in
    steps := (rate, ok) :: !steps;
    ok
  in
  (* [pass] has passed; climb until a step fails or the ladder ends *)
  let rec climb pass k =
    if k >= max_coarse then (pass, None)
    else
      let next = pass *. 1.25 in
      if run next then climb next (k + 1) else (pass, Some next)
  in
  let rec bisect pass fail i =
    if i = 0 then pass
    else
      let mid = Float.sqrt (pass *. fail) in
      if run mid then bisect mid fail (i - 1) else bisect pass mid (i - 1)
  in
  let best =
    if not (run start) then 0.0
    else
      match climb start 1 with
      | pass, None -> pass
      | pass, Some fail -> bisect pass fail 3
  in
  (best, List.rev !steps)

(* -- verdicts for --compare --

   [parent] and [change] are one value per run, run [i] of each side
   forming pair [i] (the runs alternate which side goes first). A change
   is [Improved] only with at least 10 pairs, winning at least
   nine in ten of them, with medians further apart than the parent's
   interquartile range. It is [Regressed] when its median is worse than
   the parent's by more than [bound] (a share of the parent's median) and
   by more than that spread. Within the bound it is [Unchanged], unless
   the parent's own spread exceeds the bound and the change does not read
   better on every run — then it is [Unresolved]. *)

type better = Lower | Higher
type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let verdict ~better ~bound ~parent ~change =
  let gain a b = match better with Lower -> a -. b | Higher -> b -. a in
  let pairs = min (List.length parent) (List.length change) in
  if pairs < 2 then Unresolved
  else
    let parent = List.filteri (fun i _ -> i < pairs) parent in
    let change = List.filteri (fun i _ -> i < pairs) change in
    let mp = median parent and mc = median change in
    let spread = iqr parent in
    let delta = gain mp mc in
    let wins = List.length (List.filter (fun d -> d > 0.0) (List.map2 gain parent change)) in
    let all_better =
      List.for_all (fun c -> List.for_all (fun p -> gain p c > 0.0) parent) change
    in
    let limit = bound *. Float.abs mp in
    if pairs >= 10 && 10 * wins >= 9 * pairs && delta > spread then Improved
    else if -.delta > limit && -.delta > spread then Regressed
    else if -.delta > limit then Unresolved
    else if spread > limit && not all_better then Unresolved
    else Unchanged

(* A count the program makes repeats exactly for a seed, so it has no
   bound: it is [Unchanged] only when every run of both sides reads the
   same value, [Unresolved] when a side does not repeat itself, and
   otherwise [Improved] or [Regressed] by the direction it moved. *)
let count_verdict ~better ~parent ~change =
  match (List.sort_uniq Float.compare parent, List.sort_uniq Float.compare change) with
  | [ p ], [ c ] ->
      let gain = match better with Lower -> p -. c | Higher -> c -. p in
      if gain = 0.0 then Unchanged else if gain > 0.0 then Improved else Regressed
  | _ -> Unresolved
