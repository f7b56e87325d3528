(* Order statistics and the two-set comparison rule. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let nearest_rank p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  a.(max 1 (min n rank) - 1)

(* Quartiles by the exclusive method (Python's statistics.quantiles
   default), so the spreads printed here are the ones a script reading
   the result files computes. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  match n with
  | 0 -> invalid_arg "Stats.quartiles: no samples"
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m

type better = Lower | Higher
type verdict = Better | No_worse | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | No_worse -> "no worse"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* How much worse [b] is than [a], as a share of [a] (negative when
   better). *)
let worse_frac better ~base ~cand =
  let d = match better with Lower -> cand -. base | Higher -> base -. cand in
  if base = 0. then if d = 0. then 0. else Float.copy_sign infinity d
  else d /. Float.abs base

(* The verdict on a metric measured [base] times on one side and
   [cand] times on the other:
   - every candidate run beats every base run: better;
   - every base run beats every candidate run: worse when the medians
     differ by more than [bound], else no worse;
   - otherwise, when either side's interquartile spread is wider than
     [bound], the sets cannot tell a change of [bound] from noise:
     unresolved;
   - otherwise the medians decide: worse or better beyond [bound], no
     worse within it. *)
let verdict better ~bound ~base ~cand =
  let beats x y = match better with Lower -> x < y | Higher -> x > y in
  let dominates xs ys = List.for_all (fun x -> List.for_all (beats x) ys) xs in
  let w = worse_frac better ~base:(median base) ~cand:(median cand) in
  if dominates cand base then Better
  else if dominates base cand then if w > bound then Worse else No_worse
  else if Float.max (spread base) (spread cand) > bound then Unresolved
  else if w > bound then Worse
  else if w < -.bound then Better
  else No_worse
