(* The rule behind bench/main.exe's timing gates.

   A timing gate compares two ways of doing one piece of work, [a] and
   [b], on a box whose speed drifts.  A trial runs block pairs back to
   back, [a] first in even pairs and [b] first in odd ones, so a slow
   stretch falls on both sides, and reads the median over pairs of
   [a]'s time over [b]'s.  A gate's threshold applies to the
   unfavourable quartile of its trials (Stats.quartiles): at seven
   trials that is the second-worst, so one outlier never decides. *)

module Stats = Ape_bench_lib.Stats

let trials = 7

(* One trial of [pairs] block pairs; [a] and [b] each run one block and
   return its seconds. *)
let trial ~pairs ~a ~b =
  Stats.median
    (List.init pairs (fun pair ->
         if pair mod 2 = 0 then
           let ta = a () in
           ta /. b ()
         else
           let tb = b () in
           a () /. tb))

let run ~pairs ~a ~b = List.init trials (fun _ -> trial ~pairs ~a ~b)

type bound = At_most of float | At_least of float

(* The trial a bound judges: the upper quartile against a ceiling, the
   lower against a floor. *)
let statistic bound trials =
  let q1, _, q3 = Stats.quartiles trials in
  match bound with At_most _ -> q3 | At_least _ -> q1

let passes bound trials =
  let s = statistic bound trials in
  match bound with At_most t -> s <= t | At_least t -> s >= t
