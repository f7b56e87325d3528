(* Tests for lib/mc: deterministic parallel map, Welford statistics,
   synthetic-yield calibration, jobs-independence of whole reports, and
   corner-vs-3-sigma bracketing of the variation model. *)

module Rng = Ape_util.Rng
module Mc = Ape_mc
module Stats = Ape_mc.Stats
module Pool = Ape_util.Pool
module Run = Ape_mc.Run
module Variation = Ape_mc.Variation
module Proc = Ape_process.Process
module Card = Ape_process.Model_card
module E = Ape_estimator

let proc = Proc.c12
let check_float = Alcotest.(check (float 1e-12))

let check_bits msg a b =
  Alcotest.(check int64)
    (Printf.sprintf "%s: %.17g vs %.17g" msg a b)
    (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---------- Pool ---------- *)

let test_pool_matches_sequential () =
  let f i = (i * i) + 1 in
  let expected = Array.init 100 f in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs 100 f))
    [ 1; 2; 3; 4; 7; 100; 200 ]

let test_pool_empty_and_small () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 0 (fun i -> i));
  Alcotest.(check (array int)) "single" [| 0 |] (Pool.map ~jobs:4 1 (fun i -> i))

let test_pool_exception () =
  Alcotest.check_raises "worker exception resurfaces" (Failure "boom")
    (fun () ->
      ignore (Pool.map ~jobs:4 50 (fun i -> if i = 37 then failwith "boom" else i)))

(* ---------- Stats ---------- *)

let naive_variance xs =
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0. xs /. n in
  Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.)

let test_welford_vs_naive () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  let s = Stats.create () in
  Array.iter (Stats.add s) xs;
  check_float "mean" 5.0 (Stats.mean s);
  check_float "variance" (naive_variance xs) (Stats.variance s);
  (* Welford's advantage: a huge common offset must not destroy the
     variance (the naive sum-of-squares formulation loses all digits
     here; the two-pass naive form above survives, Welford must too). *)
  let offset = 1e9 in
  let s2 = Stats.create () in
  Array.iter (fun x -> Stats.add s2 (x +. offset)) xs;
  Alcotest.(check bool)
    "variance stable under 1e9 offset" true
    (Float.abs (Stats.variance s2 -. Stats.variance s) < 1e-4);
  check_float "min" 2.0 (Stats.min_value s);
  check_float "max" 9.0 (Stats.max_value s);
  Alcotest.(check int) "count" 8 (Stats.count s)

let test_stats_quantiles () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. ];
  check_float "q0 = min" 1. (Stats.quantile s 0.);
  check_float "q1 = max" 9. (Stats.quantile s 1.);
  check_float "median interpolates" 3.5 (Stats.quantile s 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.quantile s 1.5))

let test_stats_histogram () =
  let s = Stats.create () in
  for i = 0 to 99 do
    Stats.add s (float_of_int i)
  done;
  let h = Stats.histogram ~bins:10 s in
  Alcotest.(check int) "bins" 10 (Array.length h);
  Array.iter
    (fun b -> Alcotest.(check int) "uniform fill" 10 b.Stats.b_count)
    h;
  check_float "first lo" 0. h.(0).Stats.b_lo;
  check_float "last hi" 99. h.(9).Stats.b_hi;
  let constant = Stats.create () in
  List.iter (Stats.add constant) [ 5.; 5.; 5. ];
  let hc = Stats.histogram ~bins:4 constant in
  Alcotest.(check int) "identical samples in bin 0" 3 hc.(0).Stats.b_count

(* ---------- Run: synthetic yield with known pass probability ---------- *)

let test_synthetic_yield () =
  (* metric ~ N(0,1); P(x <= 1.6449) = 0.95.  2000 samples give a
     binomial std of ~0.5 %, so +/-2 % is a 4-sigma band. *)
  let config = { Run.samples = 2000; jobs = 1; seed = 7 } in
  let measure rng _i = [ ("x", Rng.gauss rng ~mean:0. ~sigma:1.) ] in
  let report =
    Run.run ~checks:[ Run.at_most "x" 1.6448536 ] config ~measure
  in
  Alcotest.(check bool)
    (Printf.sprintf "yield %.3f near 0.95" report.Run.yield)
    true
    (Float.abs (report.Run.yield -. 0.95) < 0.02);
  let m = Option.get (Run.metric report "x") in
  Alcotest.(check bool) "mean near 0" true
    (Float.abs (Stats.mean m.Run.m_stats) < 0.07);
  Alcotest.(check bool) "std near 1" true
    (Float.abs (Stats.std m.Run.m_stats -. 1.) < 0.07)

let test_run_failures () =
  let config = { Run.samples = 10; jobs = 2; seed = 1 } in
  let measure _rng i =
    if i mod 2 = 0 then failwith "dead die" else [ ("x", 1.0) ]
  in
  let report =
    Run.run ~checks:[ Run.at_least "x" 0.5 ] config ~measure
  in
  Alcotest.(check int) "failures" 5 report.Run.failures;
  Alcotest.(check int) "passes" 5 report.Run.pass;
  check_float "failed dies stay in the denominator" 0.5 report.Run.yield;
  (match report.Run.failure_example with
  | Some (0, msg) ->
    Alcotest.(check bool) "message kept" true
      (String.length msg > 0)
  | other ->
    Alcotest.failf "expected failure example at sample 0, got %s"
      (match other with None -> "none" | Some (i, _) -> string_of_int i))

(* ---------- Determinism: whole report invariant under jobs ---------- *)

let opamp_report jobs =
  let spec = E.Opamp.spec ~av:200. ~ugf:2e6 ~ibias:1e-6 ~cl:10e-12 () in
  let measure, checks =
    Mc.Scenario.opamp ~level:Mc.Scenario.Estimate proc spec
  in
  Run.run ~checks { Run.samples = 160; jobs; seed = 1999 } ~measure

let test_determinism_across_jobs () =
  let base = opamp_report 1 in
  List.iter
    (fun jobs ->
      let r = opamp_report jobs in
      Alcotest.(check int)
        (Printf.sprintf "pass count jobs=%d" jobs)
        base.Run.pass r.Run.pass;
      Alcotest.(check int)
        (Printf.sprintf "failures jobs=%d" jobs)
        base.Run.failures r.Run.failures;
      List.iter2
        (fun (bm : Run.metric_summary) (rm : Run.metric_summary) ->
          Alcotest.(check string) "metric order" bm.Run.m_name rm.Run.m_name;
          let tag what = Printf.sprintf "%s %s jobs=%d" bm.Run.m_name what jobs in
          check_bits (tag "mean") (Stats.mean bm.Run.m_stats)
            (Stats.mean rm.Run.m_stats);
          check_bits (tag "variance")
            (Stats.variance bm.Run.m_stats)
            (Stats.variance rm.Run.m_stats);
          check_bits (tag "min")
            (Stats.min_value bm.Run.m_stats)
            (Stats.min_value rm.Run.m_stats);
          check_bits (tag "max")
            (Stats.max_value bm.Run.m_stats)
            (Stats.max_value rm.Run.m_stats);
          check_bits (tag "q95")
            (Stats.quantile bm.Run.m_stats 0.95)
            (Stats.quantile rm.Run.m_stats 0.95);
          Alcotest.(check int) (tag "worst sample") bm.Run.m_min.Run.sample
            rm.Run.m_min.Run.sample)
        base.Run.metrics r.Run.metrics)
    [ 2; 3; 4; 8 ]

(* ---------- Variation model ---------- *)

let test_shared_oxide () =
  let p = Variation.sample (Rng.create 5) Variation.default in
  check_float "tox factor shared across polarities"
    p.Proc.nmos.Card.tox_factor p.Proc.pmos.Card.tox_factor

let test_perturb_consistency () =
  let rng = Rng.create 9 in
  let p = Variation.perturb rng Variation.default proc in
  (* KP = u0 * Cox must survive perturbation in both cards. *)
  List.iter
    (fun (card : Card.t) ->
      Alcotest.(check bool)
        (card.Card.name ^ ": kp = u0 * cox")
        true
        (Float.abs ((card.Card.u0 *. Card.cox card /. card.Card.kp) -. 1.)
        < 1e-9))
    [ p.Proc.nmos; p.Proc.pmos ];
  Alcotest.(check bool) "pmos vto stays negative" true (p.Proc.pmos.Card.vto < 0.)

let test_corner_brackets_3sigma () =
  (* Process.corner's Slow/Fast (KP x0.85/x1.15, |VTO| +/-0.1 V) must
     bracket mean +/- 3 sigma of the sampled distribution — the corners
     are the pessimistic envelope of the statistical model. *)
  let n = 400 in
  let streams = Rng.split_n (Rng.create 2026) n in
  let kp = Stats.create () and vto = Stats.create () in
  Array.iter
    (fun rng ->
      let p = Variation.perturb rng Variation.default proc in
      Stats.add kp p.Proc.nmos.Card.kp;
      Stats.add vto p.Proc.nmos.Card.vto)
    streams;
  let slow = Proc.corner Proc.Slow proc and fast = Proc.corner Proc.Fast proc in
  let check_brackets name stats lo hi =
    let m = Stats.mean stats and s = Stats.std stats in
    Alcotest.(check bool)
      (Printf.sprintf "%s: [%g, %g] brackets mean %g +/- 3*%g" name lo hi m s)
      true
      (lo <= m -. (3. *. s) && m +. (3. *. s) <= hi)
  in
  check_brackets "nmos kp" kp slow.Proc.nmos.Card.kp fast.Proc.nmos.Card.kp;
  check_brackets "nmos vto" vto fast.Proc.nmos.Card.vto slow.Proc.nmos.Card.vto

let test_pelgrom_mismatch () =
  let card = proc.Proc.nmos in
  let sigma = Variation.sigma_delta_vto card ~w:10e-6 ~l:2e-6 in
  check_float "pelgrom sigma"
    (card.Card.avt /. Float.sqrt (10e-6 *. 2e-6))
    sigma;
  Alcotest.(check bool) "bigger devices match better" true
    (Variation.sigma_delta_vto card ~w:40e-6 ~l:2e-6 < sigma);
  let rng = Rng.create 3 in
  let n = 3000 in
  let sum2 = ref 0. in
  for _ = 1 to n do
    let d = Variation.mismatch_vto rng card ~w:10e-6 ~l:2e-6 in
    sum2 := !sum2 +. (d *. d)
  done;
  let measured = Float.sqrt (!sum2 /. float_of_int n) in
  Alcotest.(check bool)
    (Printf.sprintf "sampled sigma %.3g near %.3g" measured sigma)
    true
    (Float.abs ((measured /. sigma) -. 1.) < 0.08)

(* ---------- Report rendering ---------- *)

let contains ~substring s =
  let n = String.length s and m = String.length substring in
  let rec loop i = i + m <= n && (String.sub s i m = substring || loop (i + 1)) in
  loop 0

let test_report_renders () =
  let report = opamp_report 2 in
  let text =
    Mc.Report.to_string ~histograms:[ "gain"; "nonexistent" ] report
  in
  Alcotest.(check bool) "mentions yield" true (contains ~substring:"yield" text);
  Alcotest.(check bool) "mentions gain" true (contains ~substring:"gain" text);
  Alcotest.(check bool) "missing metric handled" true
    (contains ~substring:"no samples" text)

let () =
  Alcotest.run "mc"
    [
      ( "pool",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_pool_matches_sequential;
          Alcotest.test_case "empty and small" `Quick test_pool_empty_and_small;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford vs naive" `Quick test_welford_vs_naive;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
        ] );
      ( "run",
        [
          Alcotest.test_case "synthetic yield" `Quick test_synthetic_yield;
          Alcotest.test_case "failed samples" `Quick test_run_failures;
          Alcotest.test_case "determinism across jobs" `Quick
            test_determinism_across_jobs;
        ] );
      ( "variation",
        [
          Alcotest.test_case "shared oxide" `Quick test_shared_oxide;
          Alcotest.test_case "kp/u0/tox consistency" `Quick
            test_perturb_consistency;
          Alcotest.test_case "corners bracket 3 sigma" `Quick
            test_corner_brackets_3sigma;
          Alcotest.test_case "pelgrom mismatch" `Quick test_pelgrom_mismatch;
        ] );
      ( "report",
        [ Alcotest.test_case "renders" `Quick test_report_renders ] );
    ]
