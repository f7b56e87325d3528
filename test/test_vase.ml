(* Tests for Ape_vase: the system spec language (Figure 1's front end)
   and the constraint transformation. *)

module System = Ape_vase.System
module Cm = Ape_vase.Constraint_map
module E = Ape_estimator
module F = Ape_util.Float_ext

let proc = Ape_process.Process.c12

(* ---------- spec reader ---------- *)

(* An open list never runs silently to end of input: the reader that
   system specs go through names the '(' left open, or the stray ')'. *)
let test_sexp_unbalanced () =
  let expect_error at text =
    match Ape_util.Sexpr.parse text with
    | exception Ape_util.Sexpr.Error { span = { s_start = pos; _ }; _ } ->
      Alcotest.(check (pair int int))
        ("position in " ^ text) at
        (pos.Ape_util.Sexpr.line, pos.Ape_util.Sexpr.col)
    | _ -> Alcotest.fail ("expected a reader error for " ^ text)
  in
  expect_error (1, 1) "(a (b)";
  expect_error (2, 3) "(a)\n  (b c";
  expect_error (1, 8) "(a (b)))"

(* ---------- system spec ---------- *)

let audio_spec =
  "(system audio_front_end\n\
  \  (chain\n\
  \    (lowpass (order 4) (fc 1k))\n\
  \    (amplifier (gain 40) (bandwidth 20k))\n\
  \    (amplifier (gain 2.5) (bandwidth 20k)))\n\
  \  (require (total_gain 100) (bandwidth 900)))"

let test_parse_system () =
  let sys = System.parse audio_spec in
  Alcotest.(check string) "name" "audio_front_end" sys.System.name;
  Alcotest.(check int) "three modules" 3 (List.length sys.System.chain);
  Alcotest.(check (option (float 1e-9))) "gain requirement" (Some 100.)
    sys.System.requirements.System.total_gain;
  match (List.hd sys.System.chain).System.spec with
  | E.Module_lib.Lowpass_m lp ->
    Alcotest.(check int) "order" 4 lp.E.Filter.order;
    Alcotest.(check (float 1e-3)) "fc" 1000. lp.E.Filter.f_cutoff
  | _ -> Alcotest.fail "first module should be the lowpass"

(* A non-number, a lone ')' and a missing final ')' are each a
   Spec_error at their position: never a raw reader exception, never a
   spec read as complete. *)
let malformed_specs =
  let spec gain =
    Printf.sprintf
      "(system demo (chain (amplifier (gain %s) (bandwidth 20k))) (require \
       (total_gain 10) (bandwidth 1k)))"
      gain
  in
  let unterminated = spec "10" in
  [
    ((1, 38), spec "ten");
    ((1, 1), ")");
    ((1, 1), String.sub unterminated 0 (String.length unterminated - 1));
  ]

let test_parse_system_errors () =
  let expect_bad ?at s =
    match System.parse s with
    | exception System.Spec_error { pos; _ } ->
      Option.iter
        (fun at ->
          Alcotest.(check (pair int int))
            ("position in " ^ s) at
            (pos.Ape_util.Sexpr.line, pos.Ape_util.Sexpr.col))
        at
    | _ -> Alcotest.fail ("expected Spec_error for " ^ s)
  in
  expect_bad "(not_a_system x)";
  expect_bad "(system x (chain (warp_drive (gain 1))))";
  expect_bad "(system x (chain (amplifier (gain 10))))" (* missing bandwidth *);
  List.iter (fun (at, s) -> expect_bad ~at s) malformed_specs

let test_estimate_system () =
  let sys = System.parse audio_spec in
  let est = System.estimate proc sys in
  Alcotest.(check int) "three designs" 3 (List.length est.System.designs);
  (* Gain: lpf pass-band (~2.57) x 40 x 2.5 = ~257 >= 100. *)
  Alcotest.(check bool) "gain total plausible" true
    (est.System.gain_total > 100. && est.System.gain_total < 500.);
  Alcotest.(check bool) "bandwidth from slowest stage" true
    (est.System.bandwidth_min <= 1.05e3);
  Alcotest.(check bool) "area accumulates" true (est.System.area_total > 0.);
  List.iter
    (fun (name, ok) ->
      Alcotest.(check bool) ("requirement " ^ name) true ok)
    est.System.meets

(* ---------- constraint transformation ---------- *)

let test_allocate_bandwidth () =
  (* Two identical first-order stages: each needs BW_total/sqrt(sqrt(2)-1). *)
  let per_stage = Cm.allocate_bandwidth ~total:20e3 ~stages:2 in
  Alcotest.(check bool) "per-stage wider than total" true (per_stage > 20e3);
  Alcotest.(check (float 1.)) "formula"
    (20e3 /. Float.sqrt ((2. ** 0.5) -. 1.))
    per_stage

let test_allocate_gain_even () =
  let limits =
    [
      { Cm.max_gain = 100.; area_per_gain = 1. };
      { Cm.max_gain = 100.; area_per_gain = 1. };
    ]
  in
  match Cm.allocate_gain ~total:100. ~limits with
  | Some [ g1; g2 ] ->
    Alcotest.(check (float 1e-6)) "even split" g1 g2;
    Alcotest.(check bool) "product covers total" true (g1 *. g2 >= 100. *. 0.999)
  | _ -> Alcotest.fail "expected two allocations"

let test_allocate_gain_clamped () =
  let limits =
    [
      { Cm.max_gain = 5.; area_per_gain = 1. };
      { Cm.max_gain = 100.; area_per_gain = 1. };
    ]
  in
  match Cm.allocate_gain ~total:100. ~limits with
  | Some [ g1; g2 ] ->
    Alcotest.(check bool) "stage1 clamped" true (g1 <= 5. +. 1e-9);
    Alcotest.(check bool) "stage2 compensates" true (g2 >= 19.9);
    Alcotest.(check bool) "product covers" true (g1 *. g2 >= 99.)
  | _ -> Alcotest.fail "expected allocation"

let test_allocate_gain_infeasible () =
  let limits = [ { Cm.max_gain = 3.; area_per_gain = 1. } ] in
  Alcotest.(check bool) "infeasible detected" true
    (Cm.allocate_gain ~total:100. ~limits = None)

let prop_allocation_respects_limits =
  QCheck.Test.make ~name:"allocations never exceed stage limits" ~count:50
    QCheck.(pair (float_range 2. 50.) (float_range 2. 50.))
    (fun (m1, m2) ->
      let limits =
        [ { Cm.max_gain = m1; area_per_gain = 1. };
          { Cm.max_gain = m2; area_per_gain = 1. } ]
      in
      let total = 0.8 *. m1 *. m2 in
      match Cm.allocate_gain ~total ~limits with
      | None -> false
      | Some gains ->
        List.for_all2 (fun g l -> g <= l.Cm.max_gain +. 1e-6) gains limits
        && List.fold_left ( *. ) 1. gains >= total *. 0.99)

let test_probe_stage_limit () =
  let limit = Cm.probe_stage_limit ~bandwidth:20e3 proc in
  (* Our single/two-stage opamps deliver gains in the hundreds to tens of
     thousands at audio bandwidths. *)
  Alcotest.(check bool) "probed limit plausible" true
    (limit.Cm.max_gain > 50. && limit.Cm.max_gain < 1e7);
  Alcotest.(check bool) "area density positive" true (limit.Cm.area_per_gain > 0.)

let test_plan_gain_chain () =
  match System.plan_gain_chain proc ~total_gain:1000. ~bandwidth:20e3 ~stages:2 with
  | Some gains ->
    Alcotest.(check int) "two stages" 2 (List.length gains);
    Alcotest.(check bool) "covers total" true
      (List.fold_left ( *. ) 1. gains >= 999.)
  | None -> Alcotest.fail "two-stage 60 dB plan should be feasible"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_vase"
    [
      ("sexp", [ Alcotest.test_case "unbalanced" `Quick test_sexp_unbalanced ]);
      ( "system",
        [
          Alcotest.test_case "parse" `Quick test_parse_system;
          Alcotest.test_case "errors" `Quick test_parse_system_errors;
          Alcotest.test_case "estimate" `Quick test_estimate_system;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "bandwidth split" `Quick test_allocate_bandwidth;
          Alcotest.test_case "even gain" `Quick test_allocate_gain_even;
          Alcotest.test_case "clamped gain" `Quick test_allocate_gain_clamped;
          Alcotest.test_case "infeasible" `Quick test_allocate_gain_infeasible;
          Alcotest.test_case "probe limit" `Quick test_probe_stage_limit;
          Alcotest.test_case "plan chain" `Quick test_plan_gain_chain;
        ] );
      qsuite "constraint-properties" [ prop_allocation_respects_limits ];
    ]
