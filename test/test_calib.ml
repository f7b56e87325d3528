(* Tests for Ape_calib: affine-fit recovery, calibration-card
   print/parse fixpoint, the identity-card metamorphic property
   (calibrating with identity corrections changes nothing, bit for
   bit) and grid-sampling determinism across worker counts. *)

module C = Ape_check
module Card = Ape_calib.Card
module Fit = Ape_calib.Fit
module Grid = Ape_calib.Grid

let proc = Ape_process.Process.c12

(* ---------- fit recovery ---------- *)

let samples ~level ~attr ~region f xs =
  List.map
    (fun x ->
      {
        Fit.s_level = level;
        s_attr = attr;
        s_region = region;
        s_est = x;
        s_sim = f x;
      })
    xs

(* Max relative error of the corrected estimates over the samples. *)
let max_err corr samples =
  List.fold_left
    (fun acc (s : Fit.sample) ->
      Float.max acc
        (Fit.rel_err ~est:(Card.correct corr s.Fit.s_est) ~sim:s.Fit.s_sim))
    0. samples

let test_fit_recovers_affine () =
  (* Samples generated by an exact affine law must be fitted back to
     it: the correction reproduces every simulation to 1e-9. *)
  let scale = 1.3717 and bias = -2.25 in
  let xs = [ 1.; 2.; 4.; 8.; 16.; 32. ] in
  let s =
    samples ~level:"opamp" ~attr:"gain" ~region:Card.Mid
      (fun x -> (scale *. x) +. bias)
      xs
  in
  let card = Fit.fit ~process:"c12" s in
  match Card.find card ~level:"opamp" ~attr:"gain" ~region:Card.Mid with
  | None -> Alcotest.fail "no entry fitted"
  | Some e ->
    Alcotest.(check (float 1e-9)) "scale" scale e.Card.corr.Card.scale;
    Alcotest.(check (float 1e-9)) "bias" bias e.Card.corr.Card.bias;
    Alcotest.(check (float 1e-9)) "residual" 0. (max_err e.Card.corr s);
    Alcotest.(check int) "sample count" (List.length xs) e.Card.n

let test_fit_recovers_scale () =
  (* A pure gain error needs no intercept; whatever candidate wins must
     still null the residual. *)
  let s =
    samples ~level:"basic" ~attr:"ugf" ~region:Card.All
      (fun x -> 1.18 *. x)
      [ 1e5; 3e5; 1e6; 3e6 ]
  in
  let card = Fit.fit ~process:"c12" s in
  match Card.find card ~level:"basic" ~attr:"ugf" ~region:Card.All with
  | None -> Alcotest.fail "no entry fitted"
  | Some e ->
    Alcotest.(check (float 1e-9)) "residual" 0. (max_err e.Card.corr s);
    Alcotest.(check (float 1e-9)) "corrected value" 1.18e6
      (Card.correct e.Card.corr 1e6)

let test_fit_keeps_identity_within_tol () =
  (* Raw error already inside the tolerance: the entry must stay
     identity (recorded, not refitted). *)
  let s =
    samples ~level:"opamp" ~attr:"power" ~region:Card.Low
      (fun x -> 1.005 *. x)
      [ 1e-4; 2e-4; 4e-4 ]
  in
  let card = Fit.fit ~tol:0.02 ~process:"c12" s in
  match Card.find card ~level:"opamp" ~attr:"power" ~region:Card.Low with
  | None -> Alcotest.fail "no entry recorded"
  | Some e ->
    Alcotest.(check bool) "identity" true (Card.is_identity e.Card.corr)

let test_fit_never_calibrates_area () =
  let s =
    samples ~level:"opamp" ~attr:"gate_area" ~region:Card.All
      (fun x -> 2. *. x)
      [ 1.; 2.; 3. ]
  in
  let card = Fit.fit ~process:"c12" s in
  Alcotest.(check bool) "area dropped" true
    (Card.find card ~level:"opamp" ~attr:"gate_area" ~region:Card.All = None)

(* ---------- card print/parse fixpoint ---------- *)

let gen_card =
  let open QCheck.Gen in
  let gen_mag =
    map2
      (fun m e -> m *. (10. ** float_of_int e))
      (float_range (-10.) 10.) (int_range (-6) 6)
  in
  let gen_entry =
    let* level = oneofl [ "basic"; "opamp"; "module" ] in
    let* attr = oneofl [ "gain"; "ugf"; "cmrr"; "power"; "zout" ] in
    let* region = oneofl [ Card.Low; Card.Mid; Card.High; Card.All ] in
    let* scale = map (fun m -> 1e-3 +. Float.abs m) gen_mag in
    let* bias = gen_mag in
    let* n = int_range 0 1000 in
    let* raw_err = map Float.abs gen_mag in
    let* cal_err = map Float.abs gen_mag in
    return
      {
        Card.level;
        attr;
        region;
        corr = { Card.scale; bias };
        n;
        raw_err;
        cal_err;
      }
  in
  let* entries = list_size (int_range 0 12) gen_entry in
  (* Duplicate (level, attr, region) keys have no canonical order;
     keep the first of each so the sorted print is unique. *)
  let key e = (e.Card.level, e.Card.attr, e.Card.region) in
  let entries =
    List.fold_left
      (fun acc e -> if List.exists (fun x -> key x = key e) acc then acc else e :: acc)
      [] entries
  in
  return { Card.version = Card.version; process = "c12"; entries }

let prop_card_print_parse_fixpoint =
  QCheck.Test.make ~name:"card print/parse/print fixpoint" ~count:200
    (QCheck.make gen_card) (fun card ->
      let s = Card.print card in
      String.equal s (Card.print (Card.parse s)))

(* ---------- identity-card metamorphic property ---------- *)

let identity_card () =
  let entries =
    List.concat_map
      (fun level ->
        List.concat_map
          (fun attr ->
            List.map
              (fun region ->
                {
                  Card.level;
                  attr;
                  region;
                  corr = Card.identity;
                  n = 3;
                  raw_err = 0.;
                  cal_err = 0.;
                })
              [ Card.Low; Card.Mid; Card.High; Card.All ])
          [ "gain"; "ugf"; "cmrr"; "power"; "zout"; "current"; "noise" ])
      [ "basic"; "opamp"; "module" ]
  in
  { Card.version = Card.version; process = "c12"; entries = Card.sort_entries entries }

let fingerprint (r : C.Diff.row) =
  (r.C.Diff.case, r.C.Diff.attr, r.C.Diff.est, r.C.Diff.sim, r.C.Diff.status)

let test_identity_card_is_noop () =
  (* Correcting every estimate through scale=1/bias=0 entries must
     leave the row set bit-identical to the uncalibrated run. *)
  let card = identity_card () in
  Alcotest.(check bool) "card is identity" true
    (List.for_all (fun e -> Card.is_identity e.Card.corr) card.Card.entries);
  let raw = C.Cases.basic_rows proc in
  let cal = C.Cases.basic_rows ~calibration:card proc in
  Alcotest.(check bool) "basic rows bit-identical" true
    (List.map fingerprint raw = List.map fingerprint cal);
  let raw = C.Cases.opamp_rows ~slew:false proc in
  let cal = C.Cases.opamp_rows ~slew:false ~calibration:card proc in
  Alcotest.(check bool) "opamp rows bit-identical" true
    (List.map fingerprint raw = List.map fingerprint cal)

(* ---------- grid determinism ---------- *)

let test_grid_jobs_deterministic () =
  let spec = { Grid.default with Grid.points = 4 } in
  let r1 = Grid.run proc { spec with Grid.jobs = 1 } in
  let r3 = Grid.run proc { spec with Grid.jobs = 3 } in
  Alcotest.(check int) "same evaluated" r1.Grid.evaluated r3.Grid.evaluated;
  Alcotest.(check int) "same skipped" r1.Grid.skipped r3.Grid.skipped;
  Alcotest.(check bool) "samples bit-identical" true
    (r1.Grid.samples = r3.Grid.samples);
  (* And the cards fitted from them print identically — the CI gate. *)
  let print r = Card.print (Fit.fit ~process:"c12" r.Grid.samples) in
  Alcotest.(check string) "fitted cards identical" (print r1) (print r3)

let test_grid_spec_parse () =
  let spec =
    Grid.parse_spec "(grid (points 9) (seed 3) (ugf 800k 14meg) (slew yes))"
  in
  Alcotest.(check int) "points" 9 spec.Grid.points;
  Alcotest.(check int) "seed" 3 spec.Grid.seed;
  Alcotest.(check (float 1.) "ugf lo" 8e5 (fst spec.Grid.ugf));
  Alcotest.(check (float 1.) "ugf hi" 1.4e7 (snd spec.Grid.ugf));
  Alcotest.(check bool) "slew" true spec.Grid.slew;
  Alcotest.(check bool) "defaults kept" true
    (spec.Grid.av = Grid.default.Grid.av);
  Alcotest.(check int) "jobs 0 = hardware count"
    (Ape_util.Pool.recommended_jobs ())
    (Grid.parse_spec "(grid (jobs 0))").Grid.jobs;
  Alcotest.(check int) "positive jobs kept" 3
    (Grid.parse_spec "(grid (jobs 3))").Grid.jobs;
  Alcotest.(check int) "zero points kept" 0
    (Grid.parse_spec "(grid (points 0))").Grid.points;
  List.iter
    (fun (what, text, col) ->
      match Grid.parse_spec text with
      | exception Grid.Parse_error { pos = Some pos; msg = _ } ->
        Alcotest.(check int) (what ^ " column") col pos.Ape_util.Sexpr.col
      | exception Grid.Parse_error _ -> Alcotest.fail (what ^ ": position lost")
      | _ -> Alcotest.fail (what ^ ": accepted"))
    [
      ("malformed spec", "(grid (points))", 7);
      ("negative jobs", "(grid (points 2) (jobs -4))", 24);
      ("negative points", "(grid (points -2))", 15);
    ];
  (* A grid spec's errors carry its own label; a card's keep theirs. *)
  (match Grid.parse_spec "(grid (points -2))" with
  | exception Grid.Parse_error { pos; msg } ->
    Alcotest.(check string) "grid label"
      "grid spec: 1:15: points must be non-negative, got -2"
      (Grid.describe_error ~pos ~msg)
  | _ -> Alcotest.fail "negative points accepted");
  match Card.parse "(grid (points -2))" with
  | exception Card.Parse_error { pos; msg } ->
    Alcotest.(check string) "card label"
      "calibration card: 1:1: expected a (calibration-card ...) form"
      (Card.describe_error ~pos ~msg)
  | _ -> Alcotest.fail "grid spec accepted as a card"

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ape_calib"
    [
      ( "fit",
        [
          Alcotest.test_case "recovers affine law" `Quick
            test_fit_recovers_affine;
          Alcotest.test_case "recovers pure scale" `Quick
            test_fit_recovers_scale;
          Alcotest.test_case "identity within tol" `Quick
            test_fit_keeps_identity_within_tol;
          Alcotest.test_case "area never calibrated" `Quick
            test_fit_never_calibrates_area;
        ] );
      ("card", qsuite [ prop_card_print_parse_fixpoint ]);
      ( "metamorphic",
        [
          Alcotest.test_case "identity card is a no-op" `Quick
            test_identity_card_is_noop;
        ] );
      ( "grid",
        [
          Alcotest.test_case "jobs 1 vs 3 bit-identical" `Quick
            test_grid_jobs_deterministic;
          Alcotest.test_case "spec parsing" `Quick test_grid_spec_parse;
        ] );
    ]
