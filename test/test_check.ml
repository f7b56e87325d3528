(* Tests for Ape_check: diff/tolerance semantics, golden-table
   persistence, metamorphic estimator properties (monotonicity, scaling,
   corner bracketing), and the checked-in golden regression gate. *)

module C = Ape_check
module E = Ape_estimator
module Mos = Ape_device.Mos
module Proc = Ape_process.Process

let proc = Proc.c12

(* ---------- diff semantics ---------- *)

let row ?(case = "c") ?(attr = "a") ~gate est sim =
  C.Diff.make ~case ~attr ~gate ~est ~sim

let test_diff_status () =
  let open C.Diff in
  let gate = C.Tolerance.Rel 0.10 in
  Alcotest.(check string) "within bound" "pass"
    (status_name (row ~gate (Some 1.0) (Some 1.05)).status);
  Alcotest.(check string) "out of bound" "FAIL"
    (status_name (row ~gate (Some 1.0) (Some 1.2)).status);
  Alcotest.(check string) "estimate missing" "FAIL"
    (status_name (row ~gate None (Some 1.0)).status);
  Alcotest.(check string) "measurement missing" "info"
    (status_name (row ~gate (Some 1.0) None).status);
  Alcotest.(check string) "both missing" "skip"
    (status_name (row ~gate None None).status);
  Alcotest.(check string) "report-only never fails" "info"
    (status_name
       (row ~gate:C.Tolerance.Report_only (Some 1.0) (Some 99.)).status);
  Alcotest.(check string) "NaN treated as missing" "info"
    (status_name (row ~gate (Some 1.0) (Some Float.nan)).status)

let test_rel_err () =
  Alcotest.(check (float 1e-12)) "symmetric zero" 0.
    (C.Diff.rel_err ~est:3. ~sim:3.);
  Alcotest.(check (float 1e-12)) "10% high" 0.1
    (C.Diff.rel_err ~est:1.1 ~sim:1.0);
  Alcotest.(check (float 1e-12)) "signed values" 0.1
    (C.Diff.rel_err ~est:(-1.1) ~sim:(-1.0));
  Alcotest.(check bool) "zero sim, nonzero est = huge" true
    (C.Diff.rel_err ~est:1. ~sim:0. > 1e10)

(* ---------- golden persistence ---------- *)

let tmp_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ape_golden_test_%d" (Unix.getpid ()))
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  d

let sample_rows () =
  let gate = C.Tolerance.Rel 0.5 in
  [
    row ~case:"A" ~attr:"gain" ~gate (Some 101.25) (Some 99.5);
    row ~case:"A" ~attr:"ugf" ~gate (Some 1.2345e6) (Some 1.1e6);
    row ~case:"B" ~attr:"zout" ~gate (Some 1e3) None;
  ]

let test_golden_save_load () =
  let dir = tmp_dir () in
  let level = C.Tolerance.Basic in
  let rows = sample_rows () in
  C.Golden.save ~dir level rows;
  match C.Golden.load ~dir level with
  | None -> Alcotest.fail "table not written"
  | Some entries ->
    Alcotest.(check int) "row count" 3 (List.length entries);
    let e = List.nth entries 1 in
    Alcotest.(check string) "case" "A" e.C.Golden.case;
    Alcotest.(check string) "attr" "ugf" e.C.Golden.attr;
    Alcotest.(check bool) "est bit-identical" true
      (e.C.Golden.est = Some 1.2345e6);
    Alcotest.(check bool) "missing sim stays missing" true
      ((List.nth entries 2).C.Golden.sim = None);
    Alcotest.(check int) "no drift against itself" 0
      (List.length (C.Golden.compare_rows ~golden:entries rows))

let test_golden_drift_detection () =
  let dir = tmp_dir () in
  let level = C.Tolerance.Opamp in
  C.Golden.save ~dir level (sample_rows ());
  let golden = Option.get (C.Golden.load ~dir level) in
  (* Perturb one value beyond rtol. *)
  let gate = C.Tolerance.Rel 0.5 in
  let perturbed =
    [
      row ~case:"A" ~attr:"gain" ~gate (Some 101.25) (Some 99.5);
      row ~case:"A" ~attr:"ugf" ~gate (Some 1.2346e6) (Some 1.1e6);
      row ~case:"B" ~attr:"zout" ~gate (Some 1e3) None;
    ]
  in
  (match C.Golden.compare_rows ~golden perturbed with
  | [ d ] ->
    Alcotest.(check string) "drifted attr" "ugf" d.C.Golden.attr;
    Alcotest.(check bool) "describes est drift" true
      (String.length d.C.Golden.what > 0)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 drift, got %d" (List.length l)));
  (* Tiny perturbation inside rtol is not drift. *)
  let nudged =
    [
      row ~case:"A" ~attr:"gain" ~gate (Some (101.25 *. (1. +. 1e-9))) (Some 99.5);
      row ~case:"A" ~attr:"ugf" ~gate (Some 1.2345e6) (Some 1.1e6);
      row ~case:"B" ~attr:"zout" ~gate (Some 1e3) None;
    ]
  in
  Alcotest.(check int) "within rtol is clean" 0
    (List.length (C.Golden.compare_rows ~golden nudged));
  (* Removed and added rows are both drift. *)
  let shrunk = [ List.hd (sample_rows ()) ] in
  Alcotest.(check int) "disappeared rows flagged" 2
    (List.length (C.Golden.compare_rows ~golden shrunk));
  Alcotest.(check int) "new rows flagged" 2
    (List.length
       (C.Golden.compare_rows ~golden:[ List.hd golden ] (sample_rows ())))

(* ---------- frozen calibrated-vs-raw error table ---------- *)

let test_calibrated_errors_frozen () =
  (* Fit a card from the catalog itself, re-run the checker through it,
     and hold the per-(level, attribute) error table against the frozen
     test/golden/calib_errors.tsv — promotable with APE_UPDATE_GOLDEN=1
     (or ape verify --update), like the value tables.  Hardening makes
     "calibrated never worse than raw" structural; gate it anyway. *)
  let card = C.Calibrate.fit ~slew:false proc in
  let outcome = C.Check.run ~slew:false ~calibration:card proc in
  let errors = C.Check.error_table outcome in
  Alcotest.(check bool) "has error rows" true (List.length errors >= 10);
  List.iter
    (fun (e : C.Golden.error_entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s calibrated %.4f <= raw %.4f" e.C.Golden.e_level
           e.C.Golden.e_attr e.C.Golden.cal_max e.C.Golden.raw_max)
        true
        (e.C.Golden.cal_max <= e.C.Golden.raw_max +. 1e-12))
    errors;
  let dir = "golden" in
  if C.Golden.update_requested () then begin
    C.Golden.save_errors ~dir errors;
    Printf.printf "promoted %s\n" (C.Golden.errors_path ~dir)
  end
  else
    match C.Golden.load_errors ~dir with
    | None ->
      Alcotest.fail
        "golden/calib_errors.tsv missing — promote it with \
         APE_UPDATE_GOLDEN=1"
    | Some golden ->
      (* Error values are ratios of nearly-cancelling est/sim pairs, so
         the cross-engine comparison needs the wider rtol on top of the
         absolute floor. *)
      let drifts = C.Golden.compare_errors ~rtol:1e-2 ~golden errors in
      List.iter
        (fun (d : C.Golden.drift) ->
          Printf.printf "error drift %s/%s: %s\n" d.C.Golden.case
            d.C.Golden.attr d.C.Golden.what)
        drifts;
      Alcotest.(check int) "no error drift" 0 (List.length drifts)

(* ---------- metamorphic properties ---------- *)

let prop_gm_monotone_in_wl =
  QCheck.Test.make ~name:"est_gm monotone in W/L" ~count:200
    QCheck.(pair (float_range 1. 50.) (float_range 1. 50.))
    (fun (a, b) ->
      QCheck.assume (Float.abs (a -. b) > 1e-9);
      let lo = Float.min a b and hi = Float.max a b in
      let gm w_over_l = Mos.est_gm proc.Proc.nmos ~w_over_l ~ids:10e-6 in
      gm lo < gm hi)

let prop_gm_monotone_in_ids =
  QCheck.Test.make ~name:"est_gm monotone in Ids" ~count:200
    QCheck.(pair (float_range 1e-6 1e-3) (float_range 1e-6 1e-3))
    (fun (a, b) ->
      QCheck.assume (Float.abs (a -. b) > 1e-12);
      let lo = Float.min a b and hi = Float.max a b in
      let gm ids = Mos.est_gm proc.Proc.nmos ~w_over_l:20. ~ids in
      gm lo < gm hi)

let prop_corner_bracketing =
  (* Slow / Typical / Fast corners must bracket the drain current at
     any saturated bias point. *)
  QCheck.Test.make ~name:"corner currents bracket typical" ~count:50
    QCheck.(float_range 1.5 3.0)
    (fun vgs ->
      let geom = Mos.geom ~w:10e-6 ~l:2.4e-6 in
      let ids corner =
        let p = Proc.corner corner proc in
        Mos.drain_current p.Proc.nmos geom ~vgs ~vds:2.5 ~vsb:0.
      in
      let slow = ids Proc.Slow
      and typ = ids Proc.Typical
      and fast = ids Proc.Fast in
      slow < typ && typ < fast)

let test_ugf_scales_with_itail () =
  (* Quadrupling the tail current roughly doubles gm and therefore the
     estimated UGF of the same diff-pair topology (gm ~ sqrt(I)). *)
  let ugf itail =
    let d =
      E.Diff_pair.design proc
        (E.Diff_pair.spec ~av:1000. ~cl:1e-12 E.Diff_pair.Cmos_mirror ~itail)
    in
    Option.get d.E.Diff_pair.perf.E.Perf.ugf
  in
  let u1 = ugf 1e-6 and u4 = ugf 4e-6 in
  Alcotest.(check bool)
    (Printf.sprintf "ugf(4I)=%g > ugf(I)=%g" u4 u1)
    true (u4 > 1.5 *. u1)

let test_opamp_corners_bracket_power () =
  (* The same opamp design re-simulated at Slow/Typical/Fast corners:
     static power must come out ordered with the corner mobility. *)
  let d =
    E.Opamp.design proc
      (E.Opamp.spec ~av:206. ~ugf:1.3e6 ~ibias:1e-6 ~cl:10e-12 ())
  in
  let frag = E.Opamp.fragment proc d in
  let base = E.Fragment.with_supply ~vdd:proc.Proc.vdd frag in
  let vcm = d.E.Opamp.input_cm in
  let base =
    Ape_circuit.Netlist.append base
      [
        Ape_circuit.Netlist.Vsource
          { name = "VINP"; p = "inp"; n = "0"; dc = vcm; ac = 0.5 };
        Ape_circuit.Netlist.Vsource
          { name = "VINN"; p = "inn"; n = "0"; dc = vcm; ac = -0.5 };
      ]
  in
  let power corner =
    let p = Proc.corner corner proc in
    let nl = Ape_circuit.Netlist.retarget_process p base in
    let op = Ape_spice.Dc.solve nl in
    Ape_spice.Dc.static_power op ~supply:"VDD"
  in
  let slow = power Proc.Slow
  and typ = power Proc.Typical
  and fast = power Proc.Fast in
  Alcotest.(check bool)
    (Printf.sprintf "slow %g <= typ %g <= fast %g" slow typ fast)
    true
    (slow <= typ && typ <= fast)

(* ---------- the regression gate itself ---------- *)

let test_device_level_all_pass () =
  let rows = C.Cases.device_rows proc in
  Alcotest.(check bool) "has rows" true (List.length rows >= 15);
  List.iter
    (fun (r : C.Diff.row) ->
      if r.C.Diff.status = C.Diff.Fail then
        Alcotest.fail
          (Printf.sprintf "%s/%s failed (est %s, sim %s)" r.C.Diff.case
             r.C.Diff.attr
             (match r.C.Diff.est with
             | Some v -> string_of_float v
             | None -> "-")
             (match r.C.Diff.sim with
             | Some v -> string_of_float v
             | None -> "-")))
    rows

let test_verify_against_checked_in_goldens () =
  (* The CI gate: every level inside tolerance AND bit-stable against
     the promoted tables in test/golden/. *)
  let outcome = C.Check.run ~golden_dir:"golden" proc in
  List.iter
    (fun (d : C.Golden.drift) ->
      Printf.printf "drift %s/%s: %s\n" d.C.Golden.case d.C.Golden.attr
        d.C.Golden.what)
    (C.Check.drifts outcome);
  List.iter
    (fun (r : C.Diff.row) ->
      Printf.printf "fail %s/%s\n" r.C.Diff.case r.C.Diff.attr)
    (C.Check.failures outcome);
  Alcotest.(check bool) "verify ok" true (C.Check.ok outcome)

let test_tolerance_tables () =
  List.iter
    (fun level ->
      let tols = C.Tolerance.for_level level in
      Alcotest.(check bool)
        (C.Tolerance.level_name level ^ " has gates")
        true
        (List.exists
           (fun t ->
             match t.C.Tolerance.gate with
             | C.Tolerance.Rel b -> b > 0.
             | C.Tolerance.Report_only -> false)
           tols);
      Alcotest.(check bool)
        (C.Tolerance.level_name level ^ " name round-trip")
        true
        (C.Tolerance.level_of_name (C.Tolerance.level_name level) = Some level))
    C.Tolerance.all_levels

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_check"
    [
      ( "diff",
        [
          Alcotest.test_case "status semantics" `Quick test_diff_status;
          Alcotest.test_case "relative error" `Quick test_rel_err;
        ] );
      ( "golden",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_golden_save_load;
          Alcotest.test_case "drift detection" `Quick
            test_golden_drift_detection;
        ] );
      ( "errors",
        [
          Alcotest.test_case "calibrated-vs-raw table frozen" `Quick
            test_calibrated_errors_frozen;
        ] );
      qsuite "metamorphic"
        [ prop_gm_monotone_in_wl; prop_gm_monotone_in_ids; prop_corner_bracketing ];
      ( "scaling",
        [
          Alcotest.test_case "UGF grows with tail current" `Quick
            test_ugf_scales_with_itail;
          Alcotest.test_case "corner power bracketing" `Quick
            test_opamp_corners_bracket_power;
        ] );
      ( "gate",
        [
          Alcotest.test_case "tolerance tables" `Quick test_tolerance_tables;
          Alcotest.test_case "device level passes" `Quick
            test_device_level_all_pass;
          Alcotest.test_case "golden tables match" `Quick
            test_verify_against_checked_in_goldens;
        ] );
    ]
