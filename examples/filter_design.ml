(* Active-filter design (paper Figure 3c/3d):
     dune exec examples/filter_design.exe

   Designs the Table-5 low-pass (4th-order Sallen-Key Butterworth,
   1 kHz) and band-pass (MFB biquad, 1 kHz) modules, prints the
   estimates, elaborates to transistor level and sweeps the simulated
   response so the Butterworth shape is visible. *)

module E = Ape_estimator
module N = Ape_circuit.Netlist
let proc = Ape_process.Process.c12
let pf = Printf.printf
let eng = Ape_util.Units.to_eng

module Measure = Ape_spice.Measure.Prepared

let sweep_response netlist ~out ~freqs =
  let prep = Ape_spice.Ac.prepare (Ape_spice.Dc.solve netlist) in
  List.map (fun f -> (f, Measure.gain_at ~out prep f)) freqs

let bar gain gain_max =
  let width = int_of_float (40. *. gain /. gain_max) in
  String.make (max 0 (min 60 width)) '#'

let () =
  pf "== 4th-order Sallen-Key Butterworth low-pass, fc = 1 kHz ==\n";
  let lp =
    E.Filter.design_lp proc { E.Filter.order = 4; f_cutoff = 1e3; r_base = 1e6 }
  in
  List.iteri
    (fun i (s : E.Filter.stage) ->
      pf "  stage %d: Q=%.3f K=%.3f R=%s C=%sF (opamp: %s)\n" (i + 1)
        s.E.Filter.q s.E.Filter.k (eng s.E.Filter.r) (eng s.E.Filter.c)
        (E.Opamp.describe s.E.Filter.opamp))
    lp.E.Filter.stages;
  pf "  est: gain=%.3f f-3dB=%s f-20dB=%s power=%s\n" lp.E.Filter.gain_est
    (eng lp.E.Filter.f3db_est) (eng lp.E.Filter.f20db_est)
    (eng lp.E.Filter.perf.E.Perf.dc_power);

  let frag = E.Filter.fragment_lp proc lp in
  let nl = E.Fragment.with_supply ~vdd:5. frag in
  let nl =
    N.append nl
      [ N.Vsource { name = "VIN"; p = "in"; n = N.ground; dc = 2.5; ac = 1. } ]
  in
  pf "  elaboration: %d MOSFETs, %d elements\n" (N.mosfet_count nl)
    (N.device_count nl);
  pf "  simulated response:\n";
  let freqs = Ape_util.Float_ext.logspace 50. 20e3 14 in
  let response = sweep_response nl ~out:"out" ~freqs in
  let gmax = List.fold_left (fun m (_, g) -> Float.max m g) 0. response in
  List.iter
    (fun (f, g) ->
      pf "    %8sHz  %6.3f  %s\n" (eng f) g (bar g gmax))
    response;

  pf "\n== MFB band-pass, f0 = 1 kHz, Q = 1 ==\n";
  let bp =
    E.Filter.design_bp proc
      { E.Filter.f_center = 1e3; q = 1.; gain = 1.5; c_base = 10e-9 }
  in
  pf "  R1=%s R2=%s R3=%s C=%sF\n" (eng bp.E.Filter.r1) (eng bp.E.Filter.r2)
    (eng bp.E.Filter.r3) (eng bp.E.Filter.bp_spec.E.Filter.c_base);
  pf "  est: f0=%s gain=%.2f BW=%s\n" (eng bp.E.Filter.f0_est)
    bp.E.Filter.gain_est (eng bp.E.Filter.bw_est);
  let fragb = E.Filter.fragment_bp proc bp in
  let nlb = E.Fragment.with_supply ~vdd:5. fragb in
  let nlb =
    N.append nlb
      [ N.Vsource { name = "VIN"; p = "in"; n = N.ground; dc = 2.5; ac = 1. } ]
  in
  let freqs = Ape_util.Float_ext.logspace 50. 20e3 14 in
  let response = sweep_response nlb ~out:"out" ~freqs in
  let gmax = List.fold_left (fun m (_, g) -> Float.max m g) 0. response in
  pf "  simulated response:\n";
  List.iter
    (fun (f, g) -> pf "    %8sHz  %6.3f  %s\n" (eng f) g (bar g gmax))
    response;
  let prep = Ape_spice.Ac.prepare (Ape_spice.Dc.solve nlb) in
  match Measure.bandpass_characteristics ~fmin:20. ~fmax:50e3 ~out:"out" prep with
  | Some c ->
    pf "  measured: f0=%s peak=%.2f BW=%s\n" (eng c.Measure.f_center)
      c.Measure.peak_gain (eng c.Measure.bandwidth)
  | None -> pf "  (no band-pass peak found)\n"
