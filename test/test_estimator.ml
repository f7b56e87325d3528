(* Tests for Ape_estimator — the paper's core claim at every level:
   closed-form estimates agree with detailed simulation within
   engineering tolerances, and every design elaborates into a valid,
   solvable netlist. *)

module E = Ape_estimator
module N = Ape_circuit.Netlist
module Proc = Ape_process.Process

let proc = Proc.c12
let rel_error = Ape_oracle.Support.rel_error

let within msg tol reference measured =
  Alcotest.(check bool)
    (Printf.sprintf "%s: est %.6g vs sim %.6g (tol %.0f%%)" msg reference
       measured (100. *. tol))
    true
    (rel_error reference measured <= tol)

let within_opt msg tol reference measured =
  match (reference, measured) with
  | Some r, Some m -> within msg tol r m
  | _ -> Alcotest.fail (msg ^ ": missing value")

(* ---------- level 2: bias components ---------- *)

let test_dc_volt () =
  let d = E.Bias.Dc_volt.design proc { E.Bias.Dc_volt.vout = 2.5; i = 100e-6 } in
  let sim = E.Verify.sim_dc_volt proc d in
  within_opt "DCVolt output voltage" 0.05 d.E.Bias.Dc_volt.perf.E.Perf.gain
    sim.E.Perf.gain;
  within "DCVolt power" 0.08 d.E.Bias.Dc_volt.perf.E.Perf.dc_power
    sim.E.Perf.dc_power;
  within_opt "DCVolt current" 0.08 d.E.Bias.Dc_volt.perf.E.Perf.current
    sim.E.Perf.current

let test_dc_volt_stacked () =
  (* A 4.2 V output needs a two-diode stack. *)
  let d = E.Bias.Dc_volt.design proc { E.Bias.Dc_volt.vout = 4.2; i = 50e-6 } in
  Alcotest.(check int) "two diodes" 2 (List.length d.E.Bias.Dc_volt.stack);
  let sim = E.Verify.sim_dc_volt proc d in
  within_opt "stacked output" 0.08 (Some 4.2) sim.E.Perf.gain

let test_dc_volt_infeasible () =
  match E.Bias.Dc_volt.design proc { E.Bias.Dc_volt.vout = 0.3; i = 1e-6 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected infeasible vout"

let mirror_case topology rout_tol =
  let d =
    E.Bias.Current_mirror.design proc
      (E.Bias.Current_mirror.spec ~topology ~iout:100e-6 ())
  in
  let sim = E.Verify.sim_mirror proc d in
  within_opt
    (E.Bias.mirror_topology_name topology ^ " current")
    0.08
    d.E.Bias.Current_mirror.perf.E.Perf.current sim.E.Perf.current;
  within "mirror power" 0.05 d.E.Bias.Current_mirror.perf.E.Perf.dc_power
    sim.E.Perf.dc_power;
  match sim.E.Perf.zout with
  | Some z ->
    Alcotest.(check bool)
      (E.Bias.mirror_topology_name topology ^ " rout within band")
      true
      (rel_error d.E.Bias.Current_mirror.rout z <= rout_tol)
  | None -> Alcotest.fail "no rout measured"

let test_mirror_simple () = mirror_case E.Bias.Simple 0.2
let test_mirror_cascode () = mirror_case E.Bias.Cascode 0.5
let test_mirror_wilson () = mirror_case E.Bias.Wilson 0.6

let test_mirror_ratio () =
  (* 10:1 ratio mirror sinks ~10x the reference. *)
  let d =
    E.Bias.Current_mirror.design proc
      (E.Bias.Current_mirror.spec ~iin:10e-6 ~iout:100e-6 ())
  in
  let sim = E.Verify.sim_mirror proc d in
  within_opt "ratioed output current" 0.1 (Some 100e-6) sim.E.Perf.current;
  (* Power is paid in the reference branch only. *)
  within "ratioed power" 0.1 (5. *. 10e-6)
    d.E.Bias.Current_mirror.perf.E.Perf.dc_power

let test_mirror_ordering () =
  (* Output resistance: cascode/wilson >> simple; area grows with device
     count. *)
  let design t =
    E.Bias.Current_mirror.design proc
      (E.Bias.Current_mirror.spec ~topology:t ~iout:100e-6 ())
  in
  let s = design E.Bias.Simple
  and c = design E.Bias.Cascode
  and w = design E.Bias.Wilson in
  Alcotest.(check bool) "cascode rout >> simple" true
    (c.E.Bias.Current_mirror.rout > 10. *. s.E.Bias.Current_mirror.rout);
  Alcotest.(check bool) "wilson rout >> simple" true
    (w.E.Bias.Current_mirror.rout > 5. *. s.E.Bias.Current_mirror.rout);
  Alcotest.(check bool) "cascode area > simple" true
    (c.E.Bias.Current_mirror.perf.E.Perf.gate_area
    > s.E.Bias.Current_mirror.perf.E.Perf.gate_area)

(* ---------- level 2: gain stages ---------- *)

let stage_case kind av i ~gain_tol =
  let d = E.Gain_stage.design proc (E.Gain_stage.spec ~av ~cl:1e-12 kind ~i) in
  let sim = E.Verify.sim_gain_stage proc d in
  within "stage power" 0.05 d.E.Gain_stage.perf.E.Perf.dc_power
    sim.E.Perf.dc_power;
  within_opt
    (E.Gain_stage.kind_name kind ^ " gain")
    gain_tol d.E.Gain_stage.perf.E.Perf.gain sim.E.Perf.gain;
  (d, sim)

let test_gain_nmos () =
  ignore (stage_case E.Gain_stage.Gain_nmos 8.5 120e-6 ~gain_tol:0.4)

let test_gain_cmos () =
  let d, sim = stage_case E.Gain_stage.Gain_cmos 19. 120e-6 ~gain_tol:0.25 in
  within_opt "GainCMOS ugf" 0.35 d.E.Gain_stage.ugf sim.E.Perf.ugf

let test_gain_cmosh () =
  ignore (stage_case E.Gain_stage.Gain_cmosh 5.1 45e-6 ~gain_tol:0.25)

let test_follower () =
  let d =
    E.Gain_stage.design proc
      (E.Gain_stage.spec E.Gain_stage.Follower_stage ~i:100e-6)
  in
  let sim = E.Verify.sim_gain_stage proc d in
  within_opt "follower gain" 0.03 d.E.Gain_stage.perf.E.Perf.gain
    sim.E.Perf.gain;
  Alcotest.(check bool) "follower gain < 1" true
    (match sim.E.Perf.gain with Some s -> s < 1. | None -> false);
  within_opt "follower zout" 0.3 (Some d.E.Gain_stage.zout) sim.E.Perf.zout

(* ---------- level 2: differential pairs ---------- *)

let test_diff_cmos () =
  let d =
    E.Diff_pair.design proc
      (E.Diff_pair.spec ~av:1000. E.Diff_pair.Cmos_mirror ~itail:1e-6)
  in
  let sim = E.Verify.sim_diff_pair proc d in
  within_opt "DiffCMOS gain" 0.45 d.E.Diff_pair.perf.E.Perf.gain
    sim.E.Perf.gain;
  within "DiffCMOS power" 0.08 d.E.Diff_pair.perf.E.Perf.dc_power
    sim.E.Perf.dc_power;
  Alcotest.(check bool) "gain positive (mirror load)" true
    (match sim.E.Perf.gain with Some g -> g > 0. | None -> false);
  Alcotest.(check bool) "CMRR large" true
    (match sim.E.Perf.cmrr with Some c -> c > 1e4 | None -> false)

let test_diff_nmos () =
  let d =
    E.Diff_pair.design proc
      (E.Diff_pair.spec ~av:4. E.Diff_pair.Nmos_diode ~itail:1e-6)
  in
  let sim = E.Verify.sim_diff_pair proc d in
  Alcotest.(check bool) "gain negative (diode load, paper convention)" true
    (match sim.E.Perf.gain with Some g -> g < 0. | None -> false);
  within_opt "DiffNMOS gain magnitude" 0.45
    (Option.map Float.abs d.E.Diff_pair.perf.E.Perf.gain)
    (Option.map Float.abs sim.E.Perf.gain)

let test_diff_noise () =
  (* Estimated input-referred noise within a factor 2 of the measured
     MNA noise analysis. *)
  let d =
    E.Diff_pair.design proc
      (E.Diff_pair.spec ~av:300. E.Diff_pair.Cmos_mirror ~itail:4e-6)
  in
  let sim = E.Verify.sim_diff_pair proc d in
  match (d.E.Diff_pair.perf.E.Perf.noise, sim.E.Perf.noise) with
  | Some est, Some meas ->
    Alcotest.(check bool)
      (Printf.sprintf "noise within x2 (est %.3g, sim %.3g)" est meas)
      true
      (meas /. est < 2.0 && meas /. est > 0.5)
  | _ -> Alcotest.fail "noise estimates missing"

let test_diff_mismatch_mc () =
  (* Pelgrom offset estimate within a factor ~2 of a Monte-Carlo
     measurement with per-device threshold jitter. *)
  let d =
    E.Diff_pair.design proc
      (E.Diff_pair.spec ~av:300. E.Diff_pair.Cmos_mirror ~itail:4e-6)
  in
  let mc = E.Verify.monte_carlo_offset ~seed:3 proc d in
  match d.E.Diff_pair.perf.E.Perf.offset_sigma with
  | Some est ->
    Alcotest.(check bool)
      (Printf.sprintf "offset sigma within x2.5 (est %.3g, MC %.3g)" est mc)
      true
      (mc /. est < 2.5 && mc /. est > 0.4)
  | None -> Alcotest.fail "offset sigma missing"

let test_mismatch_scales_with_area () =
  (* Bigger devices match better: sigma falls when the same circuit is
     drawn at a longer channel. *)
  let sigma l =
    let d =
      E.Diff_pair.design ~l proc
        (E.Diff_pair.spec ~av:100. E.Diff_pair.Cmos_mirror ~itail:4e-6)
    in
    Option.get d.E.Diff_pair.perf.E.Perf.offset_sigma
  in
  Alcotest.(check bool) "sigma shrinks with area" true
    (sigma 9.6e-6 < sigma 2.4e-6)

let test_diff_tail_topologies () =
  (* Wilson tail improves CMRR over the simple tail. *)
  let cmrr topo =
    let d =
      E.Diff_pair.design proc
        (E.Diff_pair.spec ~av:500. ~tail_topology:topo
           E.Diff_pair.Cmos_mirror ~itail:2e-6)
    in
    d.E.Diff_pair.cmrr
  in
  Alcotest.(check bool) "wilson tail raises est CMRR" true
    (cmrr E.Bias.Wilson > 3. *. cmrr E.Bias.Simple)

(* ---------- level 3: opamps ---------- *)

let opamp_case ?(gain_tol = 0.1) ?(ugf_tol = 0.5) ?(power_tol = 0.08) spec =
  let d = E.Opamp.design proc spec in
  let sim = E.Verify.sim_opamp ~slew:false proc d in
  within_opt "opamp gain" gain_tol d.E.Opamp.perf.E.Perf.gain sim.E.Perf.gain;
  within "opamp power" power_tol d.E.Opamp.perf.E.Perf.dc_power
    sim.E.Perf.dc_power;
  within_opt "opamp ugf" ugf_tol d.E.Opamp.perf.E.Perf.ugf sim.E.Perf.ugf;
  (d, sim)

let test_opamp_single_stage () =
  let d, sim =
    opamp_case (E.Opamp.spec ~av:300. ~ugf:3e6 ~ibias:1e-6 ~cl:10e-12 ())
  in
  Alcotest.(check bool) "single stage" true (d.E.Opamp.stage2 = None);
  Alcotest.(check bool) "meets gain spec in sim" true
    (match sim.E.Perf.gain with Some g -> g >= 300. | None -> false)

let test_opamp_buffered () =
  let d, sim =
    opamp_case
      (E.Opamp.spec ~buffer:true ~zout:1e3 ~bias_topology:E.Bias.Wilson
         ~av:206. ~ugf:1.3e6 ~ibias:1e-6 ~cl:10e-12 ())
  in
  Alcotest.(check bool) "has buffer" true (d.E.Opamp.buffer <> None);
  match sim.E.Perf.zout with
  | Some z -> Alcotest.(check bool) "zout <= spec" true (z <= 1e3)
  | None -> Alcotest.fail "no zout"

let test_opamp_two_stage () =
  let d, _ =
    opamp_case ~gain_tol:0.25 ~power_tol:0.2
      (E.Opamp.spec ~force_stage2:true ~av:5000. ~ugf:1e6 ~ibias:1e-6
         ~cl:10e-12 ())
  in
  Alcotest.(check bool) "has second stage" true (d.E.Opamp.stage2 <> None);
  Alcotest.(check bool) "gain exceeds single-stage ceiling" true
    (d.E.Opamp.gain > 2000.)

let test_opamp_infeasible () =
  match E.Opamp.design proc (E.Opamp.spec ~av:(-5.) ~ugf:1e6 ~ibias:1e-6 ()) with
  | exception E.Opamp.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_opamp_slew_spec () =
  (* A slew-rate spec must raise the tail current. *)
  let base = E.Opamp.design proc (E.Opamp.spec ~av:100. ~ugf:1e6 ~ibias:1e-6 ()) in
  let fast =
    E.Opamp.design proc
      (E.Opamp.spec ~sr:20e6 ~av:100. ~ugf:1e6 ~ibias:1e-6 ())
  in
  Alcotest.(check bool) "slew spec raises tail" true
    (fast.E.Opamp.diff.E.Diff_pair.spec.E.Diff_pair.itail
    > base.E.Opamp.diff.E.Diff_pair.spec.E.Diff_pair.itail);
  Alcotest.(check bool) "slew estimate meets spec" true
    (fast.E.Opamp.slew_rate >= 20e6 *. 0.9)

(* ---------- level 4: modules ---------- *)

let test_module_sh () =
  let d =
    E.Module_lib.design proc
      (E.Module_lib.Sample_hold_m
         (E.Sample_hold.spec ~gain:2.0 ~bandwidth:20e3 ~sr:1e4 ()))
  in
  let sim = E.Verify.sim_module proc d in
  within_opt "s&h gain" 0.06 (Some 2.0) sim.E.Verify.perf.E.Perf.gain;
  (match sim.E.Verify.perf.E.Perf.bandwidth with
  | Some bw -> Alcotest.(check bool) "s&h bw meets spec" true (bw >= 20e3)
  | None -> Alcotest.fail "no bandwidth");
  match sim.E.Verify.response_time with
  | Some t -> Alcotest.(check bool) "acquisition < 1 ms" true (t < 1e-3)
  | None -> Alcotest.fail "no response time"

let test_module_lpf () =
  let d =
    E.Module_lib.design proc
      (E.Module_lib.Lowpass_m { E.Filter.order = 4; f_cutoff = 1e3; r_base = 1e6 })
  in
  let sim = E.Verify.sim_module proc d in
  within_opt "lpf f3db" 0.25 (Some 1e3) sim.E.Verify.perf.E.Perf.bandwidth;
  (* Butterworth selectivity: -20 dB within a factor ~1.8 of fc. *)
  match sim.E.Verify.f_20db with
  | Some f -> Alcotest.(check bool) "f-20dB close to 1.78 kHz" true
      (rel_error 1.78e3 f < 0.15)
  | None -> Alcotest.fail "no f-20dB"

let test_module_bpf () =
  let d =
    E.Module_lib.design proc
      (E.Module_lib.Bandpass_m
         { E.Filter.f_center = 1e3; q = 1.; gain = 1.5; c_base = 10e-9 })
  in
  let sim = E.Verify.sim_module proc d in
  within_opt "bpf f0" 0.1 (Some 1e3) sim.E.Verify.f0;
  within_opt "bpf gain" 0.15 (Some 1.5) sim.E.Verify.perf.E.Perf.gain

let test_module_adc () =
  let d =
    E.Module_lib.design proc
      (E.Module_lib.Flash_adc_m (E.Data_conv.Flash_adc.spec ~bits:4 ~delay:5e-6 ()))
  in
  let sim = E.Verify.sim_module proc d in
  (match sim.E.Verify.dc_code_error with
  | Some err -> Alcotest.(check bool) "mid-code trip < 0.5 LSB" true (err < 0.5)
  | None -> Alcotest.fail "no code error");
  match sim.E.Verify.response_time with
  | Some t -> Alcotest.(check bool) "delay <= spec" true (t <= 5e-6)
  | None -> Alcotest.fail "no delay"

let test_module_dac () =
  let d =
    E.Module_lib.design proc
      (E.Module_lib.Dac_m (E.Data_conv.Dac.spec ~bits:4 ~settling:5e-6 ()))
  in
  let sim = E.Verify.sim_module proc d in
  (match sim.E.Verify.dc_code_error with
  | Some err -> Alcotest.(check bool) "mid-code error < 0.5 LSB" true (err < 0.5)
  | None -> Alcotest.fail "no code error");
  match sim.E.Verify.response_time with
  | Some t -> Alcotest.(check bool) "settling < 5x estimate" true
      (t < 5. *. (match d with
                  | E.Module_lib.D_dac dd -> dd.E.Data_conv.Dac.settling_est
                  | _ -> 0.))
  | None -> Alcotest.fail "no settling"

let test_module_inverting () =
  let d =
    E.Module_lib.design proc
      (E.Module_lib.Closed_loop_m
         (E.Closed_loop.spec ~bandwidth:100e3
            (E.Closed_loop.Inverting { gain = 10. })))
  in
  let sim = E.Verify.sim_module proc d in
  within_opt "inverting gain" 0.08 (Some (-10.)) sim.E.Verify.perf.E.Perf.gain

let test_module_integrator () =
  let d =
    E.Module_lib.design proc
      (E.Module_lib.Closed_loop_m
         (E.Closed_loop.spec ~bandwidth:50e3
            (E.Closed_loop.Integrator { f_unity = 10e3 })))
  in
  let sim = E.Verify.sim_module proc d in
  (* Unity crossing near the designed f_unity. *)
  within_opt "integrator unity frequency" 0.1 (Some 10e3)
    sim.E.Verify.perf.E.Perf.bandwidth

let test_module_audio () =
  let d = E.Module_lib.design proc (E.Module_lib.Audio_amp { gain = 100.; bandwidth = 20e3 }) in
  let sim = E.Verify.sim_module proc d in
  within_opt "audio gain" 0.35 (Some 100.) sim.E.Verify.perf.E.Perf.gain;
  match sim.E.Verify.perf.E.Perf.bandwidth with
  | Some bw -> Alcotest.(check bool) "bandwidth above 8 kHz" true (bw > 8e3)
  | None -> Alcotest.fail "no bandwidth"

(* ---------- symbolic equations (DESIGN.md D5) ---------- *)

let test_equations_cross_check () =
  (* The paper's symbolic equations (2)-(4) must agree with the
     hand-coded estimation-view functions. *)
  let nmos = proc.Proc.nmos in
  let kp = nmos.Ape_process.Model_card.kp in
  let env =
    Ape_symbolic.Expr.Env.of_list
      [
        ("kp", kp); ("w_over_l", 12.); ("ids", 25e-6); ("gm", 1e-4);
        ("gamma", nmos.Ape_process.Model_card.gamma);
        ("phi", nmos.Ape_process.Model_card.phi); ("vsb", 1.0);
        ("lambda", Ape_process.Model_card.lambda_at nmos 2.4e-6);
        ("vds", 2.5);
      ]
  in
  let eval e = Ape_symbolic.Expr.eval env e in
  ignore kp;
  within "eq2 = est_gm" 1e-9
    (Ape_device.Mos.est_gm nmos ~w_over_l:12. ~ids:25e-6)
    (eval E.Equations.eq2_gm);
  within "eq3 = est_gmb" 1e-9
    (Ape_device.Mos.est_gmb nmos ~gm:1e-4 ~vsb:1.0)
    (eval E.Equations.eq3_gmb);
  within "eq4 = est_gds" 1e-9
    (Ape_device.Mos.est_gds nmos ~l:2.4e-6 ~ids:25e-6 ~vds:2.5)
    (eval E.Equations.eq4_gd)

let test_equations_diffcmos () =
  (* Equations (5)-(7) must agree with the values Diff_pair computes. *)
  let d =
    E.Diff_pair.design proc
      (E.Diff_pair.spec ~av:500. E.Diff_pair.Cmos_mirror ~itail:2e-6)
  in
  let env =
    Ape_symbolic.Expr.Env.of_list
      [
        ("gmi", d.E.Diff_pair.pair.Ape_device.Mos.gm);
        ("gdi", d.E.Diff_pair.pair.Ape_device.Mos.gds);
        ("gml", d.E.Diff_pair.load_dev.Ape_device.Mos.gm);
        ("gdl", d.E.Diff_pair.load_dev.Ape_device.Mos.gds);
        ("g0", 1. /. d.E.Diff_pair.tail.E.Bias.Current_mirror.rout);
      ]
  in
  let eval e = Ape_symbolic.Expr.eval env e in
  within "eq5 = Adm" 1e-9 d.E.Diff_pair.gain (eval E.Equations.eq5_adm);
  within "eq6 = |Acm|" 1e-9 d.E.Diff_pair.acm
    (Float.abs (eval E.Equations.eq6_acm));
  within "eq7 = CMRR" 1e-9 d.E.Diff_pair.cmrr (eval E.Equations.eq7_cmrr)

let test_equations_inversion () =
  (* Solving eq2 for W/L symbolically equals the closed form. *)
  let kp = proc.Proc.nmos.Ape_process.Model_card.kp in
  let wl = E.Equations.solve_wl_for_gm ~kp ~gm:150e-6 ~ids:20e-6 in
  within "symbolic W/L inversion" 1e-6
    (Ape_device.Mos.size_for_gm_id proc.Proc.nmos ~gm:150e-6 ~ids:20e-6)
    wl;
  (* Square-law sensitivity of gm to Id is exactly 1/2. *)
  within "gm sensitivity to Id" 1e-9 0.5
    (E.Equations.sensitivity_gm_to_ids ~kp ~w_over_l:10. ~ids:5e-6)

(* ---------- structural invariants ---------- *)

let all_module_specs =
  [
    E.Module_lib.Audio_amp { gain = 100.; bandwidth = 20e3 };
    E.Module_lib.Sample_hold_m (E.Sample_hold.spec ~gain:2. ~bandwidth:20e3 ~sr:1e4 ());
    E.Module_lib.Flash_adc_m (E.Data_conv.Flash_adc.spec ~bits:3 ~delay:5e-6 ());
    E.Module_lib.Dac_m (E.Data_conv.Dac.spec ~bits:4 ~settling:5e-6 ());
    E.Module_lib.Lowpass_m { E.Filter.order = 4; f_cutoff = 1e3; r_base = 1e6 };
    E.Module_lib.Bandpass_m { E.Filter.f_center = 1e3; q = 1.; gain = 1.5; c_base = 10e-9 };
    E.Module_lib.Closed_loop_m
      (E.Closed_loop.spec ~bandwidth:50e3 (E.Closed_loop.Inverting { gain = 5. }));
    E.Module_lib.Comparator_m (E.Data_conv.Comparator.spec ~delay:1e-6 ());
  ]

let test_all_fragments_valid () =
  (* Every module elaborates into a netlist whose supply-completed form
     passes structural validation. *)
  List.iter
    (fun spec ->
      let d = E.Module_lib.design proc spec in
      let frag = E.Module_lib.fragment proc d in
      let nl = E.Fragment.with_supply ~vdd:5. frag in
      (* Attach trivial drives on the input ports so validation's
         two-connection rule holds, then validate. *)
      let drives =
        List.filter_map
          (fun (role, node) ->
            if role = "vdd" || role = "out" || role = "vref" then None
            else if String.length role >= 1 then
              Some
                (N.Resistor
                   { name = "RT" ^ role; a = node; b = "0"; r = 1e9 })
            else None)
          frag.E.Fragment.ports
      in
      let nl = N.append nl drives in
      match N.validate nl with
      | () -> ()
      | exception N.Invalid_netlist msg ->
        Alcotest.fail (E.Module_lib.name d ^ ": invalid netlist: " ^ msg))
    all_module_specs

let test_perf_positive () =
  List.iter
    (fun spec ->
      let d = E.Module_lib.design proc spec in
      let p = E.Module_lib.perf d in
      Alcotest.(check bool)
        (E.Module_lib.name d ^ " positive area")
        true (p.E.Perf.gate_area > 0.);
      Alcotest.(check bool)
        (E.Module_lib.name d ^ " positive power")
        true (p.E.Perf.dc_power > 0.);
      Alcotest.(check bool)
        (E.Module_lib.name d ^ " total >= gate area")
        true
        (p.E.Perf.total_area >= p.E.Perf.gate_area))
    all_module_specs

let test_hierarchy_composition () =
  (* Figure 2: a level-4 module netlist strictly contains its level-3
     opamp's devices, which contain level-2 parts. *)
  let d =
    E.Module_lib.design proc
      (E.Module_lib.Closed_loop_m
         (E.Closed_loop.spec ~bandwidth:50e3 (E.Closed_loop.Inverting { gain = 5. })))
  in
  let frag = E.Module_lib.fragment proc d in
  let names = List.map N.element_name (N.elements frag.E.Fragment.netlist) in
  Alcotest.(check bool) "contains opamp instance" true
    (List.exists (fun n -> String.length n > 4 && String.sub n 0 4 = "op1.") names);
  Alcotest.(check bool) "opamp contains diff instance" true
    (List.exists
       (fun n -> String.length n > 7 && String.sub n 0 7 = "op1.d1.")
       names);
  Alcotest.(check bool) "diff contains tail mirror instance" true
    (List.exists
       (fun n ->
         String.length n > 12 && String.sub n 0 12 = "op1.d1.tail.")
       names)

(* ---------- level 4: ideal-vs-nonideal correction bounds ---------- *)

let test_closed_loop_correction_bounds () =
  let spec =
    E.Closed_loop.spec ~bandwidth:20e3 (E.Closed_loop.Inverting { gain = 10. })
  in
  let d = E.Closed_loop.design proc spec in
  let ideal = Float.abs d.E.Closed_loop.gain_ideal in
  let est = Float.abs d.E.Closed_loop.gain_est in
  Alcotest.(check bool)
    "finite loop gain shrinks the ideal gain" true (est < ideal);
  (* The sizing rule A >= 20*NG caps the static error at ~5 %. *)
  Alcotest.(check bool)
    (Printf.sprintf "correction within 5%% (est %.3f of ideal %.1f)" est ideal)
    true
    (est >= 0.95 *. ideal);
  (* UGF is sized at 1.3x NG*bandwidth, so the closed-loop bandwidth
     must cover the spec with margin. *)
  Alcotest.(check bool)
    "closed-loop bandwidth covers the spec" true
    (d.E.Closed_loop.bandwidth_est >= spec.E.Closed_loop.bandwidth);
  Alcotest.(check bool)
    "opamp gain respects the 20x noise-gain rule" true
    (Float.abs d.E.Closed_loop.opamp.E.Opamp.gain
    >= 20.
       *. (1. +. 10.)
       *. 0.99)

let test_closed_loop_invalid () =
  (match
     E.Closed_loop.design proc
       (E.Closed_loop.spec ~bandwidth:20e3
          (E.Closed_loop.Non_inverting { gain = 0.5 }))
   with
  | _ -> Alcotest.fail "noise gain < 1 must be rejected"
  | exception Invalid_argument _ -> ());
  match E.Sample_hold.design proc (E.Sample_hold.spec ~gain:0.5 ~bandwidth:20e3 ~sr:1e4 ()) with
  | _ -> Alcotest.fail "S&H gain < 1 must be rejected"
  | exception Invalid_argument _ -> ()

let test_sample_hold_response_bounds () =
  let s = E.Sample_hold.spec ~gain:2. ~bandwidth:20e3 ~sr:1e4 () in
  let d = E.Sample_hold.design proc s in
  let tau_switch = s.E.Sample_hold.r_on *. s.E.Sample_hold.c_hold in
  Alcotest.(check bool)
    "response covers the 1% switch acquisition" true
    (d.E.Sample_hold.response_time_est > 4.6 *. tau_switch);
  within_opt "non-inverting gain correction" 0.05 (Some s.E.Sample_hold.gain)
    d.E.Sample_hold.perf.E.Perf.gain;
  (* A slower switch can only lengthen the acquisition. *)
  let slow =
    E.Sample_hold.design proc
      (E.Sample_hold.spec ~r_on:1e5 ~gain:2. ~bandwidth:20e3 ~sr:1e4 ())
  in
  Alcotest.(check bool)
    "response monotone in switch resistance" true
    (slow.E.Sample_hold.response_time_est
    > d.E.Sample_hold.response_time_est)

let test_audio_amp_correction () =
  let d =
    E.Audio_amp.design proc { E.Audio_amp.gain = 100.; bandwidth = 20e3 }
  in
  (* The trim divider is solved to land exactly on the spec gain... *)
  Alcotest.(check (float 1e-9)) "trimmed gain is exact" 100.
    d.E.Audio_amp.gain_est;
  (* ...which requires the untrimmed core to exceed it. *)
  Alcotest.(check bool)
    "raw core gain above the trimmed target" true
    (d.E.Audio_amp.opamp.E.Opamp.gain > 100.);
  Alcotest.(check bool) "trim resistance positive" true (d.E.Audio_amp.r_trim > 0.);
  Alcotest.(check bool)
    "bandwidth estimate covers the spec" true
    (d.E.Audio_amp.bandwidth_est >= 20e3);
  match E.Audio_amp.design proc { E.Audio_amp.gain = 1.; bandwidth = 20e3 } with
  | _ -> Alcotest.fail "gain <= 1 must be rejected"
  | exception Invalid_argument _ -> ()

let prop_opamp_monotone_gm =
  QCheck.Test.make ~name:"higher UGF spec needs at least as much gm"
    ~count:12
    (QCheck.float_range 1e6 8e6)
    (fun ugf ->
      let d1 = E.Opamp.design proc (E.Opamp.spec ~av:100. ~ugf ~ibias:1e-6 ()) in
      let d2 =
        E.Opamp.design proc (E.Opamp.spec ~av:100. ~ugf:(1.5 *. ugf) ~ibias:1e-6 ())
      in
      d2.E.Opamp.diff.E.Diff_pair.gm >= d1.E.Opamp.diff.E.Diff_pair.gm *. 0.99)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_estimator"
    [
      ( "level2-bias",
        [
          Alcotest.test_case "DCVolt" `Quick test_dc_volt;
          Alcotest.test_case "DCVolt stacked" `Quick test_dc_volt_stacked;
          Alcotest.test_case "DCVolt infeasible" `Quick test_dc_volt_infeasible;
          Alcotest.test_case "simple mirror" `Quick test_mirror_simple;
          Alcotest.test_case "cascode mirror" `Quick test_mirror_cascode;
          Alcotest.test_case "wilson mirror" `Quick test_mirror_wilson;
          Alcotest.test_case "ratioed mirror" `Quick test_mirror_ratio;
          Alcotest.test_case "topology ordering" `Quick test_mirror_ordering;
        ] );
      ( "level2-stages",
        [
          Alcotest.test_case "GainNMOS" `Quick test_gain_nmos;
          Alcotest.test_case "GainCMOS" `Quick test_gain_cmos;
          Alcotest.test_case "GainCMOSH" `Quick test_gain_cmosh;
          Alcotest.test_case "Follower" `Quick test_follower;
        ] );
      ( "level2-diff",
        [
          Alcotest.test_case "DiffCMOS" `Quick test_diff_cmos;
          Alcotest.test_case "DiffNMOS" `Quick test_diff_nmos;
          Alcotest.test_case "tail topologies" `Quick test_diff_tail_topologies;
          Alcotest.test_case "noise est vs sim" `Quick test_diff_noise;
          Alcotest.test_case "mismatch vs Monte-Carlo" `Quick
            test_diff_mismatch_mc;
          Alcotest.test_case "mismatch area scaling" `Quick
            test_mismatch_scales_with_area;
        ] );
      ( "level3-opamp",
        [
          Alcotest.test_case "single stage" `Quick test_opamp_single_stage;
          Alcotest.test_case "buffered" `Quick test_opamp_buffered;
          Alcotest.test_case "two stage" `Quick test_opamp_two_stage;
          Alcotest.test_case "infeasible" `Quick test_opamp_infeasible;
          Alcotest.test_case "slew spec" `Quick test_opamp_slew_spec;
        ] );
      ( "level4-modules",
        [
          Alcotest.test_case "sample&hold" `Quick test_module_sh;
          Alcotest.test_case "lpf" `Quick test_module_lpf;
          Alcotest.test_case "bpf" `Quick test_module_bpf;
          Alcotest.test_case "flash adc" `Quick test_module_adc;
          Alcotest.test_case "dac" `Quick test_module_dac;
          Alcotest.test_case "inverting amp" `Quick test_module_inverting;
          Alcotest.test_case "integrator" `Quick test_module_integrator;
          Alcotest.test_case "audio amp" `Quick test_module_audio;
        ] );
      ( "level4-corrections",
        [
          Alcotest.test_case "closed-loop finite-gain bound" `Quick
            test_closed_loop_correction_bounds;
          Alcotest.test_case "closed-loop invalid specs" `Quick
            test_closed_loop_invalid;
          Alcotest.test_case "sample&hold response bounds" `Quick
            test_sample_hold_response_bounds;
          Alcotest.test_case "audio amp trim correction" `Quick
            test_audio_amp_correction;
        ] );
      ( "symbolic-equations",
        [
          Alcotest.test_case "eq2-4 cross-check" `Quick
            test_equations_cross_check;
          Alcotest.test_case "eq5-7 vs Diff_pair" `Quick
            test_equations_diffcmos;
          Alcotest.test_case "symbolic inversion" `Quick
            test_equations_inversion;
        ] );
      ( "structure",
        [
          Alcotest.test_case "fragments valid" `Quick test_all_fragments_valid;
          Alcotest.test_case "perf positive" `Quick test_perf_positive;
          Alcotest.test_case "hierarchy composition" `Quick
            test_hierarchy_composition;
        ] );
      qsuite "properties" [ prop_opamp_monotone_gm ];
    ]
