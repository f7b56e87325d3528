(* Data-converter design (paper Figure 3e):
     dune exec examples/adc_design.exe

   Designs the Table-5 4-bit flash ADC and a companion R-2R DAC,
   prints the hierarchy (comparator <- opamp <- diff pair <- mirror),
   checks the converter's static transfer against the elaborated
   transistor-level netlist, and measures the comparator delay. *)

module E = Ape_estimator
module N = Ape_circuit.Netlist
let proc = Ape_process.Process.c12
let pf = Printf.printf
let eng = Ape_util.Units.to_eng

let () =
  pf "== 4-bit flash ADC, conversion delay <= 5 us ==\n";
  let adc =
    E.Data_conv.Flash_adc.design proc
      (E.Data_conv.Flash_adc.spec ~bits:4 ~delay:5e-6 ())
  in
  let comp = adc.E.Data_conv.Flash_adc.comparator in
  pf "  unit comparator: %s\n"
    (E.Opamp.describe comp.E.Data_conv.Comparator.opamp);
  pf "  comparator delay estimate: %ss\n"
    (eng comp.E.Data_conv.Comparator.delay_est);
  pf "  ladder: %sOhm total, window [%g V, %g V]\n"
    (eng adc.E.Data_conv.Flash_adc.spec.E.Data_conv.Flash_adc.r_ladder)
    adc.E.Data_conv.Flash_adc.spec.E.Data_conv.Flash_adc.vref_lo
    adc.E.Data_conv.Flash_adc.spec.E.Data_conv.Flash_adc.vref_hi;
  pf "  estimate: area=%.0f um^2 power=%s\n"
    (adc.E.Data_conv.Flash_adc.perf.E.Perf.gate_area /. 1e-12)
    (eng adc.E.Data_conv.Flash_adc.perf.E.Perf.dc_power);

  let frag = E.Data_conv.Flash_adc.fragment proc adc in
  let nl = E.Fragment.with_supply ~vdd:5. frag in
  pf "  elaboration: %d MOSFETs, %d elements, %d nodes\n"
    (N.mosfet_count nl) (N.device_count nl)
    (List.length (N.nodes nl));

  (* Static transfer: sweep the input over all 16 codes and read the
     thermometer outputs. *)
  pf "\n  static transfer (thermometer code, from the full netlist):\n";
  let nl =
    N.append nl
      [ N.Vsource { name = "VIN"; p = "in"; n = N.ground; dc = 0.; ac = 0. } ]
  in
  let lsb = 3.0 /. 16. in
  let vref_lo = 1.0 in
  (* Warm-start each solve from the previous code's operating point —
     the continuation a designer's DC sweep would use. *)
  let warm = ref None in
  List.iter
    (fun code ->
      let vin = vref_lo +. ((float_of_int code +. 0.5) *. lsb) in
      let nl = E.Verify.set_source ~name:"VIN" ~dc:vin nl in
      let op = Ape_spice.Dc.solve ?x0:!warm nl in
      warm := Some op.Ape_spice.Dc.x;
      let ones = ref 0 in
      for k = 1 to 15 do
        let node = E.Fragment.port frag (Printf.sprintf "t%d" k) in
        if Ape_spice.Dc.voltage op node > 2.5 then incr ones
      done;
      pf "    vin=%5.3f V  ->  code %2d (%s)\n" vin !ones
        (if !ones = code then "ok" else Printf.sprintf "expected %d" code))
    [ 0; 3; 7; 8; 12; 15 ];

  (* Dynamic: the comparator's measured response. *)
  let sim = E.Verify.sim_module proc (E.Module_lib.D_adc adc) in
  (match sim.E.Verify.response_time with
  | Some t -> pf "\n  measured comparator delay: %ss (spec 5 us)\n" (eng t)
  | None -> pf "\n  comparator delay not measured\n");
  (match sim.E.Verify.dc_code_error with
  | Some e -> pf "  mid-code trip error: %.3f LSB\n" e
  | None -> ());

  pf "\n== 4-bit R-2R DAC, settling <= 5 us ==\n";
  let dac =
    E.Data_conv.Dac.design proc (E.Data_conv.Dac.spec ~bits:4 ~settling:5e-6 ())
  in
  pf "  buffer: %s\n" (E.Opamp.describe dac.E.Data_conv.Dac.buffer);
  pf "  settling estimate: %ss\n" (eng dac.E.Data_conv.Dac.settling_est);
  let sim = E.Verify.sim_module proc (E.Module_lib.D_dac dac) in
  (match sim.E.Verify.perf.E.Perf.gain with
  | Some v -> pf "  mid-code (1000) output: %.4f V (ideal 2.5)\n" v
  | None -> ());
  (match sim.E.Verify.dc_code_error with
  | Some e -> pf "  static error: %.3f LSB\n" e
  | None -> ());
  match sim.E.Verify.response_time with
  | Some t -> pf "  measured settling (1000 -> 0100): %ss\n" (eng t)
  | None -> pf "  settling not measured\n"
