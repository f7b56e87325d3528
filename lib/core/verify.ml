module N = Ape_circuit.Netlist
module Proc = Ape_process.Process
module Dc = Ape_spice.Dc
module Measure = Ape_spice.Measure
module Ac = Ape_spice.Ac

exception Verification_failed of string

(* Every public bench runs under one root span, named like the span
   bench/e2e wraps a verify op in, so a traced run splits that row into
   the bench's phases: "servo", "ac", "slew" and one span per module
   kind. *)
let sim_span f = Ape_obs.span "estimator.sim" f

let set_source ?dc ?ac ~name netlist =
  let found = ref false in
  let elements =
    List.map
      (fun e ->
        match e with
        | N.Vsource ({ name = n; _ } as v) when String.equal n name ->
          found := true;
          N.Vsource
            {
              v with
              dc = Option.value dc ~default:v.dc;
              ac = Option.value ac ~default:v.ac;
            }
        | N.Isource ({ name = n; _ } as i) when String.equal n name ->
          found := true;
          N.Isource
            {
              i with
              dc = Option.value dc ~default:i.dc;
              ac = Option.value ac ~default:i.ac;
            }
        | N.Mosfet _ | N.Resistor _ | N.Capacitor _ | N.Vsource _
        | N.Isource _ | N.Vcvs _ | N.Switch _ ->
          e)
      (N.elements netlist)
  in
  if not !found then raise Not_found;
  N.make ~title:netlist.N.title elements

let servo ~tol ~out ~target ~lo ~hi bench =
  Ape_obs.span "servo" @@ fun () ->
  (* Every point Brent evaluates is kept: its root is always one of
     them, so the root's netlist and operating point need no re-solve.
     The probes differ in element values only, so the first probe's
     index serves them all. *)
  let solved = ref [] and index = ref None in
  let err k =
    let nl = bench k in
    let op = Dc.solve ?index:!index nl in
    index := Some op.Dc.index;
    solved := (k, (nl, op)) :: !solved;
    Dc.voltage op out -. target
  in
  let k = Ape_util.Rootfind.brent ~tol err lo hi in
  let nl, op = List.assoc k !solved in
  (k, nl, op)

(* The differential benches' knob: an input offset split evenly around
   the common-mode level. *)
let with_offset ~vcm netlist off =
  netlist
  |> set_source ~name:"VINP" ~dc:(vcm +. (off /. 2.))
  |> set_source ~name:"VINN" ~dc:(vcm -. (off /. 2.))

(* Servo the differential offset so the output sits at [target]; when
   no offset in +-0.3 V reaches it, bias at zero offset instead. *)
let servo_offset ~tol ~vcm ~target netlist =
  match
    servo ~tol ~out:"out" ~target ~lo:(-0.3) ~hi:0.3 (with_offset ~vcm netlist)
  with
  | found -> found
  | exception Ape_util.Rootfind.No_bracket ->
    let nl = with_offset ~vcm netlist 0. in
    (0., nl, Dc.solve nl)

(* |Z_out| at 1 Hz: the held operating point re-excited by a 1 A AC probe
   into "out", with the named input drives nulled. *)
let zout_probe prep netlist ~inputs =
  let nl =
    List.fold_left (fun nl name -> set_source ~name ~ac:0. nl) netlist inputs
  in
  let nl =
    N.append nl
      [ N.Isource { name = "IPROBE"; p = "out"; n = N.ground; dc = 0.; ac = 1. } ]
  in
  Measure.Prepared.gain_at ~out:"out" (Ac.excite prep nl) 1.0

(* Common-mode gain: both inputs of the held operating point driven in
   phase. *)
let common_mode_gain prep netlist =
  netlist
  |> set_source ~name:"VINP" ~ac:1.
  |> set_source ~name:"VINN" ~ac:1.
  |> Ac.excite prep
  |> Measure.Prepared.dc_gain ~out:"out"

(* Shared testbench assembly: fragment netlist + VDD source. *)
let with_vdd process fragment =
  Fragment.with_supply ~vdd:process.Proc.vdd fragment

let power op = Dc.static_power op ~supply:"VDD"

let sim_dc_volt (process : Proc.t) (design : Bias.Dc_volt.design) =
  sim_span @@ fun () ->
  let frag = Bias.Dc_volt.fragment process design in
  let netlist = with_vdd process frag in
  let op = Dc.solve netlist in
  let vout = Dc.voltage op "out" in
  let current = (process.Proc.vdd -. vout) /. design.Bias.Dc_volt.r_bias in
  {
    Perf.empty with
    Perf.gate_area = N.gate_area netlist;
    total_area =
      N.gate_area netlist
      +. Proc.resistor_area process design.Bias.Dc_volt.r_bias;
    dc_power = power op;
    gain = Some vout;
    current = Some current;
  }

let sim_mirror (process : Proc.t) (design : Bias.Current_mirror.design) =
  sim_span @@ fun () ->
  let frag = Bias.Current_mirror.fragment process design in
  let netlist = with_vdd process frag in
  (* Hold the output at mid-supply and read the sunk current; a 1 A AC
     probe on the same source gives the output resistance. *)
  let netlist =
    N.append netlist
      [
        N.Vsource
          { name = "VOUT"; p = "out"; n = N.ground; dc = 2.5; ac = 0. };
      ]
  in
  let op = Dc.solve netlist in
  let iout =
    match Dc.branch_current op "VOUT" with
    | Some i -> Float.abs i
    | None -> raise (Verification_failed "mirror: VOUT branch missing")
  in
  (* Output resistance: finite-difference the output current against the
     output voltage. *)
  let dv = 0.2 in
  let op_hi = Dc.solve (set_source ~name:"VOUT" ~dc:(2.5 +. dv) netlist) in
  let i_hi =
    match Dc.branch_current op_hi "VOUT" with
    | Some i -> Float.abs i
    | None -> iout
  in
  let rout = if i_hi = iout then infinity else dv /. (i_hi -. iout) in
  {
    Perf.empty with
    Perf.gate_area = N.gate_area netlist;
    total_area =
      N.gate_area netlist
      +. Proc.resistor_area process design.Bias.Current_mirror.r_bias;
    dc_power = power op;
    current = Some iout;
    zout = Some (Float.abs rout);
  }

let sim_gain_stage (process : Proc.t) (design : Gain_stage.design) =
  sim_span @@ fun () ->
  let frag = Gain_stage.fragment process design in
  let netlist = with_vdd process frag in
  let netlist =
    N.append netlist
      [
        N.Vsource
          {
            name = "VIN";
            p = "in";
            n = N.ground;
            dc = design.Gain_stage.input_dc;
            ac = 1.;
          };
        N.Capacitor
          { name = "CL"; a = "out"; b = N.ground; c = design.Gain_stage.spec.Gain_stage.cl };
      ]
  in
  let netlist, op =
    if not design.Gain_stage.needs_servo then (netlist, Dc.solve netlist)
    else
      let target = design.Gain_stage.output_dc in
      match
        servo ~tol:1e-7 ~out:"out" ~target
          ~lo:(design.Gain_stage.input_dc -. 0.5)
          ~hi:(design.Gain_stage.input_dc +. 0.5)
          (fun dc -> set_source ~name:"VIN" ~dc netlist)
      with
      | _, nl, op -> (nl, op)
      | exception Ape_util.Rootfind.No_bracket ->
        raise
          (Verification_failed
             (Printf.sprintf "servo on VIN cannot reach V(out)=%g" target))
  in
  (* One AC preparation serves the gain, both frequency searches and
     the output-impedance probe. *)
  let signed_gain, ugf, bw, zout =
    Ape_obs.span "ac" @@ fun () ->
    let prep = Ac.prepare op in
    let signed_gain = Measure.Prepared.dc_gain_signed ~out:"out" prep in
    let ugf = Measure.Prepared.unity_gain_frequency ~out:"out" prep in
    let bw = Measure.Prepared.f_minus_3db ~out:"out" prep in
    (signed_gain, ugf, bw, zout_probe prep netlist ~inputs:[ "VIN" ])
  in
  {
    Perf.empty with
    Perf.gate_area = N.gate_area netlist;
    total_area = N.gate_area netlist;
    dc_power = power op;
    gain = Some signed_gain;
    ugf;
    bandwidth = bw;
    zout = Some zout;
    current = design.Gain_stage.perf.Perf.current;
  }

let opamp_testbench (process : Proc.t) ~cl (design : Opamp.design) =
  let vcm = design.Opamp.input_cm in
  N.append
    (with_vdd process (Opamp.fragment process design))
    [
      N.Vsource { name = "VINP"; p = "inp"; n = N.ground; dc = vcm; ac = 0.5 };
      N.Vsource { name = "VINN"; p = "inn"; n = N.ground; dc = vcm; ac = -0.5 };
      N.Capacitor { name = "CL"; a = "out"; b = N.ground; c = cl };
    ]

let sim_opamp ?(slew = true) (process : Proc.t) (design : Opamp.design) =
  sim_span @@ fun () ->
  let vcm = design.Opamp.input_cm in
  let base = opamp_testbench process ~cl:design.Opamp.spec.Opamp.cl design in
  let offset, netlist, op =
    servo_offset ~tol:1e-10 ~vcm ~target:design.Opamp.output_dc base
  in
  let adm, ugf, pm, cmrr, zout =
    Ape_obs.span "ac" @@ fun () ->
    let prep = Ac.prepare op in
    let adm = Measure.Prepared.dc_gain ~out:"out" prep in
    let ugf = Measure.Prepared.unity_gain_frequency ~out:"out" prep in
    let pm =
      Option.map
        (fun ugf -> Measure.Prepared.phase_margin ~ugf ~out:"out" prep)
        ugf
    in
    let acm = common_mode_gain prep netlist in
    let cmrr = if acm > 0. then adm /. acm else infinity in
    (adm, ugf, pm, cmrr, zout_probe prep netlist ~inputs:[ "VINP"; "VINN" ])
  in
  (* Bias reference current: the drop across the tail mirror's reference
     resistor (named R1 inside the spliced tail instance). *)
  let ibias =
    let v_ref = Dc.voltage op "d1.tail.min" in
    (process.Proc.vdd -. v_ref)
    /. design.Opamp.diff.Diff_pair.tail.Bias.Current_mirror.r_bias
  in
  let slew_rate =
    if not slew then None
    else
      Ape_obs.span "slew" @@ fun () ->
      (* Unity-feedback buffer: a 0 V source wires out to inn; step the
         positive input and watch the output ramp. *)
      let nl =
        N.append netlist
          [
            N.Vsource { name = "VFB"; p = "out"; n = "inn"; dc = 0.; ac = 0. };
          ]
      in
      (* Null VINP's AC drive and DC-bias the step input at its t=0
         level so the transient starts from equilibrium. *)
      let nl = set_source ~name:"VINP" ~dc:(vcm -. 0.5) ~ac:0. nl in
      (* Detach VINN's drive: the feedback wire now sets inn. *)
      let nl =
        N.make ~title:nl.N.title
          (List.filter
             (fun e ->
               not (String.equal (N.element_name e) "VINN"))
             (N.elements nl))
      in
      match Dc.solve nl with
      | exception Dc.No_convergence _ -> None
      | op_fb ->
        let est_sr = Float.max 1e3 design.Opamp.slew_rate in
        let tstop = Ape_util.Float_ext.clamp ~lo:1e-7 ~hi:1e-3 (4. /. est_sr) in
        let dt = tstop /. 600. in
        let step_wave =
          Ape_spice.Transient.step ~t0:(2. *. dt)
            ~low:(vcm -. 0.5) ~high:(vcm +. 0.5) ()
        in
        (* 10 %→90 % transition slope, immune to capacitive feedthrough
           spikes at the step edge.  Once both first crossings are in,
           in order, later samples cannot move them: the run ends
           there, and goes on to [tstop] only when the slope must fall
           back to the whole waveform's. *)
        let lo = vcm -. 0.5 +. 0.1 and hi = vcm -. 0.5 +. 0.9 in
        (match
           Ape_spice.Transient.run
             ~until:[ ("out", lo); ("out", hi) ]
             ~stimulus:[ ("VINP", step_wave) ]
             ~tstop ~dt op_fb
         with
        | exception Ape_spice.Transient.Step_failed _ -> None
        | result ->
          let t10 = Ape_spice.Transient.crossing_time result "out" ~level:lo in
          let t90 = Ape_spice.Transient.crossing_time result "out" ~level:hi in
          (match (t10, t90) with
          | Some t10, Some t90 when t90 > t10 -> Some (0.8 /. (t90 -. t10))
          | _ -> Some (Ape_spice.Transient.max_slope result "out")))
  in
  {
    Perf.empty with
    Perf.gate_area = N.gate_area netlist;
    total_area = N.gate_area netlist;
    dc_power = power op;
    gain = Some adm;
    ugf;
    cmrr = Some cmrr;
    zout = Some zout;
    current = Some ibias;
    offset = Some offset;
    slew_rate;
    phase_margin = pm;
  }

let sim_diff_pair (process : Proc.t) (design : Diff_pair.design) =
  sim_span @@ fun () ->
  let frag = Diff_pair.fragment process design in
  let netlist = with_vdd process frag in
  let vcm = design.Diff_pair.input_cm in
  let cl = design.Diff_pair.spec.Diff_pair.cl in
  let netlist =
    N.append netlist
      [
        N.Vsource { name = "VINP"; p = "inp"; n = N.ground; dc = vcm; ac = 0.5 };
        N.Vsource { name = "VINN"; p = "inn"; n = N.ground; dc = vcm; ac = -0.5 };
        N.Capacitor { name = "CL"; a = "out"; b = N.ground; c = cl };
      ]
  in
  (* Servo the differential offset so the output sits at its intended
     level (real benches do the same with a feedback loop). *)
  let offset, netlist, op =
    servo_offset ~tol:1e-9 ~vcm ~target:design.Diff_pair.output_dc netlist
  in
  let signed_adm, ugf, cmrr, noise =
    Ape_obs.span "ac" @@ fun () ->
    let prep = Ac.prepare op in
    let adm = Measure.Prepared.dc_gain ~out:"out" prep in
    let signed_adm = Measure.Prepared.dc_gain_signed ~out:"out" prep in
    let ugf = Measure.Prepared.unity_gain_frequency ~out:"out" prep in
    let acm = common_mode_gain prep netlist in
    let cmrr = if acm > 0. then adm /. acm else infinity in
    let noise =
      match
        Ape_spice.Noise.input_referred_prepared ~out:"out" ~freq:1e3 prep
      with
      | v -> Some v
      | exception Division_by_zero -> None
    in
    (signed_adm, ugf, cmrr, noise)
  in
  {
    Perf.empty with
    Perf.gate_area = N.gate_area netlist;
    total_area = N.gate_area netlist;
    dc_power = power op;
    gain = Some signed_adm;
    ugf;
    cmrr = Some cmrr;
    current = design.Diff_pair.perf.Perf.current;
    offset = Some offset;
    noise;
  }

(* Perturb every MOSFET's threshold with a Pelgrom-distributed sample. *)
let jitter_thresholds rng netlist =
  let elements =
    List.map
      (fun e ->
        match e with
        | N.Mosfet ({ card; geom; _ } as m) ->
          let sigma =
            card.Ape_process.Model_card.avt
            /. Float.sqrt (Ape_device.Mos.gate_area geom)
          in
          let delta = Ape_util.Rng.gauss rng ~mean:0. ~sigma in
          N.Mosfet
            {
              m with
              card =
                {
                  card with
                  Ape_process.Model_card.vto =
                    card.Ape_process.Model_card.vto +. delta;
                };
            }
        | N.Resistor _ | N.Capacitor _ | N.Vsource _ | N.Isource _
        | N.Vcvs _ | N.Switch _ ->
          e)
      (N.elements netlist)
  in
  N.make ~title:netlist.N.title elements

let monte_carlo_offset ?(seed = 1) (process : Proc.t)
    (design : Diff_pair.design) =
  sim_span @@ fun () ->
  let frag = Diff_pair.fragment process design in
  let netlist = with_vdd process frag in
  let vcm = design.Diff_pair.input_cm in
  let netlist =
    N.append netlist
      [
        N.Vsource { name = "VINP"; p = "inp"; n = N.ground; dc = vcm; ac = 0. };
        N.Vsource { name = "VINN"; p = "inn"; n = N.ground; dc = vcm; ac = 0. };
        N.Capacitor { name = "CL"; a = "out"; b = N.ground; c = 1e-12 };
      ]
  in
  let rng = Ape_util.Rng.create seed in
  let offsets =
    List.init 25 (fun _ ->
        let sample = jitter_thresholds rng netlist in
        match
          servo ~tol:1e-8 ~out:"out" ~target:design.Diff_pair.output_dc
            ~lo:(-0.08) ~hi:0.08 (with_offset ~vcm sample)
        with
        | offset, _, _ -> Some offset
        | exception (Ape_util.Rootfind.No_bracket | Dc.No_convergence _) ->
          None)
    |> List.filter_map Fun.id
  in
  match offsets with
  | [] -> 0.
  | _ ->
    let n = float_of_int (List.length offsets) in
    let mean = List.fold_left ( +. ) 0. offsets /. n in
    let var =
      List.fold_left
        (fun acc o -> acc +. ((o -. mean) *. (o -. mean)))
        0. offsets
      /. Float.max 1. (n -. 1.)
    in
    Float.sqrt var

(* ------------------------------------------------------------------ *)
(* Level-4 module verification.                                        *)
(* ------------------------------------------------------------------ *)

type module_sim = {
  perf : Perf.t;
  response_time : float option;
  f0 : float option;
  f_20db : float option;
  dc_code_error : float option;
}

let module_sim_of_perf perf =
  { perf; response_time = None; f0 = None; f_20db = None; dc_code_error = None }

(* Audio amplifier: open-loop AC testbench on the trimmed two-stage
   core. *)
let sim_audio process (d : Audio_amp.design) =
  let frag = Audio_amp.fragment process d in
  let netlist = with_vdd process frag in
  let core = d.Audio_amp.opamp in
  let vcm = core.Opamp.input_cm in
  let netlist =
    N.append netlist
      [
        N.Vsource { name = "VINP"; p = "inp"; n = N.ground; dc = vcm; ac = 0.5 };
        N.Vsource { name = "VINN"; p = "inn"; n = N.ground; dc = vcm; ac = -0.5 };
        N.Capacitor { name = "CL"; a = "out"; b = N.ground; c = 10e-12 };
      ]
  in
  (* The trim divider already centres the output; servo the residual. *)
  let offset, _, op =
    servo_offset ~tol:1e-10 ~vcm ~target:(process.Proc.vdd /. 2.) netlist
  in
  let prep = Ac.prepare op in
  let gain = Measure.Prepared.dc_gain ~out:"out" prep in
  let bw = Measure.Prepared.f_minus_3db ~out:"out" prep in
  let ugf = Measure.Prepared.unity_gain_frequency ~out:"out" prep in
  module_sim_of_perf
    {
      Perf.empty with
      Perf.gate_area = N.gate_area netlist;
      total_area = N.gate_area netlist;
      dc_power = power op;
      gain = Some gain;
      bandwidth = bw;
      ugf;
      offset = Some offset;
    }

let sim_closed process (d : Closed_loop.design) =
  let frag = Closed_loop.fragment process d in
  let netlist = with_vdd process frag in
  let vmid = process.Proc.vdd /. 2. in
  let in_ports =
    match d.Closed_loop.spec.Closed_loop.kind with
    | Closed_loop.Adder { gains } ->
      List.mapi (fun i _ -> Printf.sprintf "in%d" (i + 1)) gains
    | Closed_loop.Inverting _ | Closed_loop.Non_inverting _
    | Closed_loop.Integrator _ ->
      [ "in" ]
  in
  let sources =
    List.mapi
      (fun i port ->
        N.Vsource
          {
            name = Printf.sprintf "VIN%d" (i + 1);
            p = port;
            n = N.ground;
            dc = vmid;
            ac = (if i = 0 then 1. else 0.);
          })
      in_ports
  in
  let netlist =
    N.append netlist
      (sources
      @ [
          N.Capacitor
            {
              name = "CL";
              a = "out";
              b = N.ground;
              c = d.Closed_loop.spec.Closed_loop.cl;
            };
        ])
  in
  let op = Dc.solve netlist in
  let prep = Ac.prepare op in
  let gain, bw =
    match d.Closed_loop.spec.Closed_loop.kind with
    | Closed_loop.Integrator { f_unity } ->
      (* Gain magnitude at the unity frequency; "bandwidth" is the
         frequency where the response crosses 1. *)
      let g = Measure.Prepared.gain_at ~out:"out" prep f_unity in
      let f1 =
        Measure.Prepared.unity_gain_frequency ~fmin:1. ~out:"out" prep
      in
      (-.g, f1)
    | Closed_loop.Inverting _ | Closed_loop.Non_inverting _
    | Closed_loop.Adder _ ->
      ( Measure.Prepared.dc_gain_signed ~out:"out" prep,
        Measure.Prepared.f_minus_3db ~out:"out" prep )
  in
  module_sim_of_perf
    {
      Perf.empty with
      Perf.gate_area = N.gate_area netlist;
      total_area = N.gate_area netlist;
      dc_power = power op;
      gain = Some gain;
      bandwidth = bw;
    }

let sim_lpf process (d : Filter.lp_design) =
  let frag = Filter.fragment_lp process d in
  let netlist = with_vdd process frag in
  let vmid = process.Proc.vdd /. 2. in
  let netlist =
    N.append netlist
      [ N.Vsource { name = "VIN"; p = "in"; n = N.ground; dc = vmid; ac = 1. } ]
  in
  let op = Dc.solve netlist in
  let fc = d.Filter.lp_spec.Filter.f_cutoff in
  let prep = Ac.prepare op in
  let gain = Measure.Prepared.dc_gain ~out:"out" prep in
  let f3 =
    Measure.Prepared.f_minus_3db ~fmin:(fc /. 100.) ~fmax:(fc *. 100.)
      ~out:"out" prep
  in
  let f20 =
    Measure.Prepared.f_level_db ~fmin:(fc /. 100.) ~fmax:(fc *. 100.)
      ~level_db:(-20.) ~out:"out" prep
  in
  {
    (module_sim_of_perf
       {
         Perf.empty with
         Perf.gate_area = N.gate_area netlist;
         total_area = N.gate_area netlist;
         dc_power = power op;
         gain = Some gain;
         bandwidth = f3;
       })
    with
    f_20db = f20;
  }

let sim_bpf process (d : Filter.bp_design) =
  let frag = Filter.fragment_bp process d in
  let netlist = with_vdd process frag in
  let vmid = process.Proc.vdd /. 2. in
  let netlist =
    N.append netlist
      [ N.Vsource { name = "VIN"; p = "in"; n = N.ground; dc = vmid; ac = 1. } ]
  in
  let op = Dc.solve netlist in
  let f0_spec = d.Filter.bp_spec.Filter.f_center in
  let bp =
    Measure.Prepared.bandpass_characteristics ~fmin:(f0_spec /. 100.)
      ~fmax:(f0_spec *. 100.) ~out:"out" (Ac.prepare op)
  in
  let gain, bw, f0 =
    match bp with
    | Some b ->
      ( Some b.Measure.Prepared.peak_gain,
        Some b.Measure.Prepared.bandwidth,
        Some b.Measure.Prepared.f_center )
    | None -> (None, None, None)
  in
  {
    (module_sim_of_perf
       {
         Perf.empty with
         Perf.gate_area = N.gate_area netlist;
         total_area = N.gate_area netlist;
         dc_power = power op;
         gain;
         bandwidth = bw;
       })
    with
    f0;
  }

let sim_sample_hold process (d : Sample_hold.design) =
  let frag = Sample_hold.fragment process d in
  let netlist = with_vdd process frag in
  let vmid = process.Proc.vdd /. 2. in
  let netlist =
    N.append netlist
      [
        N.Vsource { name = "VIN"; p = "in"; n = N.ground; dc = vmid; ac = 1. };
        N.Vsource
          { name = "VCTRL"; p = "ctrl"; n = N.ground; dc = process.Proc.vdd; ac = 0. };
        N.Capacitor { name = "CLOAD"; a = "out"; b = N.ground; c = 10e-12 };
      ]
  in
  let op = Dc.solve netlist in
  let prep = Ac.prepare op in
  let gain = Measure.Prepared.dc_gain ~out:"out" prep in
  let bw = Measure.Prepared.f_minus_3db ~out:"out" prep in
  (* Acquisition: step the input by 0.4 V in track mode, settle to 1 %. *)
  let t_est = Float.max 1e-6 d.Sample_hold.response_time_est in
  let tstop = 6. *. t_est in
  let dt = tstop /. 900. in
  let dv = 0.4 in
  let response_time, slew =
    match
      Ape_spice.Transient.run
        ~stimulus:
          [ ("VIN", Ape_spice.Transient.step ~t0:(5. *. dt) ~low:vmid ~high:(vmid +. dv) ()) ]
        ~tstop ~dt op
    with
    | exception Ape_spice.Transient.Step_failed _ -> (None, None)
    | result ->
      (* Settle to the waveform's own final value (the large-signal gain
         compresses slightly relative to the small-signal measurement). *)
      let v0 = Ape_spice.Transient.value_at result "out" 0. in
      let final = Ape_spice.Transient.value_at result "out" tstop in
      let swing = Float.abs (final -. v0) in
      let settle =
        if swing < 1e-3 then None
        else
          Ape_spice.Transient.settling_time result "out" ~final
            ~band:(0.02 *. swing /. Float.abs final)
      in
      let settle = Option.map (fun t -> t -. (5. *. dt)) settle in
      (settle, Some (Ape_spice.Transient.max_slope result "out"))
  in
  {
    (module_sim_of_perf
       {
         Perf.empty with
         Perf.gate_area = N.gate_area netlist;
         total_area = N.gate_area netlist;
         dc_power = power op;
         gain = Some gain;
         bandwidth = bw;
         slew_rate = slew;
       })
    with
    response_time;
  }

let sim_comparator process (d : Data_conv.Comparator.design) =
  let frag = Data_conv.Comparator.fragment process d in
  let netlist = with_vdd process frag in
  let vmid = process.Proc.vdd /. 2. in
  let od = d.Data_conv.Comparator.spec.Data_conv.Comparator.overdrive in
  let netlist =
    N.append netlist
      [
        N.Vsource { name = "VINP"; p = "inp"; n = N.ground; dc = vmid -. od; ac = 0. };
        N.Vsource { name = "VINN"; p = "inn"; n = N.ground; dc = vmid; ac = 0. };
        N.Capacitor { name = "CL"; a = "out"; b = N.ground; c = 0.5e-12 };
      ]
  in
  let op = Dc.solve netlist in
  let t_est = Float.max 1e-8 d.Data_conv.Comparator.delay_est in
  let tstop = 8. *. t_est in
  let dt = tstop /. 800. in
  let t0 = 5. *. dt in
  let wave =
    Ape_spice.Transient.step ~t0 ~low:(vmid -. od) ~high:(vmid +. od) ()
  in
  (* The response time reads only the first mid-rail crossing: the run
     ends there. *)
  let response_time =
    match
      Ape_spice.Transient.run
        ~until:[ ("out", vmid) ]
        ~stimulus:[ ("VINP", wave) ]
        ~tstop ~dt op
    with
    | exception Ape_spice.Transient.Step_failed _ -> None
    | result -> (
      match
        Ape_spice.Transient.crossing_time result "out" ~level:vmid
      with
      | Some t when t > t0 -> Some (t -. t0)
      | Some _ | None -> None)
  in
  {
    (module_sim_of_perf
       {
         Perf.empty with
         Perf.gate_area = N.gate_area netlist;
         total_area = N.gate_area netlist;
         dc_power = power op;
       })
    with
    response_time;
  }

let sim_flash_adc process (d : Data_conv.Flash_adc.design) =
  let frag = Data_conv.Flash_adc.fragment process d in
  (* The converter's "out" port aliases the mid comparator's output node
     (named dN inside the fragment). *)
  let out_node = Fragment.port frag "out" in
  let netlist = with_vdd process frag in
  let vmid = process.Proc.vdd /. 2. in
  let netlist =
    N.append netlist
      [ N.Vsource { name = "VIN"; p = "in"; n = N.ground; dc = vmid; ac = 0. } ]
  in
  let op = Dc.solve netlist in
  let static_perf =
    {
      Perf.empty with
      Perf.gate_area = N.gate_area netlist;
      total_area = N.gate_area netlist;
      dc_power = power op;
    }
  in
  (* Mid-code trip point: bisect the input for the mid comparator's
     output crossing. *)
  let spec_adc = d.Data_conv.Flash_adc.spec in
  let bits = spec_adc.Data_conv.Flash_adc.bits in
  let lsb =
    (spec_adc.Data_conv.Flash_adc.vref_hi
    -. spec_adc.Data_conv.Flash_adc.vref_lo)
    /. float_of_int (1 lsl bits)
  in
  let mid_level =
    spec_adc.Data_conv.Flash_adc.vref_lo
    +. (float_of_int (1 lsl (bits - 1)) *. lsb)
  in
  let trip =
    match
      servo ~tol:1e-6 ~out:out_node ~target:vmid ~lo:(mid_level -. lsb)
        ~hi:(mid_level +. lsb)
        (fun dc -> set_source ~name:"VIN" ~dc netlist)
    with
    | vin, _, _ -> Some vin
    | exception Ape_util.Rootfind.No_bracket -> None
  in
  let dc_code_error =
    Option.map (fun t -> Float.abs (t -. mid_level) /. lsb) trip
  in
  (* Delay: one comparator's step response (all comparators are
     identical; simulating 2^n of them in transient buys nothing). *)
  let comp_sim = sim_comparator process d.Data_conv.Flash_adc.comparator in
  {
    (module_sim_of_perf static_perf) with
    response_time = comp_sim.response_time;
    dc_code_error;
  }

let sim_dac process (d : Data_conv.Dac.design) =
  let frag = Data_conv.Dac.fragment process d in
  let netlist = with_vdd process frag in
  let bits = d.Data_conv.Dac.spec.Data_conv.Dac.bits in
  let vdd = process.Proc.vdd in
  (* Code 100..0 (MSB set): ideal output = VDD/2. *)
  let sources =
    List.init bits (fun k ->
        N.Vsource
          {
            name = Printf.sprintf "VB%d" k;
            p = Printf.sprintf "b%d" k;
            n = N.ground;
            dc = (if k = bits - 1 then vdd else 0.);
            ac = 0.;
          })
  in
  let netlist =
    N.append netlist
      (sources
      @ [ N.Capacitor { name = "CL"; a = "out"; b = N.ground; c = 5e-12 } ])
  in
  let op = Dc.solve netlist in
  let vout = Dc.voltage op "out" in
  let lsb = vdd /. float_of_int (1 lsl bits) in
  let dc_code_error = Some (Float.abs (vout -. (vdd /. 2.)) /. lsb) in
  (* Settling: drop the MSB (half-scale step). *)
  let t_est = Float.max 1e-7 d.Data_conv.Dac.settling_est in
  let tstop = 8. *. t_est in
  let dt = tstop /. 800. in
  let t0 = 5. *. dt in
  (* Quarter-scale step 1000→0100: target stays well inside the output
     range of the single-supply buffer. *)
  let msb = Printf.sprintf "VB%d" (bits - 1) in
  let next = Printf.sprintf "VB%d" (bits - 2) in
  let response_time =
    match
      Ape_spice.Transient.run
        ~stimulus:
          [
            (msb, fun t -> if t < t0 then vdd else 0.);
            (next, fun t -> if t < t0 then 0. else vdd);
          ]
        ~tstop ~dt op
    with
    | exception Ape_spice.Transient.Step_failed _ -> None
    | result ->
      let final = vout -. (vdd /. 4.) in
      (match
         Ape_spice.Transient.settling_time result "out" ~final
           ~band:(0.5 *. lsb /. Float.max 1e-3 (Float.abs final))
       with
      | Some t when t > t0 -> Some (t -. t0)
      | Some _ | None -> None)
  in
  {
    (module_sim_of_perf
       {
         Perf.empty with
         Perf.gate_area = N.gate_area netlist;
         total_area = N.gate_area netlist;
         dc_power = power op;
         gain = Some vout;
       })
    with
    response_time;
    dc_code_error;
  }

let sim_module process design =
  sim_span @@ fun () ->
  let span = Ape_obs.span in
  match design with
  | Module_lib.D_audio d -> span "audio" (fun () -> sim_audio process d)
  | Module_lib.D_sh d -> span "sample_hold" (fun () -> sim_sample_hold process d)
  | Module_lib.D_adc d -> span "flash_adc" (fun () -> sim_flash_adc process d)
  | Module_lib.D_dac d -> span "dac" (fun () -> sim_dac process d)
  | Module_lib.D_lpf d -> span "lpf" (fun () -> sim_lpf process d)
  | Module_lib.D_bpf d -> span "bpf" (fun () -> sim_bpf process d)
  | Module_lib.D_closed d -> span "closed_loop" (fun () -> sim_closed process d)
  | Module_lib.D_comp d -> span "comparator" (fun () -> sim_comparator process d)
