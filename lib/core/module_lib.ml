type spec =
  | Audio_amp of { gain : float; bandwidth : float }
  | Sample_hold_m of Sample_hold.spec
  | Flash_adc_m of Data_conv.Flash_adc.spec
  | Dac_m of Data_conv.Dac.spec
  | Lowpass_m of Filter.lp_spec
  | Bandpass_m of Filter.bp_spec
  | Closed_loop_m of Closed_loop.spec
  | Comparator_m of Data_conv.Comparator.spec

type design =
  | D_audio of Audio_amp.design
  | D_sh of Sample_hold.design
  | D_adc of Data_conv.Flash_adc.design
  | D_dac of Data_conv.Dac.design
  | D_lpf of Filter.lp_design
  | D_bpf of Filter.bp_design
  | D_closed of Closed_loop.design
  | D_comp of Data_conv.Comparator.design

(* The ranges the designers accept, named by the VASE spec language's
   fields; in kind order, so the first complaint is the CLI's too. *)
let check spec =
  let rule ok param complaint = if ok then None else Some (param, complaint) in
  let positive param v =
    rule (v > 0.) param (Printf.sprintf "must be positive, got %g" v)
  in
  let bits kind lo hi b =
    rule
      (b >= lo && b <= hi)
      "bits"
      (Printf.sprintf "must be in [%d, %d] for %s, got %d" lo hi kind b)
  in
  List.find_map Fun.id
    (match spec with
    | Lowpass_m { Filter.order; f_cutoff; r_base } ->
      [
        rule
          (order >= 2 && order mod 2 = 0)
          "order"
          (Printf.sprintf "must be even and at least 2, got %d" order);
        positive "fc" f_cutoff;
        positive "r" r_base;
      ]
    | Bandpass_m { Filter.f_center; q; gain; c_base } ->
      let limit = 2. *. q *. q in
      [
        positive "fc" f_center;
        positive "q" q;
        positive "gain" gain;
        rule (gain < limit) "gain"
          (Printf.sprintf "must be below 2q^2 = %g, got %g" limit gain);
        positive "c" c_base;
      ]
    | Audio_amp { gain; bandwidth } ->
      [
        rule (gain > 1.) "gain" (Printf.sprintf "must exceed 1, got %g" gain);
        positive "bandwidth" bandwidth;
      ]
    | Sample_hold_m { Sample_hold.gain; bandwidth; sr; _ } ->
      [
        rule (gain >= 1.) "gain"
          (Printf.sprintf "must be at least 1, got %g" gain);
        positive "bandwidth" bandwidth;
        positive "sr" sr;
      ]
    | Flash_adc_m { Data_conv.Flash_adc.bits = b; delay; _ } ->
      [ bits "adc" 2 6 b; positive "delay" delay ]
    | Dac_m { Data_conv.Dac.bits = b; settling; _ } ->
      [ bits "dac" 1 12 b; positive "settling" settling ]
    | Closed_loop_m { Closed_loop.kind; bandwidth; _ } ->
      let ng = Closed_loop.noise_gain kind in
      [
        (match kind with
        | Closed_loop.Integrator { f_unity } -> positive "funity" f_unity
        | Inverting _ | Non_inverting _ | Adder _ -> None);
        rule (ng >= 1.) "gain"
          (Printf.sprintf "must give a noise gain of at least 1, got %g" ng);
        positive "bandwidth" bandwidth;
      ]
    | Comparator_m { Data_conv.Comparator.delay; _ } ->
      [ positive "delay" delay ])

let design process = function
  | Audio_amp { gain; bandwidth } ->
    D_audio (Audio_amp.design process { Audio_amp.gain; bandwidth })
  | Sample_hold_m s -> D_sh (Sample_hold.design process s)
  | Flash_adc_m s -> D_adc (Data_conv.Flash_adc.design process s)
  | Dac_m s -> D_dac (Data_conv.Dac.design process s)
  | Lowpass_m s -> D_lpf (Filter.design_lp process s)
  | Bandpass_m s -> D_bpf (Filter.design_bp process s)
  | Closed_loop_m s -> D_closed (Closed_loop.design process s)
  | Comparator_m s -> D_comp (Data_conv.Comparator.design process s)

let fragment process = function
  | D_audio d -> Audio_amp.fragment process d
  | D_sh d -> Sample_hold.fragment process d
  | D_adc d -> Data_conv.Flash_adc.fragment process d
  | D_dac d -> Data_conv.Dac.fragment process d
  | D_lpf d -> Filter.fragment_lp process d
  | D_bpf d -> Filter.fragment_bp process d
  | D_closed d -> Closed_loop.fragment process d
  | D_comp d -> Data_conv.Comparator.fragment process d

let perf = function
  | D_audio d -> d.Audio_amp.perf
  | D_sh d -> d.Sample_hold.perf
  | D_adc d -> d.Data_conv.Flash_adc.perf
  | D_dac d -> d.Data_conv.Dac.perf
  | D_lpf d -> d.Filter.perf
  | D_bpf d -> d.Filter.perf
  | D_closed d -> d.Closed_loop.perf
  | D_comp d -> d.Data_conv.Comparator.perf

let name = function
  | D_audio _ -> "audio_amp"
  | D_sh _ -> "sample_hold"
  | D_adc d ->
    Printf.sprintf "flash_adc%d" d.Data_conv.Flash_adc.spec.Data_conv.Flash_adc.bits
  | D_dac d -> Printf.sprintf "dac%d" d.Data_conv.Dac.spec.Data_conv.Dac.bits
  | D_lpf d ->
    Printf.sprintf "sk_lpf%d" d.Filter.lp_spec.Filter.order
  | D_bpf _ -> "mfb_bpf"
  | D_closed d -> (
    match d.Closed_loop.spec.Closed_loop.kind with
    | Closed_loop.Inverting _ -> "inverting_amp"
    | Closed_loop.Non_inverting _ -> "noninverting_amp"
    | Closed_loop.Integrator _ -> "integrator"
    | Closed_loop.Adder _ -> "adder")
  | D_comp _ -> "comparator"

let device_count process design =
  let frag = fragment process design in
  Ape_circuit.Netlist.mosfet_count frag.Fragment.netlist
