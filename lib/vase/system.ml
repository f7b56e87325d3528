module E = Ape_estimator

type module_decl = { label : string; spec : E.Module_lib.spec }

type requirements = {
  total_gain : float option;
  bandwidth : float option;
  area_max : float option;
  power_max : float option;
}

type t = {
  name : string;
  chain : module_decl list;
  requirements : requirements;
}

module Sexpr = Ape_util.Sexpr

exception Spec_error of { pos : Sexpr.pos; msg : string }

let number = Sexpr.read Sexpr.finite

let parse_module idx = function
  | Sexpr.List (Sexpr.Atom (kind, kind_span) :: items, span) ->
    let label = Printf.sprintf "%s%d" kind (idx + 1) in
    let fs = Sexpr.fields span items in
    let num key = Sexpr.get fs key number in
    let opt key default = Sexpr.get ~default fs key number in
    let int key = Sexpr.get fs key (Sexpr.read Sexpr.integer) in
    let spec =
      match kind with
      | "lowpass" ->
        let order = int "order" in
        let f_cutoff = num "fc" in
        E.Module_lib.Lowpass_m
          { E.Filter.order; f_cutoff; r_base = opt "r" 1e6 }
      | "bandpass" ->
        let f_center = num "fc" in
        let q = opt "q" 1. in
        let gain = opt "gain" 1.5 in
        E.Module_lib.Bandpass_m
          { E.Filter.f_center; q; gain; c_base = opt "c" 10e-9 }
      | "amplifier" ->
        let gain = num "gain" in
        E.Module_lib.Audio_amp { gain; bandwidth = num "bandwidth" }
      | "sample_hold" ->
        let gain = opt "gain" 1. in
        let bandwidth = num "bandwidth" in
        E.Module_lib.Sample_hold_m
          (E.Sample_hold.spec ~gain ~bandwidth ~sr:(opt "sr" 1e4) ())
      | "adc" ->
        let bits = int "bits" in
        E.Module_lib.Flash_adc_m
          (E.Data_conv.Flash_adc.spec ~bits ~delay:(num "delay") ())
      | "dac" ->
        let bits = int "bits" in
        E.Module_lib.Dac_m
          (E.Data_conv.Dac.spec ~bits ~settling:(num "settling") ())
      | "integrator" ->
        let f_unity = num "funity" in
        E.Module_lib.Closed_loop_m
          (E.Closed_loop.spec ~bandwidth:(2. *. f_unity)
             (E.Closed_loop.Integrator { f_unity }))
      | "comparator" ->
        E.Module_lib.Comparator_m
          (E.Data_conv.Comparator.spec ~delay:(num "delay") ())
      | other -> Sexpr.fail kind_span ("unknown module kind " ^ other)
    in
    Sexpr.finish fs;
    (match E.Module_lib.check spec with
    | None -> ()
    | Some (field, complaint) ->
      let at =
        match Sexpr.find fs field with Some f -> f.Sexpr.span | None -> span
      in
      Sexpr.fail at (Printf.sprintf "%s: %s %s" label field complaint));
    { label; spec }
  | other ->
    Sexpr.fail (Sexpr.span_of other)
      "bad module declaration: expected (<kind> (<field> <value>) ...)"

let single_form = "expected a single (system <name> ...) form"

let parse text =
  try
    match Sexpr.parse text with
    | [
        Sexpr.List
          (Sexpr.Atom ("system", _) :: Sexpr.Atom (name, _) :: body, span);
      ] ->
      let fs = Sexpr.fields span body in
      let chain =
        List.mapi parse_module (Sexpr.require fs "chain").Sexpr.args
      in
      let requirements =
        let rs =
          match Sexpr.find fs "require" with
          | Some f -> Sexpr.fields f.Sexpr.span f.Sexpr.args
          | None -> Sexpr.fields span []
        in
        let total_gain = Sexpr.opt rs "total_gain" number in
        let bandwidth = Sexpr.opt rs "bandwidth" number in
        let area_max = Sexpr.opt rs "area_max" number in
        let power_max = Sexpr.opt rs "power_max" number in
        Sexpr.finish rs;
        { total_gain; bandwidth; area_max; power_max }
      in
      Sexpr.finish fs;
      { name; chain; requirements }
    | [] ->
      raise (Spec_error { pos = { Sexpr.line = 1; col = 1 }; msg = single_form })
    | [ form ] | _ :: form :: _ -> Sexpr.fail (Sexpr.span_of form) single_form
  with Sexpr.Error { span; msg } ->
    raise (Spec_error { pos = span.Sexpr.s_start; msg })

type estimated = {
  system : t;
  designs : (string * E.Module_lib.design) list;
  gain_total : float;
  bandwidth_min : float;
  area_total : float;
  power_total : float;
  meets : (string * bool) list;
}

let estimate process system =
  let designs =
    List.map
      (fun decl -> (decl.label, E.Module_lib.design process decl.spec))
      system.chain
  in
  let perfs = List.map (fun (_, d) -> E.Module_lib.perf d) designs in
  let gain_total =
    List.fold_left
      (fun acc (p : E.Perf.t) ->
        match p.E.Perf.gain with
        | Some g -> acc *. Float.abs g
        | None -> acc)
      1. perfs
  in
  let bandwidth_min =
    List.fold_left
      (fun acc (p : E.Perf.t) ->
        match p.E.Perf.bandwidth with
        | Some b -> Float.min acc b
        | None -> acc)
      infinity perfs
  in
  let area_total =
    List.fold_left (fun acc (p : E.Perf.t) -> acc +. p.E.Perf.gate_area) 0. perfs
  in
  let power_total =
    List.fold_left (fun acc (p : E.Perf.t) -> acc +. p.E.Perf.dc_power) 0. perfs
  in
  let check name = function
    | None -> []
    | Some verdict -> [ (name, verdict) ]
  in
  let meets =
    check "total_gain"
      (Option.map (fun g -> gain_total >= g) system.requirements.total_gain)
    @ check "bandwidth"
        (Option.map
           (fun b -> bandwidth_min >= b)
           system.requirements.bandwidth)
    @ check "area_max"
        (Option.map (fun a -> area_total <= a) system.requirements.area_max)
    @ check "power_max"
        (Option.map (fun p -> power_total <= p) system.requirements.power_max)
  in
  { system; designs; gain_total; bandwidth_min; area_total; power_total; meets }

let plan_gain_chain process ~total_gain ~bandwidth ~stages =
  if stages < 1 then invalid_arg "System.plan_gain_chain";
  let stage_bw = Constraint_map.allocate_bandwidth ~total:bandwidth ~stages in
  let limit = Constraint_map.probe_stage_limit ~bandwidth:stage_bw process in
  Constraint_map.allocate_gain ~total:total_gain
    ~limits:(List.init stages (fun _ -> limit))
