module N = Ape_circuit.Netlist
module I = Ape_util.Interval
module Proc = Ape_process.Process
module E = Ape_estimator
module Mos = Ape_device.Mos
module Measure = Ape_spice.Measure

type kind =
  | M_audio of { gain : float; bandwidth : float }
  | M_sh of { gain : float; bandwidth : float; sr : float }
  | M_adc of { bits : int; delay : float }
  | M_lpf of { order : int; f_cutoff : float }
  | M_bpf of { f_center : float; q : float; gain : float }

let kind_name = function
  | M_audio _ -> "amp"
  | M_sh _ -> "s&h"
  | M_adc _ -> "adc"
  | M_lpf _ -> "lpf"
  | M_bpf _ -> "bpf"

type mode = Wide | Ape_centered of float

type problem = {
  kind : kind;
  template : Template.t;
  cost_model : Cost.t;
  dim : int;  (** sizes/passives + relaxed node voltages *)
  cost : float array -> float;
  final : float array -> Cost.measurement option;
  start : Ape_util.Rng.t -> float array;
  area_scale : float;
  cache : Est_cache.t;
}

let ape_module (process : Proc.t) kind =
  let spec =
    match kind with
    | M_audio { gain; bandwidth } -> E.Module_lib.Audio_amp { gain; bandwidth }
    | M_sh { gain; bandwidth; sr } ->
      E.Module_lib.Sample_hold_m (E.Sample_hold.spec ~gain ~bandwidth ~sr ())
    | M_adc { bits; delay } ->
      E.Module_lib.Flash_adc_m (E.Data_conv.Flash_adc.spec ~bits ~delay ())
    | M_lpf { order; f_cutoff } ->
      E.Module_lib.Lowpass_m { E.Filter.order; f_cutoff; r_base = 1e6 }
    | M_bpf { f_center; q; gain } ->
      E.Module_lib.Bandpass_m { E.Filter.f_center; q; gain; c_base = 10e-9 }
  in
  E.Module_lib.design process spec

(* The netlist the annealer sizes: the module fragment (ADC: its unit
   comparator) plus the drive/load testbench. *)
let core_and_testbench (process : Proc.t) kind design =
  let vmid = process.Proc.vdd /. 2. in
  let vin ?(ac = 1.) ?(dc = vmid) port name =
    N.Vsource { name; p = port; n = N.ground; dc; ac }
  in
  match (kind, design) with
  | M_adc _, E.Module_lib.D_adc adc ->
    let comp = adc.E.Data_conv.Flash_adc.comparator in
    let frag = E.Data_conv.Comparator.fragment process comp in
    let nl = E.Fragment.with_supply ~vdd:process.Proc.vdd frag in
    ( N.append nl
        [
          vin ~ac:0.5 "inp" "VINP";
          vin ~ac:(-0.5) "inn" "VINN";
          N.Capacitor { name = "CLT"; a = "out"; b = N.ground; c = 0.5e-12 };
        ],
      float_of_int
        ((1 lsl adc.E.Data_conv.Flash_adc.spec.E.Data_conv.Flash_adc.bits) - 1)
    )
  | M_audio _, E.Module_lib.D_audio _ ->
    let frag = E.Module_lib.fragment process design in
    let nl = E.Fragment.with_supply ~vdd:process.Proc.vdd frag in
    ( N.append nl
        [
          vin ~ac:0.5 "inp" "VINP";
          vin ~ac:(-0.5) "inn" "VINN";
          N.Capacitor { name = "CLT"; a = "out"; b = N.ground; c = 10e-12 };
        ],
      1. )
  | M_sh _, E.Module_lib.D_sh _ ->
    let frag = E.Module_lib.fragment process design in
    let nl = E.Fragment.with_supply ~vdd:process.Proc.vdd frag in
    ( N.append nl
        [
          vin "in" "VIN";
          N.Vsource
            {
              name = "VCTRL";
              p = "ctrl";
              n = N.ground;
              dc = process.Proc.vdd;
              ac = 0.;
            };
          N.Capacitor { name = "CLT"; a = "out"; b = N.ground; c = 10e-12 };
        ],
      1. )
  | (M_lpf _ | M_bpf _), (E.Module_lib.D_lpf _ | E.Module_lib.D_bpf _) ->
    let frag = E.Module_lib.fragment process design in
    let nl = E.Fragment.with_supply ~vdd:process.Proc.vdd frag in
    (N.append nl [ vin "in" "VIN" ], 1.)
  | ( (M_audio _ | M_sh _ | M_adc _ | M_lpf _ | M_bpf _),
      ( E.Module_lib.D_audio _ | E.Module_lib.D_sh _ | E.Module_lib.D_adc _
      | E.Module_lib.D_dac _ | E.Module_lib.D_lpf _ | E.Module_lib.D_bpf _
      | E.Module_lib.D_closed _ | E.Module_lib.D_comp _ ) ) ->
    invalid_arg "Module_problem: kind/design mismatch"

let testbench_names = [ "VDD"; "VINP"; "VINN"; "VIN"; "VCTRL"; "CLT" ]

(* Structural unknown discovery: mosfets matched by (polarity, W, L);
   every other fragment R/C is its own unknown. *)
let discover_params ~mode netlist =
  let groups = Hashtbl.create 16 in
  let passive_r = ref [] and passive_c = ref [] in
  List.iter
    (fun e ->
      match e with
      | N.Mosfet { name; card; geom; _ } ->
        let key =
          ( card.Ape_process.Model_card.mos_type,
            Float.round (geom.Mos.w *. 1e9),
            Float.round (geom.Mos.l *. 1e9) )
        in
        let members =
          Option.value ~default:[] (Hashtbl.find_opt groups key)
        in
        Hashtbl.replace groups key ((name, geom.Mos.w) :: members)
      | N.Resistor { name; r; _ } when not (List.mem name testbench_names) ->
        passive_r := (name, r) :: !passive_r
      | N.Capacitor { name; c; _ } when not (List.mem name testbench_names) ->
        passive_c := (name, c) :: !passive_c
      | N.Resistor _ | N.Capacitor _ | N.Vsource _ | N.Isource _ | N.Vcvs _
      | N.Switch _ ->
        ())
    (N.elements netlist);
  let range ~wide current =
    match mode with
    | Wide -> I.make (current /. 30.) (Float.min wide (current *. 30.))
    | Ape_centered pct -> I.of_center ~pct current
  in
  let log_scale = match mode with Wide -> true | Ape_centered _ -> false in
  let mos_params =
    Hashtbl.fold
      (fun _ members acc ->
        match members with
        | [] -> acc
        | (first, w) :: _ ->
          let names = List.map fst members in
          Template.param ~log_scale
            ~name:("w_" ^ first)
            ~range:(range ~wide:500e-6 w)
            (Template.Mos_width names)
          :: acc)
      groups []
  in
  let r_params =
    List.map
      (fun (name, r) ->
        Template.param ~log_scale ~name:("r_" ^ name)
          ~range:(range ~wide:1e9 r)
          (Template.Res_value [ name ]))
      !passive_r
  in
  let c_params =
    List.map
      (fun (name, c) ->
        Template.param ~log_scale ~name:("c_" ^ name)
          ~range:(range ~wide:1e-6 c)
          (Template.Cap_value [ name ]))
      !passive_c
  in
  mos_params @ r_params @ c_params

let add m key = function Some v -> (key, v) :: m | None -> m

(* Metric extraction from an operating point — real (Newton-solved) for
   final verdicts, relaxed for the in-loop cost. *)
let measure_at (process : Proc.t) kind ~area_scale netlist op =
  begin
    let vmid = process.Proc.vdd /. 2. in
    let area = area_scale *. N.gate_area netlist in
    let base =
      [
        ("area", area);
        ("power", area_scale *. Ape_spice.Dc.static_power op ~supply:"VDD");
      ]
    in
    let vout_center = Float.abs (Ape_spice.Dc.voltage op "out" -. vmid) in
    let m = ("vout_center", vout_center) :: base in
    (* One AC preparation serves every search this kind performs. *)
    let prep = Ape_spice.Ac.prepare op in
    let m =
      match kind with
      | M_audio _ | M_sh _ ->
        let gain = Measure.Prepared.dc_gain ~out:"out" prep in
        let bw =
          Measure.Prepared.f_minus_3db ~fmin:10. ~fmax:1e9 ~out:"out" prep
        in
        add (("gain", gain) :: m) "bandwidth" bw
      | M_adc { delay = _; bits } ->
        let gain = Measure.Prepared.dc_gain ~out:"out" prep in
        (* Default [1 V, 4 V] conversion window (see Flash_adc.spec). *)
        let lsb = 3.0 /. float_of_int (1 lsl bits) in
        let ugf =
          if gain <= 1. then None
          else
            Measure.Prepared.unity_gain_frequency ~fmin:1e3 ~fmax:1e9
              ~out:"out" prep
        in
        let delay_proxy =
          Option.map
            (fun u ->
              process.Proc.vdd /. 2.
              /. (2. *. Float.pi *. u *. (lsb /. 2.)))
            ugf
        in
        add (add (("gain", gain) :: m) "ugf" ugf) "delay" delay_proxy
      | M_lpf { f_cutoff; _ } ->
        let gain = Measure.Prepared.dc_gain ~out:"out" prep in
        let f3 =
          Measure.Prepared.f_minus_3db ~fmin:(f_cutoff /. 100.)
            ~fmax:(f_cutoff *. 100.) ~out:"out" prep
        in
        let f20 =
          Measure.Prepared.f_level_db ~fmin:(f_cutoff /. 100.)
            ~fmax:(f_cutoff *. 100.) ~level_db:(-20.) ~out:"out" prep
        in
        add (add (("gain", gain) :: m) "f3db" f3) "f20db" f20
      | M_bpf { f_center; _ } -> (
        match
          Measure.Prepared.bandpass_characteristics ~fmin:(f_center /. 50.)
            ~fmax:(f_center *. 50.) ~out:"out" prep
        with
        | Some bp ->
          ("f0", bp.Measure.Prepared.f_center)
          :: ("gain", bp.Measure.Prepared.peak_gain)
          :: ("bandwidth", bp.Measure.Prepared.bandwidth)
          :: m
        | None -> m)
    in
    Some m
  end

let measure_for (process : Proc.t) kind ~area_scale netlist =
  match Ape_spice.Dc.solve netlist with
  | exception Ape_spice.Dc.No_convergence _ -> None
  | op -> measure_at process kind ~area_scale netlist op

let cost_for kind ~area_max =
  let reqs =
    match kind with
    | M_audio { gain; bandwidth } ->
      [
        Cost.at_least ~weight:2. "gain" (0.9 *. gain);
        Cost.at_most ~weight:1. "gain" (1.5 *. gain);
        Cost.at_least ~weight:2. "bandwidth" bandwidth;
        Cost.at_most ~weight:1. "vout_center" 1.0;
      ]
    | M_sh { gain; bandwidth; sr = _ } ->
      [
        Cost.at_least ~weight:2. "gain" (0.93 *. gain);
        Cost.at_most ~weight:2. "gain" (1.1 *. gain);
        Cost.at_least ~weight:2. "bandwidth" bandwidth;
        Cost.at_most ~weight:1. "vout_center" 1.0;
      ]
    | M_adc { delay; _ } ->
      [
        Cost.at_most ~weight:2. "delay" delay;
        Cost.at_least ~weight:1. "gain" 50.;
        Cost.at_most ~weight:1. "vout_center" 1.5;
      ]
    | M_lpf { f_cutoff; _ } ->
      [
        Cost.at_least ~weight:2. "f3db" (0.8 *. f_cutoff);
        Cost.at_most ~weight:2. "f3db" (1.25 *. f_cutoff);
        Cost.at_most ~weight:1. "f20db" (2.2 *. f_cutoff);
        Cost.at_least ~weight:1. "gain" 1.0;
      ]
    | M_bpf { f_center; q; gain } ->
      [
        Cost.at_least ~weight:2. "f0" (0.8 *. f_center);
        Cost.at_most ~weight:2. "f0" (1.25 *. f_center);
        Cost.at_least ~weight:1. "gain" (0.7 *. gain);
        Cost.at_most ~weight:1. "bandwidth" (2. *. f_center /. q);
      ]
  in
  Cost.make
    (reqs @ [ Cost.at_most ~weight:1. "area" area_max ])
    [ Cost.minimize ~weight:0.02 "area" ~scale:area_max ]

let build (process : Proc.t) ~mode ~area_max kind =
  let design = ape_module process kind in
  let base, area_scale = core_and_testbench process kind design in
  let params = discover_params ~mode base in
  let template = Template.make base params in
  let n_sizes = Template.dim template in
  (* OBLX-style bias relaxation, shared with the opamp problems. *)
  let relax =
    Relax.create
      ~mode:(match mode with Wide -> `Wide | Ape_centered _ -> `Centered)
      ~vdd:process.Proc.vdd base
  in
  let n_free = Relax.n_free relax in
  let dim = n_sizes + n_free in
  let cost_model = cost_for kind ~area_max in
  let split point =
    (Array.sub point 0 n_sizes, Array.sub point n_sizes n_free)
  in
  let evaluate_point point =
    let sizes, nodes = split point in
    let nl = Template.instantiate template sizes in
    let x = Relax.x_engine relax nodes in
    let kcl = Relax.with_stamp relax nl x (Relax.kcl_penalty relax) in
    let op = Relax.fake_op relax nl x in
    let measurement = measure_at process kind ~area_scale nl op in
    Cost.evaluate cost_model measurement +. (3. *. kcl)
  in
  let cache = Est_cache.create () in
  (* Evaluate at the cell's representative point so the memoised value
     is a pure function of the key (see Est_cache's determinism note). *)
  let cost point = Est_cache.find_or_add cache point evaluate_point in
  let final point =
    let sizes, _ = split point in
    measure_for process kind ~area_scale (Template.instantiate template sizes)
  in
  let start rng =
    match mode with
    | Wide -> Array.init dim (fun _ -> Ape_util.Rng.uniform rng 0. 1.)
    | Ape_centered _ ->
      let node_units = Relax.centers_unit relax in
      Array.init dim (fun k ->
          if k < n_sizes then 0.5 else node_units.(k - n_sizes))
  in
  { kind; template; cost_model; dim; cost; final; start; area_scale; cache }

type result = {
  kind : kind;
  mode : mode;
  meets_spec : bool;
  works : bool;
  measured : Cost.measurement option;
  area : float;
  stats : Anneal.stats;
  cache_hits : int;
  cache_lookups : int;
}

let run ?(schedule = Anneal.default_schedule) ~rng process ~mode ~area_max
    kind =
  let problem = build process ~mode ~area_max kind in
  let best, stats =
    Anneal.optimize ~schedule ~stop_below:0.05 ~rng ~dim:problem.dim
      ~cost:problem.cost ~start:problem.start ()
  in
  let measured = problem.final best in
  let meets_spec, works =
    match measured with
    | None -> (false, false)
    | Some m ->
      ( Cost.all_satisfied problem.cost_model m,
        (match Cost.find m "vout_center" with
        | Some v -> v < 2.0
        | None -> true) )
  in
  let area =
    match measured with
    | Some m -> Option.value ~default:0. (Cost.find m "area")
    | None -> 0.
  in
  {
    kind;
    mode;
    meets_spec;
    works;
    measured;
    area;
    stats;
    cache_hits = Est_cache.hits problem.cache;
    cache_lookups = Est_cache.lookups problem.cache;
  }
