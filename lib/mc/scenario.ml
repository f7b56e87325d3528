module E = Ape_estimator
module Mos = Ape_device.Mos
module Netlist = Ape_circuit.Netlist
module Process = Ape_process.Process

type level = Estimate | Simulate

let level_name = function Estimate -> "estimate" | Simulate -> "simulate"

(* The input-pair mismatch draw happens at a fixed position in the
   sample's stream (after the global perturbation draws), keeping the
   metric list a pure function of (seed, index). *)
let offset_metric rng (d : E.Opamp.design) =
  let pair = d.E.Opamp.diff.E.Diff_pair.pair in
  let geom = pair.Mos.geom in
  Float.abs
    (Variation.mismatch_vto rng pair.Mos.card ~w:geom.Mos.w ~l:geom.Mos.l)

let estimate_measure sigmas process spec rng _i =
  let proc = Variation.perturb rng sigmas process in
  let d = E.Opamp.design proc spec in
  let p = d.E.Opamp.perf in
  let offset = offset_metric rng d in
  List.filter_map
    (fun (k, v) -> Option.map (fun v -> (k, v)) v)
    [
      ("gain", Option.map Float.abs p.E.Perf.gain);
      ("ugf", p.E.Perf.ugf);
      ("power", Some p.E.Perf.dc_power);
      ("area", Some p.E.Perf.gate_area);
      ("phase_margin", p.E.Perf.phase_margin);
      ("offset", Some offset);
    ]

(* A fixed nominal design measured on perturbed dies: the netlist is
   elaborated once and each sample only retargets the model cards. *)
let simulate_measure sigmas process spec =
  let d = E.Opamp.design process spec in
  let base =
    E.Verify.opamp_testbench process ~cl:d.E.Opamp.spec.E.Opamp.cl d
  in
  fun rng _i ->
    let proc = Variation.perturb rng sigmas process in
    let offset = offset_metric rng d in
    let nl = Netlist.retarget_process proc base in
    let op = Ape_spice.Dc.solve nl in
    (* One AC preparation per die serves both the gain and the UGF
       search. *)
    let prep = Ape_spice.Ac.prepare op in
    let gain = Float.abs (Ape_spice.Measure.Prepared.dc_gain ~out:"out" prep) in
    let ugf =
      Ape_spice.Measure.Prepared.unity_gain_frequency ~fmin:1e3 ~fmax:1e9
        ~out:"out" prep
    in
    List.filter_map
      (fun (k, v) -> Option.map (fun v -> (k, v)) v)
      [
        ("gain", Some gain);
        ("ugf", ugf);
        ("power", Some (Ape_spice.Dc.static_power op ~supply:"VDD"));
        ("offset", Some offset);
      ]

(* At the estimate level APE re-sizes each die and *closes* the UGF back
   to spec (the UGF requirement fixes gm through the compensation cap),
   so a ">= spec" UGF check would only measure the sizing equations'
   systematic parasitic skew, not variation; UGF is reported as a
   distribution but checked only at the simulate level, where the design
   is frozen and the spec applies exactly. *)
let opamp_checks ~level (spec : E.Opamp.spec) =
  let gain = Run.at_least "gain" spec.E.Opamp.av in
  match level with
  | Estimate -> [ gain ]
  | Simulate -> [ gain; Run.at_least "ugf" spec.E.Opamp.ugf ]

let opamp ?(sigmas = Variation.default) ~level process spec =
  let measure =
    match level with
    | Estimate -> estimate_measure sigmas process spec
    | Simulate -> simulate_measure sigmas process spec
  in
  (measure, opamp_checks ~level spec)
