module Proc = Ape_process.Process
module B = Ape_circuit.Builder

type lp_spec = { order : int; f_cutoff : float; r_base : float }

type bp_spec = {
  f_center : float;
  q : float;
  gain : float;
  c_base : float;
}

type stage = {
  k : float;
  q : float;
  r : float;
  c : float;
  opamp : Opamp.design;
  ra : float;
  rb : float;
}

type lp_design = {
  lp_spec : lp_spec;
  stages : stage list;
  r_div : float;
  gain_est : float;
  f3db_est : float;
  f20db_est : float;
  perf : Perf.t;
}

type bp_design = {
  bp_spec : bp_spec;
  opamp : Opamp.design;
  r_div : float;
  r1 : float;
  r2 : float;
  r3 : float;
  gain_est : float;
  f0_est : float;
  bw_est : float;
  perf : Perf.t;
}

(* The [n] left-half-plane poles of the normalised (ω = 1 rad/s)
   Butterworth low-pass prototype. *)
let butterworth_poles n =
  List.init n (fun k ->
      let theta =
        Float.pi *. (2. *. float_of_int (k + 1) +. float_of_int n -. 1.)
        /. (2. *. float_of_int n)
      in
      { Complex.re = Float.cos theta; im = Float.sin theta })

(* Stage Q values (one per conjugate pole pair) of the even-order
   Butterworth prototype, ascending. *)
let butterworth_q order =
  if order < 2 || order mod 2 <> 0 then
    invalid_arg "Filter.butterworth_q: order must be even and >= 2";
  butterworth_poles order
  |> List.filter_map (fun (p : Complex.t) ->
         if p.im > 1e-9 then Some (1. /. (2. *. Float.abs p.re)) else None)
  |> List.sort compare

(* The stage amplifier: a gain-K non-inverting opamp, buffered so its
   output drives the biquad's resistive network; UGF well above the
   corner scaled by K and Q so the biquad's Q is not eroded. *)
let stage_opamp process ~fc ~k ~q ~r_load =
  Opamp.design process
    (Opamp.spec ~buffer:true ~zout:(r_load /. 50.)
       ~av:(Float.max 60. (60. *. k))
       ~ugf:(100. *. fc *. k *. Float.max 1. q)
       ~ibias:1e-6 ~cl:5e-12 ())

let sum_opamp_perf field designs =
  List.fold_left (fun acc d -> acc +. field d.Opamp.perf) 0. designs

let design_lp (process : Proc.t) lp_spec =
  if lp_spec.f_cutoff <= 0. then invalid_arg "Filter.design_lp: f <= 0";
  let qs = butterworth_q lp_spec.order in
  let wc = 2. *. Float.pi *. lp_spec.f_cutoff in
  let r = lp_spec.r_base in
  let c = 1. /. (wc *. r) in
  let ra = lp_spec.r_base /. 10. in
  let stages =
    List.map
      (fun q ->
        let k = 3. -. (1. /. q) in
        let r_load = Float.min lp_spec.r_base ra in
        let opamp = stage_opamp process ~fc:lp_spec.f_cutoff ~k ~q ~r_load in
        let rb = (k -. 1.) *. ra in
        { k; q; r; c; opamp; ra; rb })
      qs
  in
  let r_div = lp_spec.r_base /. 20. in
  let gain_est =
    List.fold_left (fun acc (s : stage) -> acc *. s.k) 1. stages
  in
  let f3db_est = lp_spec.f_cutoff in
  let f20db_est =
    lp_spec.f_cutoff *. (99. ** (1. /. float_of_int (2 * lp_spec.order)))
  in
  let opamps = List.map (fun (s : stage) -> s.opamp) stages in
  let passive_area =
    List.fold_left
      (fun acc (s : stage) ->
        acc
        +. (2. *. Proc.resistor_area process s.r)
        +. (2. *. Proc.capacitor_area process s.c)
        +. Proc.resistor_area process s.ra
        +. Proc.resistor_area process (Float.max 1. s.rb))
      0. stages
  in
  let gate_area = sum_opamp_perf (fun p -> p.Perf.gate_area) opamps in
  let divider_power =
    let vdd = process.Proc.vdd in
    vdd *. vdd /. (2. *. r_div)
  in
  let perf =
    {
      Perf.empty with
      Perf.gate_area;
      total_area =
        sum_opamp_perf (fun p -> p.Perf.total_area) opamps
        +. (2. *. Proc.resistor_area process r_div)
        +. passive_area;
      dc_power =
        sum_opamp_perf (fun p -> p.Perf.dc_power) opamps +. divider_power;
      gain = Some gain_est;
      bandwidth = Some f3db_est;
    }
  in
  { lp_spec; stages; r_div; gain_est; f3db_est; f20db_est; perf }

let fragment_lp (process : Proc.t) (design : lp_design) =
  let b = B.create ~title:"sk_lpf" in
  B.resistor b ~a:"vdd" ~b:"vref" design.r_div;
  B.resistor b ~a:"vref" ~b:"0" design.r_div;
  let n_stages = List.length design.stages in
  List.iteri
    (fun i (stage : stage) ->
      let prefix = Printf.sprintf "s%d" (i + 1) in
      let inn = if i = 0 then "in" else Printf.sprintf "mid%d" i in
      let outn =
        if i = n_stages - 1 then "out" else Printf.sprintf "mid%d" (i + 1)
      in
      let na = prefix ^ "_a" and nb = prefix ^ "_b" in
      let nfb = prefix ^ "_fb" in
      B.resistor b ~a:inn ~b:na stage.r;
      B.resistor b ~a:na ~b:nb stage.r;
      B.capacitor b ~a:na ~b:outn stage.c;
      B.capacitor b ~a:nb ~b:"vref" stage.c;
      let opamp_frag = Opamp.fragment process stage.opamp in
      B.instance b ~prefix
        ~port_map:
          [ ("inp", nb); ("inn", nfb); ("out", outn); ("vdd", "vdd") ]
        opamp_frag.Fragment.netlist;
      B.resistor b ~a:"vref" ~b:nfb stage.ra;
      if stage.rb > 1. then B.resistor b ~a:nfb ~b:outn stage.rb
      else B.resistor b ~a:nfb ~b:outn 1.)
    design.stages;
  Fragment.make (B.finish_unvalidated b)
    [ ("vdd", "vdd"); ("in", "in"); ("out", "out"); ("vref", "vref") ]

let design_bp (process : Proc.t) bp_spec =
  if bp_spec.f_center <= 0. || bp_spec.q <= 0. then
    invalid_arg "Filter.design_bp: bad spec";
  if bp_spec.gain >= 2. *. bp_spec.q *. bp_spec.q then
    invalid_arg "Filter.design_bp: gain >= 2q^2 not realisable (MFB)";
  let w0 = 2. *. Float.pi *. bp_spec.f_center in
  let c = bp_spec.c_base in
  let q = bp_spec.q and a0 = bp_spec.gain in
  (* MFB equal-C design equations. *)
  let r1 = q /. (w0 *. c *. a0) in
  let r3 = 2. *. q /. (w0 *. c) in
  let r2 = q /. (w0 *. c *. ((2. *. q *. q) -. a0)) in
  let opamp =
    Opamp.design process
      (Opamp.spec ~buffer:true ~zout:(Float.min r1 r3 /. 50.)
         ~av:(Float.max 100. (40. *. q *. q))
         ~ugf:(100. *. bp_spec.f_center *. q)
         ~ibias:1e-6 ~cl:5e-12 ())
  in
  let r_div = Float.min r1 r2 /. 10. in
  let passive_area =
    Proc.resistor_area process r1
    +. Proc.resistor_area process r2
    +. Proc.resistor_area process r3
    +. (2. *. Proc.capacitor_area process c)
  in
  let divider_power =
    let vdd = process.Proc.vdd in
    vdd *. vdd /. (2. *. r_div)
  in
  let perf =
    {
      Perf.empty with
      Perf.gate_area = opamp.Opamp.perf.Perf.gate_area;
      total_area =
        opamp.Opamp.perf.Perf.total_area
        +. (2. *. Proc.resistor_area process r_div)
        +. passive_area;
      dc_power = opamp.Opamp.perf.Perf.dc_power +. divider_power;
      gain = Some a0;
      bandwidth = Some (bp_spec.f_center /. q);
    }
  in
  {
    bp_spec;
    opamp;
    r_div;
    r1;
    r2;
    r3;
    gain_est = a0;
    f0_est = bp_spec.f_center;
    bw_est = bp_spec.f_center /. q;
    perf;
  }

let fragment_bp (process : Proc.t) (design : bp_design) =
  let b = B.create ~title:"mfb_bpf" in
  B.resistor b ~a:"vdd" ~b:"vref" design.r_div;
  B.resistor b ~a:"vref" ~b:"0" design.r_div;
  let c = design.bp_spec.c_base in
  B.resistor b ~a:"in" ~b:"na" design.r1;
  B.resistor b ~a:"na" ~b:"vref" design.r2;
  B.capacitor b ~a:"na" ~b:"nb" c;
  B.capacitor b ~a:"na" ~b:"out" c;
  B.resistor b ~a:"nb" ~b:"out" design.r3;
  let opamp_frag = Opamp.fragment process design.opamp in
  B.instance b ~prefix:"op1"
    ~port_map:
      [ ("inp", "vref"); ("inn", "nb"); ("out", "out"); ("vdd", "vdd") ]
    opamp_frag.Fragment.netlist;
  Fragment.make (B.finish_unvalidated b)
    [ ("vdd", "vdd"); ("in", "in"); ("out", "out"); ("vref", "vref") ]
