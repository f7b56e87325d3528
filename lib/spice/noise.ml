module N = Ape_circuit.Netlist
module Card = Ape_process.Model_card
module Mos = Ape_device.Mos

type contribution = { element : string; psd : float }

let c_adjoint = Ape_obs.counter "noise.adjoint_solves"

let four_kt = 4. *. Ape_util.Units.k_boltzmann *. 300.15

(* Current-noise PSD (A²/Hz) of each element between its two noise
   terminals at the operating point. *)
let noise_sources (op : Dc.op) freq =
  List.filter_map
    (fun e ->
      match e with
      | N.Resistor { name; a; b; r } -> Some (name, a, b, four_kt /. r)
      | N.Mosfet { name; card; d; g; s; b; geom; m; _ } ->
        let geom = { geom with Mos.w = geom.Mos.w *. m } in
        let vd = Dc.voltage op d
        and vg = Dc.voltage op g
        and vs = Dc.voltage op s
        and vb = Dc.voltage op b in
        (* One evaluation gives both: gm = |∂I/∂vgs| and I_D. *)
        let e =
          Mos.evaluate card geom ~vgs:(vg -. vs) ~vds:(vd -. vs)
            ~vsb:(vs -. vb)
        in
        let id = Float.abs e.Mos.ids in
        let thermal = four_kt *. (2. /. 3.) *. Float.abs e.Mos.di_dvgs in
        let leff =
          Float.max 1e-9 (geom.Mos.l -. (2. *. card.Card.ld))
        in
        (* SPICE flicker model: KF·I^AF / (Cox·Leff²·f), as a drain
           current PSD. *)
        let flicker =
          card.Card.kf
          *. (id ** card.Card.af)
          /. (Card.cox card *. leff *. leff *. Float.max 1e-3 freq)
        in
        Some (name, d, s, thermal +. flicker)
      | N.Capacitor _ | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Switch _ ->
        None)
    (N.elements op.Dc.netlist)

let sorted_total contributions =
  let total = List.fold_left (fun acc c -> acc +. c.psd) 0. contributions in
  (total, List.sort (fun x y -> compare y.psd x.psd) contributions)

(* Adjoint (reciprocity) evaluation: with y solving Aᵀy = e_out, the
   transfer impedance of a 1 A source from node a to node b is
   z = e_outᵀ A⁻¹ (e_b − e_a) = y(b) − y(a) — so one transposed solve
   per frequency yields every source's transfer impedance, however many
   sources the deck has. *)
let output_noise_prepared ~out ~freq p =
  let op = Ac.op p in
  let index = op.Dc.index in
  let n = Engine.size index in
  let sources = noise_sources op freq in
  let y =
    match Engine.node_id index out with
    | None -> None
    | Some iout ->
      let e_out = Array.make n Complex.zero in
      e_out.(iout) <- Complex.one;
      Ape_obs.incr c_adjoint;
      Some (Ac.solve_transposed_prepared p freq e_out)
  in
  let zmag a_node b_node =
    match y with
    | None -> 0.
    | Some y ->
      let term node =
        match Engine.node_id index node with
        | Some i -> y.(i)
        | None -> Complex.zero
      in
      Complex.norm (Complex.sub (term b_node) (term a_node))
  in
  sorted_total
    (List.map
       (fun (element, a_node, b_node, s_i) ->
         let z = zmag a_node b_node in
         { element; psd = s_i *. z *. z })
       sources)

let input_referred_prepared ~out ~freq p =
  let total, _ = output_noise_prepared ~out ~freq p in
  let gain = Measure.Prepared.gain_at ~out p freq in
  if gain = 0. then raise Division_by_zero;
  Float.sqrt total /. gain

let integrated_output_prepared ~out ~fstart ~fstop ?(points_per_decade = 5) p =
  if fstart <= 0. || fstop <= fstart then
    invalid_arg "Noise.integrated_output: bad band";
  let n =
    max 2
      (1
      + int_of_float
          (Float.ceil
             (Float.log10 (fstop /. fstart)
             *. float_of_int points_per_decade)))
  in
  let freqs = Ape_util.Float_ext.logspace fstart fstop n in
  let psds =
    List.map (fun f -> fst (output_noise_prepared ~out ~freq:f p)) freqs
  in
  (* Trapezoidal integration on the linear frequency axis. *)
  let rec integrate acc = function
    | (f1, p1) :: ((f2, p2) :: _ as rest) ->
      integrate (acc +. (0.5 *. (p1 +. p2) *. (f2 -. f1))) rest
    | [ _ ] | [] -> acc
  in
  Float.sqrt (integrate 0. (List.combine freqs psds))
