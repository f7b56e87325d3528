module N = Ape_circuit.Netlist
module Card = Ape_process.Model_card
module Mos = Ape_device.Mos

type contribution = { element : string; psd : float }

let c_adjoint = Ape_obs.counter "noise.adjoint_solves"

let four_kt = 4. *. Ape_util.Units.k_boltzmann *. 300.15

(* One row per noisy element: a current-noise PSD (A²/Hz) injected from
   node [a] to node [b], whose unknowns are [ia] and [ib] (-1 for
   ground).  Only the flicker term depends on frequency, so a row keeps
   the white PSD and the flicker numerator and denominator apart, and
   [psd] puts them together at any frequency. *)
type source = {
  name : string;
  a : N.node;
  b : N.node;
  ia : int;
  ib : int;
  white : float;
  flicker_num : float;
  flicker_den : float;
}

let[@inline] psd s freq =
  s.white +. (s.flicker_num /. (s.flicker_den *. Float.max 1e-3 freq))

(* The noise sources of the operating point, in element order: every
   device evaluated once, every terminal resolved once. *)
let source_table (op : Dc.op) =
  let index = op.Dc.index in
  let id node = Option.value ~default:(-1) (Engine.node_id index node) in
  let v i = if i < 0 then 0. else op.Dc.x.(i) in
  N.elements op.Dc.netlist
  |> List.filter_map (function
       | N.Resistor { name; a; b; r } ->
         Some
           { name; a; b; ia = id a; ib = id b; white = four_kt /. r;
             flicker_num = 0.; flicker_den = 1. }
       | N.Mosfet { name; card; d; g; s; b; geom; m; _ } ->
         let geom = { geom with Mos.w = geom.Mos.w *. m } in
         let id_d = id d and id_s = id s in
         let vd = v id_d and vg = v (id g) and vs = v id_s and vb = v (id b) in
         (* One evaluation gives both: gm = |∂I/∂vgs| and I_D. *)
         let e =
           Mos.evaluate card geom ~vgs:(vg -. vs) ~vds:(vd -. vs)
             ~vsb:(vs -. vb)
         in
         let ids = Float.abs e.Mos.ids in
         let leff = Float.max 1e-9 (geom.Mos.l -. (2. *. card.Card.ld)) in
         (* Channel thermal 4kT·(2/3)·gm plus the SPICE flicker model
            KF·I^AF / (Cox·Leff²·f), as a drain current PSD. *)
         Some
           { name; a = d; b = s; ia = id_d; ib = id_s;
             white = four_kt *. (2. /. 3.) *. Float.abs e.Mos.di_dvgs;
             flicker_num = card.Card.kf *. (ids ** card.Card.af);
             flicker_den = Card.cox card *. leff *. leff }
       | N.Capacitor _ | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Switch _ ->
         None)
  |> Array.of_list

let noise_sources op freq =
  Array.to_list
    (Array.map (fun s -> (s.name, s.a, s.b, psd s freq)) (source_table op))

(* Adjoint (reciprocity) evaluation: with y solving Aᵀy = e_out, the
   transfer impedance of a 1 A source from node a to node b is
   z = e_outᵀ A⁻¹ (e_b − e_a) = y(b) − y(a) — so one transposed solve
   per frequency yields every source's transfer impedance, however many
   sources the deck has.  [None] when [out] is ground. *)
let adjoints p ~out freqs =
  let index = (Ac.op p).Dc.index in
  match Engine.node_id index out with
  | None -> None
  | Some iout ->
    let e_out = Array.make (Engine.size index) Complex.zero in
    e_out.(iout) <- Complex.one;
    Ape_obs.add c_adjoint (Array.length freqs);
    Some (Ac.solve_transposed_many p freqs e_out)

(* |y(b) − y(a)| (0 with no adjoint): [Complex.norm (Complex.sub yb ya)]
   without the box. *)
let[@inline] zmag y s =
  match y with
  | None -> 0.
  | Some (y : Complex.t array) ->
    let yb = if s.ib < 0 then Complex.zero else y.(s.ib)
    and ya = if s.ia < 0 then Complex.zero else y.(s.ia) in
    Float.hypot (yb.Complex.re -. ya.Complex.re) (yb.Complex.im -. ya.Complex.im)

(* Total output PSD at [freq]: the contributions summed in element
   order, the order the breakdown's total is summed in. *)
let total_at sources y freq =
  let acc = ref 0. in
  for i = 0 to Array.length sources - 1 do
    let s = sources.(i) in
    let z = zmag y s in
    acc := !acc +. (psd s freq *. z *. z)
  done;
  !acc

let output_noise_prepared ~out ~freq p =
  let sources = source_table (Ac.op p) in
  let y = Option.map (fun ys -> ys.(0)) (adjoints p ~out [| freq |]) in
  let contributions =
    Array.to_list
      (Array.map
         (fun s ->
           let z = zmag y s in
           { element = s.name; psd = psd s freq *. z *. z })
         sources)
  in
  ( List.fold_left (fun acc c -> acc +. c.psd) 0. contributions,
    List.sort (fun x y -> compare y.psd x.psd) contributions )

let input_referred_prepared ~out ~freq p =
  let y = Option.map (fun ys -> ys.(0)) (adjoints p ~out [| freq |]) in
  let total = total_at (source_table (Ac.op p)) y freq in
  let gain = Measure.Prepared.gain_at ~out p freq in
  if gain = 0. then raise Division_by_zero;
  Float.sqrt total /. gain

let integrated_output_prepared ~out ~fstart ~fstop p =
  if fstart <= 0. || fstop <= fstart then
    invalid_arg "Noise.integrated_output: bad band";
  (* Five grid points per decade. *)
  let n =
    max 2 (1 + int_of_float (Float.ceil (Float.log10 (fstop /. fstart) *. 5.)))
  in
  let freqs = Array.of_list (Ape_util.Float_ext.logspace fstart fstop n) in
  let sources = source_table (Ac.op p) in
  let ys = adjoints p ~out freqs in
  let psds =
    Array.mapi
      (fun i f -> total_at sources (Option.map (fun ys -> ys.(i)) ys) f)
      freqs
  in
  (* Trapezoidal integration on the linear frequency axis. *)
  let acc = ref 0. in
  for i = 0 to Array.length freqs - 2 do
    acc :=
      !acc +. (0.5 *. (psds.(i) +. psds.(i + 1)) *. (freqs.(i + 1) -. freqs.(i)))
  done;
  Float.sqrt !acc
