module Card = Ape_process.Model_card
module Proc = Ape_process.Process

type geom = { w : float; l : float }

let geom ~w ~l =
  if w <= 0. || l <= 0. then invalid_arg "Mos.geom: non-positive dimension";
  { w; l }

let gate_area g = g.w *. g.l

type region = Cutoff | Triode | Saturation

type operating_point = {
  ids : float;
  region : region;
  vth : float;
  vov : float;
  vdsat : float;
}

type small_signal = {
  gm : float;
  gmb : float;
  gds : float;
  cgs : float;
  cgd : float;
  cgb : float;
  cdb : float;
  csb : float;
}

(* Smoothing constant for the EKV-style effective overdrive; n·Vt with
   n = 1.2 at room temperature. *)
let n_vt = 1.2 *. 0.02585

(* vov_eff = 2nVt·ln(1 + exp(vov / 2nVt)): equals vov for vov >> 0,
   decays to 0 smoothly below threshold. *)
let vov_eff vov =
  let s = 2. *. n_vt in
  let x = vov /. s in
  if x > 40. then vov
  else if x < -40. then s *. Float.exp x
  else s *. Float.log1p (Float.exp x)

(* d vov_eff / d vov: the logistic function of vov / 2nVt, on the same
   three branches as [vov_eff]. *)
let vov_eff_slope vov =
  let x = vov /. (2. *. n_vt) in
  if x > 40. then 1.
  else
    let e = Float.exp x in
    if x < -40. then e else e /. (1. +. e)

(* Effective KP with level-dependent refinements evaluated at overdrive
   [vov] and length [l], with its slope d kp / d vov. *)
let kp_eff (card : Card.t) ~vov ~l =
  let kp = card.Card.kp in
  let vov = Float.max 0. vov in
  match card.Card.level with
  | Card.Level1 -> (kp, 0.)
  | Card.Level2 ->
    let theta_term = 1. +. (card.Card.theta *. vov) in
    let k = kp /. theta_term in
    (k, -.k *. card.Card.theta /. theta_term)
  | Card.Level3 | Card.Bsim1 ->
    let theta_term = 1. +. (card.Card.theta *. vov) in
    (* Velocity saturation: critical field Ec = 2·vmax/µ0. *)
    let ecrit = 2. *. card.Card.vmax /. card.Card.u0 in
    let leff = Float.max 1e-9 (l -. (2. *. card.Card.ld)) in
    let vsat_term = 1. +. (vov /. (ecrit *. leff)) in
    let k = kp /. (theta_term *. vsat_term) in
    ( k,
      -.k
      *. ((card.Card.theta /. theta_term)
         +. (1. /. (ecrit *. leff *. vsat_term))) )

(* Current and its partials in the NMOS frame with vds >= 0. *)
type frame = { fi : float; f_vgs : float; f_vds : float; f_vsb : float }

(* The current is one expression; the partials follow it by the chain
   rule through vth(vsb) (frozen where [Card.vth] clamps phi + vsb),
   BSIM1's -eta·vds threshold shift, the overdrive smoothing, kp_eff
   and channel-length modulation. *)
let ids_frame (card : Card.t) g ~vgs ~vds ~vsb =
  let vth = Card.vth card ~vsb in
  let vth, dvov_dvds =
    match card.Card.level with
    | Card.Bsim1 -> (vth -. (card.Card.eta *. vds), card.Card.eta)
    | Card.Level1 | Card.Level2 | Card.Level3 -> (vth, 0.)
  in
  let vov = vgs -. vth in
  let ve = vov_eff vov in
  let kp, dkp = kp_eff card ~vov:ve ~l:g.l in
  let leff = Float.max 1e-9 (g.l -. (2. *. card.Card.ld)) in
  let wl = g.w /. leff in
  let lam = Card.lambda_at card g.l in
  let clm = 1. +. (lam *. vds) in
  (* [di_dve]: through the overdrive; [di_dvds]: vds's direct terms. *)
  let fi, di_dve, di_dvds =
    if vds >= ve then
      ( 0.5 *. kp *. wl *. ve *. ve *. clm,
        0.5 *. wl *. clm *. ((dkp *. ve *. ve) +. (2. *. kp *. ve)),
        0.5 *. kp *. wl *. ve *. ve *. lam )
    else
      let q = (ve *. vds) -. (0.5 *. vds *. vds) in
      ( kp *. wl *. q *. clm,
        wl *. clm *. ((dkp *. q) +. (kp *. vds)),
        kp *. wl *. (((ve -. vds) *. clm) +. (q *. lam)) )
  in
  let di_dvov = di_dve *. vov_eff_slope vov in
  {
    fi;
    f_vgs = di_dvov;
    f_vds = di_dvds +. (di_dvov *. dvov_dvds);
    f_vsb = -.di_dvov *. Card.vth_slope card ~vsb;
  }

type evaluation = {
  ids : float;
  di_dvgs : float;
  di_dvds : float;
  di_dvsb : float;
  region : region;
}

let evaluate card g ~vgs ~vds ~vsb =
  let p = Card.polarity card in
  (* Flip into the NMOS frame.  With i = p·I(p·vgs, p·vds, p·vsb) the
     partials are p²·dI = dI: polarity never touches them. *)
  let fvgs = p *. vgs and fvds = p *. vds and fvsb = p *. vsb in
  let i, di_dvgs, di_dvds, di_dvsb =
    if fvds >= 0. then
      let f = ids_frame card g ~vgs:fvgs ~vds:fvds ~vsb:fvsb in
      (f.fi, f.f_vgs, f.f_vds, f.f_vsb)
    else
      (* Source/drain exchange: the terminal at lower (frame) potential
         acts as source, i = -I(vgs - vds, -vds, vsb + vds). *)
      let f =
        ids_frame card g ~vgs:(fvgs -. fvds) ~vds:(-.fvds) ~vsb:(fvsb +. fvds)
      in
      (-.f.fi, -.f.f_vgs, f.f_vgs +. f.f_vds -. f.f_vsb, -.f.f_vsb)
  in
  (* The region classifies the voltages as given (no exchange, no eta
     shift); it selects the Meyer capacitance split. *)
  let vov = fvgs -. Card.vth card ~vsb:fvsb in
  let region =
    if vov < 0.01 then Cutoff
    else if Float.abs fvds >= vov_eff vov then Saturation
    else Triode
  in
  { ids = p *. i; di_dvgs; di_dvds; di_dvsb; region }

let operating_point card g ~vgs ~vds ~vsb =
  let e = evaluate card g ~vgs ~vds ~vsb in
  let p = Card.polarity card in
  let vth = Card.vth card ~vsb:(p *. vsb) in
  let ve = vov_eff ((p *. vgs) -. vth) in
  { ids = e.ids; region = e.region; vth; vov = ve; vdsat = ve }

let capacitances (card : Card.t) g ~region ~vdb ~vsb =
  let cox = Card.cox card in
  let cox_total = g.w *. g.l *. cox in
  let cgs_i, cgd_i, cgb_i =
    (* Meyer capacitance split. *)
    match region with
    | Saturation -> (2. /. 3. *. cox_total, 0., 0.)
    | Triode -> (0.5 *. cox_total, 0.5 *. cox_total, 0.)
    | Cutoff -> (0., 0., cox_total)
  in
  let cgs = cgs_i +. (card.Card.cgso *. g.w) in
  let cgd = cgd_i +. (card.Card.cgdo *. g.w) in
  let cgb = cgb_i +. (card.Card.cgbo *. g.l) in
  (* Junction caps: diffusion of width W and length 3·Lmin-ish (3 µm in
     the 1.2 µm process); reverse-bias reduces them. *)
  let ldiff = 3.0e-6 in
  let area = g.w *. ldiff in
  let perim = (2. *. ldiff) +. g.w in
  let junction v =
    let vr = Float.max 0. (Card.polarity card *. v) in
    let bottom =
      card.Card.cj *. area /. ((1. +. (vr /. card.Card.pb)) ** card.Card.mj)
    in
    let side =
      card.Card.cjsw *. perim
      /. ((1. +. (vr /. card.Card.pb)) ** card.Card.mjsw)
    in
    bottom +. side
  in
  (cgs, cgd, cgb, junction vdb, junction vsb)

let small_signal card g ~vgs ~vds ~vsb =
  let e = evaluate card g ~vgs ~vds ~vsb in
  let p = Card.polarity card in
  let cgs, cgd, cgb, cdb, csb =
    capacitances card g ~region:e.region ~vdb:(p *. (vds +. vsb))
      ~vsb:(p *. vsb)
  in
  (* gmb is the response to vbs = -vsb: |di/dvsb|. *)
  {
    gm = Float.abs e.di_dvgs;
    gmb = Float.abs e.di_dvsb;
    gds = Float.abs e.di_dvds;
    cgs;
    cgd;
    cgb;
    cdb;
    csb;
  }

(* ---- Estimation view: the paper's closed-form Level-1 equations. ---- *)

let est_vth card ~vsb = Card.vth card ~vsb

let est_gm (card : Card.t) ~w_over_l ~ids =
  if w_over_l <= 0. then invalid_arg "Mos.est_gm: W/L <= 0";
  Float.sqrt (2. *. card.Card.kp *. w_over_l *. Float.abs ids)

let est_gmb (card : Card.t) ~gm ~vsb =
  gm *. card.Card.gamma
  /. (2. *. Float.sqrt (Float.max 1e-3 (card.Card.phi +. vsb)))

let est_gds card ~l ~ids ~vds =
  let lam = Card.lambda_at card l in
  lam *. Float.abs ids /. (1. +. (lam *. Float.abs vds))

let size_for_gm_id (card : Card.t) ~gm ~ids =
  if gm <= 0. || ids = 0. then invalid_arg "Mos.size_for_gm_id";
  gm *. gm /. (2. *. card.Card.kp *. Float.abs ids)

let size_for_id_vov (card : Card.t) ~ids ~vov =
  if vov <= 0. || ids = 0. then invalid_arg "Mos.size_for_id_vov";
  2. *. Float.abs ids /. (card.Card.kp *. vov *. vov)

(* Inverse of the simulation model's overdrive smoothing: the raw
   vgs - vth that produces effective overdrive [vov] under vov_eff. *)
let vov_raw_of_eff vov =
  let s = 2. *. n_vt in
  let x = vov /. s in
  if x > 40. then vov else s *. Float.log (Float.expm1 x)

let operating_vgs (card : Card.t) ~w_over_l ~ids ~vsb =
  if w_over_l <= 0. then invalid_arg "Mos.operating_vgs";
  let vov = Float.sqrt (2. *. Float.abs ids /. (card.Card.kp *. w_over_l)) in
  est_vth card ~vsb +. vov_raw_of_eff vov

type sized = {
  card : Card.t;
  geom : geom;
  ids : float;
  vgs : float;
  vds : float;
  vsb : float;
  gm : float;
  gmb : float;
  gds : float;
  ss : small_signal;
}

type size_spec =
  | By_gm_id of { gm : float; ids : float; l : float }
  | By_id_vov of { ids : float; vov : float; l : float }
  | By_geom of { geom : geom; ids : float }

let size ?vds ?(vsb = 0.) ~process card spec =
  let vdd = process.Proc.vdd -. process.Proc.vss in
  let vds = match vds with Some v -> v | None -> vdd /. 2. in
  (* Channel-length modulation boosts the current at the assumed V_DS;
     shrink the ratio so the bias current is realised, not exceeded. *)
  let clm l = 1. +. (Card.lambda_at card l *. Float.abs vds) in
  (* Realise a W/L ratio within the process geometry limits: when the
     ratio calls for W below Wmin, hold W = Wmin and stretch L instead
     (capped at 50·Lmin) so weak loads keep their intended overdrive. *)
  let realize wl l =
    let w = wl *. l in
    if w > process.Proc.wmax then geom ~w:process.Proc.wmax ~l
    else if w >= process.Proc.wmin then geom ~w ~l
    else begin
      let l_stretch =
        Float.min (process.Proc.wmin /. wl) (50. *. process.Proc.lmin)
      in
      geom ~w:process.Proc.wmin ~l:(Float.max l l_stretch)
    end
  in
  (* The current equations act on the effective length L − 2·LD; the
     required ratio is converted to drawn geometry before realisation. *)
  let eff_factor l =
    Float.max 0.1 ((l -. (2. *. card.Card.ld)) /. l)
  in
  let g, ids =
    match spec with
    | By_gm_id { gm; ids; l } ->
      let wl = size_for_gm_id card ~gm ~ids /. clm l *. eff_factor l in
      (realize wl l, Float.abs ids)
    | By_id_vov { ids; vov; l } ->
      let wl = size_for_id_vov card ~ids ~vov /. clm l *. eff_factor l in
      (realize wl l, Float.abs ids)
    | By_geom { geom = g; ids } -> (g, Float.abs ids)
  in
  let w_over_l = g.w /. g.l in
  (* Bias overdrive of the realised geometry (effective length, CLM
     included) so that the device conducts [ids] at the assumed V_DS. *)
  let vov_real =
    Float.sqrt
      (2. *. ids
      /. (card.Card.kp *. (w_over_l /. eff_factor g.l) *. clm g.l))
  in
  let vgs = est_vth card ~vsb +. vov_raw_of_eff vov_real in
  (* Realised transconductance: the paper equation applied to the
     effective ratio, with the CLM boost — for By_gm_id this reproduces
     the requested gm exactly. *)
  let gm =
    est_gm card ~w_over_l:(w_over_l /. eff_factor g.l) ~ids
    *. Float.sqrt (clm g.l)
  in
  let gmb = est_gmb card ~gm ~vsb in
  let gds = est_gds card ~l:g.l ~ids ~vds in
  let p = Card.polarity card in
  let ss =
    let ss_sim =
      small_signal card g ~vgs:(p *. vgs) ~vds:(p *. vds) ~vsb:(p *. vsb)
    in
    (* The estimate object carries estimation-view conductances with
       simulation-view capacitances (the paper sizes caps from the same
       geometry either way). *)
    { ss_sim with gm; gmb; gds }
  in
  { card; geom = g; ids; vgs; vds; vsb; gm; gmb; gds; ss }

let pp_sized fmt s =
  Format.fprintf fmt
    "%s W=%s L=%s Id=%s Vgs=%.3g gm=%s gds=%s area=%sm^2"
    s.card.Card.name
    (Ape_util.Units.to_eng s.geom.w)
    (Ape_util.Units.to_eng s.geom.l)
    (Ape_util.Units.to_eng s.ids)
    s.vgs
    (Ape_util.Units.to_eng s.gm)
    (Ape_util.Units.to_eng s.gds)
    (Ape_util.Units.to_eng (gate_area s.geom))
