(* Tests for Ape_device: the smooth MOS model, region handling, the
   estimation-view equations, sizing round trips and passives. *)

module Mos = Ape_device.Mos
module Passive = Ape_device.Passive
module Card = Ape_process.Model_card
module Proc = Ape_process.Process
module F = Ape_util.Float_ext

let proc = Proc.c12
let nmos = proc.Proc.nmos
let pmos = proc.Proc.pmos
let g = Mos.geom ~w:20e-6 ~l:2.4e-6

let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.8g vs %.8g" msg expected actual)
    true
    (F.approx_equal ~rtol:tol ~atol:tol expected actual)

(* ---------- geometry ---------- *)

let test_geom () =
  check_close "gate area" 48e-12 (Mos.gate_area g);
  Alcotest.check_raises "bad geom"
    (Invalid_argument "Mos.geom: non-positive dimension") (fun () ->
      ignore (Mos.geom ~w:0. ~l:1e-6))

(* ---------- large signal ---------- *)

let test_regions () =
  let op v_gs v_ds = Mos.operating_point nmos g ~vgs:v_gs ~vds:v_ds ~vsb:0. in
  Alcotest.(check bool) "cutoff" true ((op 0.3 2.).Mos.region = Mos.Cutoff);
  Alcotest.(check bool) "saturation" true
    ((op 1.5 2.).Mos.region = Mos.Saturation);
  Alcotest.(check bool) "triode" true ((op 2.5 0.2).Mos.region = Mos.Triode)

let test_square_law_magnitude () =
  (* Deep in strong inversion the smooth model approaches the square
     law (with CLM and Leff corrections). *)
  let vgs = 2.0 and vds = 2.5 in
  let i = Mos.drain_current nmos g ~vgs ~vds ~vsb:0. in
  let vov = vgs -. Float.abs nmos.Card.vto in
  let leff = 2.4e-6 -. (2. *. nmos.Card.ld) in
  let expected =
    0.5 *. nmos.Card.kp *. (20e-6 /. leff) *. vov *. vov
    *. (1. +. (Card.lambda_at nmos 2.4e-6 *. vds))
  in
  check_close "square law" expected i ~tol:0.02

let test_pmos_sign () =
  (* A conducting PMOS sources current: Id < 0 with physically signed
     terminal voltages. *)
  let i = Mos.drain_current pmos g ~vgs:(-2.) ~vds:(-2.) ~vsb:0. in
  Alcotest.(check bool) "pmos current negative" true (i < -1e-6);
  let i_off = Mos.drain_current pmos g ~vgs:0. ~vds:(-2.) ~vsb:0. in
  Alcotest.(check bool) "pmos off" true (Float.abs i_off < 1e-9)

let test_source_drain_symmetry () =
  (* Swapping source and drain negates the current. *)
  let vg = 3.0 in
  let forward = Mos.drain_current nmos g ~vgs:vg ~vds:1.0 ~vsb:0. in
  (* Swap: the old drain (at +1.0) becomes the source: relative to it,
     vgs' = vg - 1.0, vds' = -1.0, and the new source-to-bulk is 1.0. *)
  let backward =
    Mos.drain_current nmos g ~vgs:(vg -. 1.0) ~vds:(-1.0) ~vsb:1.0
  in
  check_close "antisymmetric" forward (-.backward) ~tol:1e-9

let prop_current_monotone_vgs =
  QCheck.Test.make ~name:"Id monotone in vgs (sat)" ~count:200
    QCheck.(pair (float_range 0. 3.) (float_range 0. 3.))
    (fun (v1, v2) ->
      let lo = Float.min v1 v2 and hi = Float.max v1 v2 in
      Mos.drain_current nmos g ~vgs:hi ~vds:4. ~vsb:0.
      >= Mos.drain_current nmos g ~vgs:lo ~vds:4. ~vsb:0. -. 1e-15)

let prop_current_continuous_at_vdsat =
  QCheck.Test.make ~name:"Id continuous across vdsat" ~count:100
    (QCheck.float_range 1.0 3.0) (fun vgs ->
      let op = Mos.operating_point nmos g ~vgs ~vds:2.0 ~vsb:0. in
      let vdsat = op.Mos.vdsat in
      let below =
        Mos.drain_current nmos g ~vgs ~vds:(vdsat -. 1e-7) ~vsb:0.
      in
      let above =
        Mos.drain_current nmos g ~vgs ~vds:(vdsat +. 1e-7) ~vsb:0.
      in
      F.rel_error below above < 1e-3)

let prop_smooth_subthreshold =
  QCheck.Test.make ~name:"current positive and smooth below threshold"
    ~count:100
    (QCheck.float_range 0.0 0.9)
    (fun vgs ->
      let i = Mos.drain_current nmos g ~vgs ~vds:2.0 ~vsb:0. in
      i >= 0. && i < 1e-3)

(* ---------- small signal ---------- *)

let test_small_signal_consistency () =
  (* The numeric gm must match a direct finite difference of Id. *)
  let vgs = 1.4 and vds = 2.5 in
  let ss = Mos.small_signal nmos g ~vgs ~vds ~vsb:0. in
  let h = 1e-5 in
  let gm_fd =
    (Mos.drain_current nmos g ~vgs:(vgs +. h) ~vds ~vsb:0.
    -. Mos.drain_current nmos g ~vgs:(vgs -. h) ~vds ~vsb:0.)
    /. (2. *. h)
  in
  check_close "gm" gm_fd ss.Mos.gm ~tol:1e-4;
  Alcotest.(check bool) "caps positive" true
    (ss.Mos.cgs > 0. && ss.Mos.cgd > 0. && ss.Mos.cdb > 0.)

(* ---------- analytic partials ---------- *)

(* One device configuration per draw, chosen by category so that every
   combination of level, polarity, conduction direction, region and
   body-effect clamp is exercised: [region] and [clamp] place the frame
   voltages (NMOS frame, before any source/drain exchange), [swapped]
   reverses vds, and the physical voltages are the frame's times the
   polarity. *)
type device_case = {
  card : Card.t;
  geom : Mos.geom;
  vgs : float;
  vds : float;
  vsb : float;
  region : Mos.region;
}

let gen_device_case =
  let open QCheck.Gen in
  let* level = oneofl [ Card.Level1; Card.Level2; Card.Level3; Card.Bsim1 ] in
  let* base = oneofl [ nmos; pmos ] in
  let* region = oneofl [ Mos.Cutoff; Mos.Triode; Mos.Saturation ] in
  let* swapped = bool in
  let* clamp = bool in
  let* w = float_range 2e-6 200e-6 in
  let* l = float_range 1.2e-6 12e-6 in
  let* fvsb =
    if clamp then float_range (-1.0) (-0.61) else float_range 0. 3.
  in
  let* vov, ds =
    match region with
    | Mos.Cutoff -> pair (float_range (-0.5) 0.) (float_range 0.01 3.)
    | Mos.Triode -> pair (float_range 0.3 2.) (float_range 0.05 0.9)
    | Mos.Saturation -> pair (float_range 0.3 2.) (float_range 1.1 3.)
  in
  let card = Card.with_level level base in
  let p = Card.polarity card in
  let fvgs = Card.vth card ~vsb:fvsb +. vov in
  (* Triode and saturation scale vds by the smoothed overdrive so the
     region is the drawn one. *)
  let fvds =
    match region with
    | Mos.Cutoff -> ds
    | Mos.Triode | Mos.Saturation ->
      let s = 2. *. 1.2 *. 0.02585 in
      ds *. s *. Float.log1p (Float.exp (vov /. s))
  in
  let fvds = if swapped then -.fvds else fvds in
  return
    {
      card;
      geom = Mos.geom ~w ~l;
      vgs = p *. fvgs;
      vds = p *. fvds;
      vsb = p *. fvsb;
      region;
    }

let print_device_case c =
  Printf.sprintf "%s level %s W=%g L=%g vgs=%.17g vds=%.17g vsb=%.17g"
    c.card.Card.name
    (match c.card.Card.level with
    | Card.Level1 -> "1"
    | Card.Level2 -> "2"
    | Card.Level3 -> "3"
    | Card.Bsim1 -> "BSIM1")
    c.geom.Mos.w c.geom.Mos.l c.vgs c.vds c.vsb

let arb_device_case = QCheck.make ~print:print_device_case gen_device_case

let evaluate c = Mos.evaluate c.card c.geom ~vgs:c.vgs ~vds:c.vds ~vsb:c.vsb

(* The analytic partials against central differences at h = 1e-6 (the
   step the engine used to stamp): every partial within 1e-6 of the
   device's total conductance |∂vgs| + |∂vds| + |∂vsb|.  Over 2 million
   random points the worst case is 1.6e-7, next to the body-effect
   clamp where sqrt(phi + vsb) curves hardest.  Points whose evaluated
   frame sits within 4h of the clamp's kink are skipped: there the
   difference quotient straddles a slope discontinuity. *)
let prop_partials_match_finite_differences =
  QCheck.Test.make ~name:"analytic partials = finite differences"
    ~count:4000 arb_device_case (fun c ->
      let h = 1e-6 in
      let p = Card.polarity c.card in
      let fvds = p *. c.vds and fvsb = p *. c.vsb in
      let frame_vsb = if fvds >= 0. then fvsb else fvsb +. fvds in
      QCheck.assume
        (Float.abs (c.card.Card.phi +. frame_vsb -. 1e-3) > 4. *. h);
      let e = evaluate c in
      let gm, gds, gsb =
        Ape_oracle.mos_partials ~h c.card c.geom ~vgs:c.vgs ~vds:c.vds
          ~vsb:c.vsb
      in
      let scale =
        Float.abs e.Mos.di_dvgs +. Float.abs e.Mos.di_dvds
        +. Float.abs e.Mos.di_dvsb
      in
      let close fd a = Float.abs (fd -. a) <= 1e-6 *. scale in
      e.Mos.region = c.region
      && close gm e.Mos.di_dvgs
      && close gds e.Mos.di_dvds
      && close gsb e.Mos.di_dvsb)

let prop_evaluation_current_is_drain_current =
  QCheck.Test.make ~name:"evaluation current bitwise = drain_current"
    ~count:1000 arb_device_case (fun c ->
      Int64.equal
        (Int64.bits_of_float (evaluate c).Mos.ids)
        (Int64.bits_of_float
           (Mos.drain_current c.card c.geom ~vgs:c.vgs ~vds:c.vds ~vsb:c.vsb)))

let test_est_vs_sim_gm () =
  (* Paper Eq.(2) vs the smooth model at a healthy overdrive: within
     15 %. *)
  let ids = 50e-6 in
  let wl = Mos.size_for_id_vov nmos ~ids ~vov:0.4 in
  let vgs = Mos.operating_vgs nmos ~w_over_l:wl ~ids ~vsb:0. in
  let gm_est = Mos.est_gm nmos ~w_over_l:wl ~ids in
  let g2 = Mos.geom ~w:(wl *. 2.4e-6) ~l:2.4e-6 in
  let ss = Mos.small_signal nmos g2 ~vgs ~vds:2.5 ~vsb:0. in
  (* The paper-faithful Eq.(2) omits CLM (+12%) and the Leff shortening
     (+14%): a ~30% systematic estimate gap is the expected envelope. *)
  Alcotest.(check bool) "gm within 30%" true
    (F.rel_error gm_est ss.Mos.gm < 0.30)

let test_est_equations () =
  check_close "gm formula" (Float.sqrt (2. *. 75e-6 *. 10. *. 1e-5))
    (Mos.est_gm nmos ~w_over_l:10. ~ids:1e-5);
  let gm = 1e-4 in
  let gmb = Mos.est_gmb nmos ~gm ~vsb:1.0 in
  check_close "gmb formula"
    (gm *. nmos.Card.gamma /. (2. *. Float.sqrt (nmos.Card.phi +. 1.0)))
    gmb;
  let gds = Mos.est_gds nmos ~l:2.4e-6 ~ids:1e-5 ~vds:2.5 in
  let lam = Card.lambda_at nmos 2.4e-6 in
  check_close "gds formula" (lam *. 1e-5 /. (1. +. (lam *. 2.5))) gds

(* ---------- sizing ---------- *)

let test_size_roundtrip_current () =
  (* A device sized for (Id, Vov) must conduct Id at its bias point under
     the full simulation model (2% tolerance). *)
  List.iter
    (fun (ids, vov) ->
      let s =
        Mos.size ~vds:2.5 ~process:proc nmos (Mos.By_id_vov { ids; vov; l = 2.4e-6 })
      in
      let i_sim =
        Mos.drain_current nmos s.Mos.geom ~vgs:s.Mos.vgs ~vds:2.5 ~vsb:0.
      in
      Alcotest.(check bool)
        (Printf.sprintf "current realised (Id=%g, Vov=%g): %g vs %g" ids vov
           ids i_sim)
        true
        (F.rel_error ids i_sim < 0.02))
    [ (10e-6, 0.3); (100e-6, 0.5); (1e-6, 0.2); (50e-6, 1.0) ]

let test_size_roundtrip_gm () =
  let gm = 200e-6 and ids = 40e-6 in
  let s =
    Mos.size ~vds:2.5 ~process:proc nmos (Mos.By_gm_id { gm; ids; l = 2.4e-6 })
  in
  check_close "design gm recorded" gm s.Mos.gm ~tol:1e-9;
  let ss =
    Mos.small_signal nmos s.Mos.geom ~vgs:s.Mos.vgs ~vds:2.5 ~vsb:0.
  in
  Alcotest.(check bool) "sim gm within 20%" true
    (F.rel_error gm ss.Mos.gm < 0.20)

let test_size_wmin_stretch () =
  (* A weak-ratio request must stretch L, not silently clamp W. *)
  let s =
    Mos.size ~vds:2.5 ~process:proc nmos
      (Mos.By_id_vov { ids = 0.5e-6; vov = 1.0; l = 2.4e-6 })
  in
  Alcotest.(check bool) "W at minimum" true
    (s.Mos.geom.Mos.w >= proc.Proc.wmin -. 1e-12);
  Alcotest.(check bool) "L stretched" true (s.Mos.geom.Mos.l > 2.4e-6)

let test_size_errors () =
  Alcotest.check_raises "bad gm" (Invalid_argument "Mos.size_for_gm_id")
    (fun () -> ignore (Mos.size_for_gm_id nmos ~gm:0. ~ids:1e-6));
  Alcotest.check_raises "bad vov" (Invalid_argument "Mos.size_for_id_vov")
    (fun () -> ignore (Mos.size_for_id_vov nmos ~ids:1e-6 ~vov:0.))

let test_model_levels () =
  (* Higher levels reduce the current at the same bias (mobility
     degradation / velocity saturation). *)
  let bias card = Mos.drain_current card g ~vgs:2.5 ~vds:2.5 ~vsb:0. in
  let i1 = bias nmos in
  let i2 = bias (Card.with_level Card.Level2 nmos) in
  let i3 = bias (Card.with_level Card.Level3 nmos) in
  Alcotest.(check bool) "level2 <= level1" true (i2 <= i1);
  Alcotest.(check bool) "level3 <= level2" true (i3 <= i2)

(* ---------- passives ---------- *)

let test_passives () =
  let r = Passive.resistor proc 10e3 in
  Alcotest.(check bool) "resistor area positive" true (r.Passive.area > 0.);
  let c = Passive.capacitor proc 1e-12 in
  Alcotest.(check bool) "cap area positive" true (c.Passive.area > 0.);
  check_close "e96 snaps 4.7k" 4.75e3 (Passive.e96_round 4.7e3) ~tol:0.02;
  check_close "e96 snaps 1.0" 1.0 (Passive.e96_round 1.001) ~tol:1e-3;
  Alcotest.check_raises "bad resistor"
    (Invalid_argument "Passive.resistor: non-positive") (fun () ->
      ignore (Passive.resistor proc 0.))

let prop_e96_within_1pct =
  QCheck.Test.make ~name:"e96 rounding within 1.5%" ~count:300
    (QCheck.float_range 1. 1e6) (fun x ->
      F.rel_error x (Passive.e96_round x) < 0.015)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_device"
    [
      ("geometry", [ Alcotest.test_case "geom" `Quick test_geom ]);
      ( "large-signal",
        [
          Alcotest.test_case "regions" `Quick test_regions;
          Alcotest.test_case "square law" `Quick test_square_law_magnitude;
          Alcotest.test_case "pmos sign" `Quick test_pmos_sign;
          Alcotest.test_case "S/D symmetry" `Quick test_source_drain_symmetry;
          Alcotest.test_case "model levels" `Quick test_model_levels;
        ] );
      qsuite "large-signal-properties"
        [
          prop_current_monotone_vgs;
          prop_current_continuous_at_vdsat;
          prop_smooth_subthreshold;
        ];
      ( "small-signal",
        [
          Alcotest.test_case "fd consistency" `Quick
            test_small_signal_consistency;
          Alcotest.test_case "est vs sim gm" `Quick test_est_vs_sim_gm;
          Alcotest.test_case "paper equations" `Quick test_est_equations;
        ] );
      qsuite "evaluation-properties"
        [
          prop_partials_match_finite_differences;
          prop_evaluation_current_is_drain_current;
        ];
      ( "sizing",
        [
          Alcotest.test_case "current roundtrip" `Quick
            test_size_roundtrip_current;
          Alcotest.test_case "gm roundtrip" `Quick test_size_roundtrip_gm;
          Alcotest.test_case "wmin stretch" `Quick test_size_wmin_stretch;
          Alcotest.test_case "errors" `Quick test_size_errors;
        ] );
      ( "passives",
        [ Alcotest.test_case "r/c/e96" `Quick test_passives ] );
      qsuite "passive-properties" [ prop_e96_within_1pct ];
    ]
