(* Tests for Ape_spice: DC Newton, AC sweeps against analytic transfer
   functions, transient integration, AWE moment matching and measurement
   extraction. *)

module N = Ape_circuit.Netlist
module B = Ape_circuit.Builder
module Dc = Ape_spice.Dc
module Ac = Ape_spice.Ac
module Tr = Ape_spice.Transient
module Awe = Ape_spice.Awe
module Measure = Ape_spice.Measure.Prepared
module Noise = Ape_spice.Noise
module Verify = Ape_estimator.Verify
module F = Ape_util.Float_ext
module Proc = Ape_process.Process

let proc = Proc.c12

let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.8g vs %.8g" msg expected actual)
    true
    (F.approx_equal ~rtol:tol ~atol:tol expected actual)

(* ---------- DC ---------- *)

let test_dc_divider () =
  let b = B.create ~title:"div" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  B.resistor b ~a:"vdd" ~b:"mid" 2e3;
  B.resistor b ~a:"mid" ~b:"0" 3e3;
  let op = Dc.solve (B.finish b) in
  check_close "divider" 3.0 (Dc.voltage op "mid") ~tol:1e-9;
  (match Dc.branch_current op "V1" with
  | Some i -> check_close "source current" 1e-3 (Float.abs i) ~tol:1e-9
  | None -> Alcotest.fail "missing branch current");
  check_close "power" 5e-3 (Dc.static_power op ~supply:"V1") ~tol:1e-9

let test_dc_isource () =
  (* 1 mA into a 1 kΩ to ground: 1 V at the node.  Isource p=vdd pushes
     into n=node. *)
  let b = B.create ~title:"isrc" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  B.isource b ~p:"vdd" ~n:"node" 1e-3;
  B.resistor b ~a:"node" ~b:"0" 1e3;
  let op = Dc.solve (B.finish b) in
  check_close "isource node" 1.0 (Dc.voltage op "node") ~tol:1e-6

let test_dc_vcvs () =
  let b = B.create ~title:"vcvs" in
  B.vsource b ~p:"in" ~n:"0" 0.5;
  B.vcvs b ~p:"out" ~n:"0" ~cp:"in" ~cn:"0" 10.;
  B.resistor b ~a:"out" ~b:"0" 1e3;
  let op = Dc.solve (B.finish b) in
  check_close "vcvs gain" 5.0 (Dc.voltage op "out") ~tol:1e-9

let test_dc_diode_mosfet () =
  let b = B.create ~title:"diode" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  B.resistor b ~a:"vdd" ~b:"d" 100e3;
  B.nmos b proc ~d:"d" ~g:"d" ~s:"0" ~w:10e-6 ~l:2.4e-6;
  let op = Dc.solve (B.finish b) in
  let vd = Dc.voltage op "d" in
  Alcotest.(check bool) "diode voltage plausible" true (vd > 0.8 && vd < 2.0);
  (* KCL: resistor current equals transistor current. *)
  match Dc.mosfet_regions op with
  | [ (_, region, ids) ] ->
    Alcotest.(check bool) "saturated" true (region = Ape_device.Mos.Saturation);
    check_close "KCL" ((5. -. vd) /. 100e3) ids ~tol:1e-4
  | _ -> Alcotest.fail "expected one mosfet"

let test_dc_multiplier_differential () =
  (* M=2 on a 4e-6 device must be bit-identical to a single 8e-6
     device everywhere in the engine (doubling a float is exact). *)
  let deck m_clause =
    Printf.sprintf
      "VDD vdd 0 DC 5\nVIN g 0 DC 1.5\nRL vdd out 10k\n\
       M1 out g 0 0 NMOS %s L=2e-6\n"
      m_clause
  in
  let solve d = Dc.solve (Ape_circuit.Spice_parser.parse ~title:"m" d) in
  let a = solve (deck "W=4e-6 M=2") and b = solve (deck "W=8e-6") in
  List.iter
    (fun node ->
      Alcotest.(check (float 0.))
        ("V(" ^ node ^ ")")
        (Dc.voltage b node) (Dc.voltage a node))
    [ "vdd"; "g"; "out" ]

let test_dc_switch () =
  let net ctrl_v =
    let b = B.create ~title:"sw" in
    B.vsource b ~p:"in" ~n:"0" 1.0;
    B.vsource b ~p:"ctrl" ~n:"0" ctrl_v;
    B.switch b ~ron:100. ~roff:1e12 ~vthreshold:2.5 ~a:"in" ~b:"out" ~ctrl:"ctrl";
    B.resistor b ~a:"out" ~b:"0" 100.;
    B.finish b
  in
  let on = Dc.solve (net 5.) and off = Dc.solve (net 0.) in
  check_close "switch on divides" 0.5 (Dc.voltage on "out") ~tol:1e-6;
  Alcotest.(check bool) "switch off isolates" true
    (Dc.voltage off "out" < 1e-6)

let test_dc_diff_pair_convergence () =
  (* A full differential stage must converge from the generic initial
     guess. *)
  let d =
    Ape_estimator.Diff_pair.design proc
      (Ape_estimator.Diff_pair.spec ~av:500. Ape_estimator.Diff_pair.Cmos_mirror
         ~itail:2e-6)
  in
  let frag = Ape_estimator.Diff_pair.fragment proc d in
  let nl = Ape_estimator.Fragment.with_supply ~vdd:5. frag in
  let nl =
    N.append nl
      [
        N.Vsource { name = "VP"; p = "inp"; n = "0"; dc = 2.5; ac = 0. };
        N.Vsource { name = "VN"; p = "inn"; n = "0"; dc = 2.5; ac = 0. };
      ]
  in
  let op = Dc.solve nl in
  Alcotest.(check bool) "converged in < 100 iters" true (op.Dc.iterations < 100)

(* ---------- AC ---------- *)

let rc_lowpass () =
  let b = B.create ~title:"rc" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.resistor b ~a:"in" ~b:"out" 1e3;
  B.capacitor b ~a:"out" ~b:"0" 1e-6;
  B.finish b

let test_ac_rc_analytic () =
  let prep = Ac.prepare (Dc.solve (rc_lowpass ())) in
  let fc = 1. /. (2. *. Float.pi *. 1e3 *. 1e-6) in
  List.iter
    (fun f ->
      let mag = Measure.gain_at ~out:"out" prep f in
      let expected = 1. /. Float.sqrt (1. +. ((f /. fc) ** 2.)) in
      check_close (Printf.sprintf "|H| at %g Hz" f) expected mag ~tol:1e-6)
    [ 1.; 10.; fc; 1e3; 1e4 ]

let test_ac_phase () =
  let prep = Ac.prepare (Dc.solve (rc_lowpass ())) in
  let fc = 1. /. (2. *. Float.pi *. 1e3 *. 1e-6) in
  check_close "phase at fc" (-45.) (Measure.phase_at ~out:"out" prep fc)
    ~tol:1e-3

let test_ac_sweep_shape () =
  let prep = Ac.prepare (Dc.solve (rc_lowpass ())) in
  let freqs = Ac.sweep_frequencies ~points_per_decade:5 ~fstart:1. ~fstop:1e5 () in
  let mags =
    List.map
      (fun s -> Complex.norm (Ac.voltage_prepared prep s "out"))
      (Ac.sweep_prepared prep freqs).Ac.points
  in
  (* Low-pass: monotone non-increasing. *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone rolloff" true (monotone mags)

let test_measure_f3db_ugf () =
  (* Amplifying RC: VCVS gain 10 into RC, f3db = fc, UGF = fc*sqrt(100-1). *)
  let b = B.create ~title:"amp_rc" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.vcvs b ~p:"x" ~n:"0" ~cp:"in" ~cn:"0" 10.;
  B.resistor b ~a:"x" ~b:"out" 1e3;
  B.capacitor b ~a:"out" ~b:"0" 1e-9;
  let prep = Ac.prepare (Dc.solve (B.finish b)) in
  let fc = 1. /. (2. *. Float.pi *. 1e3 *. 1e-9) in
  check_close "dc gain" 10. (Measure.dc_gain ~out:"out" prep) ~tol:1e-9;
  (match Measure.f_minus_3db ~fmin:10. ~fmax:1e8 ~out:"out" prep with
  | Some f -> check_close "f3db" fc f ~tol:1e-3
  | None -> Alcotest.fail "no f3db");
  match Measure.unity_gain_frequency ~fmin:10. ~fmax:1e8 ~out:"out" prep with
  | Some f -> check_close "ugf" (fc *. Float.sqrt 99.) f ~tol:1e-3
  | None -> Alcotest.fail "no ugf"

let test_measure_bandpass () =
  (* CR-RC band-pass with buffers: peak near 1/(2 pi RC). *)
  let b = B.create ~title:"bp" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.capacitor b ~a:"in" ~b:"hp" 100e-9;
  B.resistor b ~a:"hp" ~b:"0" 1e3;
  B.vcvs b ~p:"buf" ~n:"0" ~cp:"hp" ~cn:"0" 1.;
  B.resistor b ~a:"buf" ~b:"out" 1e3;
  B.capacitor b ~a:"out" ~b:"0" 100e-9;
  let prep = Ac.prepare (Dc.solve (B.finish b)) in
  match Measure.bandpass_characteristics ~fmin:10. ~fmax:1e5 ~out:"out" prep with
  | Some bp ->
    let f0 = 1. /. (2. *. Float.pi *. 1e3 *. 100e-9) in
    check_close "f0" f0 bp.Measure.f_center ~tol:0.02;
    check_close "peak gain" 0.5 bp.Measure.peak_gain ~tol:0.01
  | None -> Alcotest.fail "no bandpass found"

(* ---------- Transient ---------- *)

let test_transient_rc_step () =
  let op = Dc.solve (rc_lowpass ()) in
  let tau = 1e-3 in
  let result =
    Tr.run
      ~stimulus:[ ("V1", Tr.step ~t0:0. ~high:1. ()) ]
      ~tstop:(5. *. tau) ~dt:(tau /. 200.) op
  in
  List.iter
    (fun mult ->
      let t = mult *. tau in
      let expected = 1. -. Float.exp (-.mult) in
      check_close
        (Printf.sprintf "v(out) at %g tau" mult)
        expected
        (Tr.value_at result "out" t)
        ~tol:0.01)
    [ 0.5; 1.; 2.; 3. ]

let test_transient_trapezoidal () =
  let op = Dc.solve (rc_lowpass ()) in
  let tau = 1e-3 in
  let result =
    Tr.run ~method_:Tr.Trapezoidal
      ~stimulus:[ ("V1", Tr.step ~t0:0. ~high:1. ()) ]
      ~tstop:(3. *. tau) ~dt:(tau /. 100.) op
  in
  check_close "trap at 1 tau" (1. -. Float.exp (-1.))
    (Tr.value_at result "out" tau)
    ~tol:0.01

let test_transient_helpers () =
  let op = Dc.solve (rc_lowpass ()) in
  let tau = 1e-3 in
  let result =
    Tr.run
      ~stimulus:[ ("V1", Tr.step ~t0:0. ~high:1. ()) ]
      ~tstop:(6. *. tau) ~dt:(tau /. 100.) op
  in
  (match Tr.crossing_time result "out" ~level:0.5 with
  | Some t -> check_close "50% crossing = ln 2 tau" (Float.log 2. *. tau) t ~tol:0.02
  | None -> Alcotest.fail "no crossing");
  (match Tr.settling_time result "out" ~final:1.0 ~band:0.02 with
  | Some t ->
    Alcotest.(check bool) "2% settling near 3.9 tau" true
      (t > 3. *. tau && t < 4.5 *. tau)
  | None -> Alcotest.fail "no settling");
  let sr = Tr.max_slope result "out" in
  check_close "max slope = 1/tau" (1. /. tau) sr ~tol:0.05

let test_transient_convergence_order () =
  (* Timestep halving on the RC driven by a smooth sine (a step input
     would clip trapezoidal to first order at the discontinuity): the
     t=tau error must shrink ~2x for backward Euler (first order) and
     ~4x for trapezoidal (second order).  With omega*tau = 1 and
     v_out(0) = 0 the closed form is
     v_out(t) = (sin wt - cos wt + e^{-t/tau}) / 2. *)
  let tau = 1e-3 in
  let w = 1. /. tau in
  let freq = w /. (2. *. Float.pi) in
  let exact t =
    0.5 *. (Float.sin (w *. t) -. Float.cos (w *. t) +. Float.exp (-.t /. tau))
  in
  let error_at_tau ~method_ ~dt =
    let op = Dc.solve (rc_lowpass ()) in
    let r =
      Tr.run ~method_
        ~stimulus:[ ("V1", Tr.sine ~ampl:1. ~freq ()) ]
        ~tstop:(1.2 *. tau) ~dt op
    in
    Float.abs (Tr.value_at r "out" tau -. exact tau)
  in
  let ratio method_ =
    (* tau is an exact grid point for both steps: no interpolation
       error pollutes the order estimate. *)
    let coarse = error_at_tau ~method_ ~dt:(tau /. 50.) in
    let fine = error_at_tau ~method_ ~dt:(tau /. 100.) in
    Alcotest.(check bool) "errors above the Newton floor" true (fine > 1e-8);
    coarse /. fine
  in
  let be = ratio Tr.Backward_euler in
  Alcotest.(check bool)
    (Printf.sprintf "BE halving ratio ~2 (got %.2f)" be)
    true
    (be > 1.6 && be < 2.5);
  let trap = ratio Tr.Trapezoidal in
  Alcotest.(check bool)
    (Printf.sprintf "trapezoidal halving ratio ~4 (got %.2f)" trap)
    true
    (trap > 3.2 && trap < 5.)

let test_transient_step_acceptance () =
  (* Step-cutting regression, pinned through the transient.* counters.
     A fast 4 V sine moves the source by up to ~2.5 V per step; Newton's
     1 V update clamp then needs 4 iterations on the steep steps, so
     max_newton=3 forces a cut there while the halved sub-steps (~1.25 V)
     converge in exactly 3. *)
  let deck () =
    let b = B.create ~title:"cutter" in
    B.vsource b ~p:"in" ~n:"0" 0.;
    B.resistor b ~a:"in" ~b:"out" 1e3;
    B.capacitor b ~a:"out" ~b:"0" 1e-9;
    B.finish b
  in
  let counters () =
    let run () =
      let op = Dc.solve (deck ()) in
      ignore
        (Tr.run ~max_newton:3
           ~stimulus:[ ("V1", Tr.sine ~ampl:4. ~freq:1e3 ()) ]
           ~tstop:1e-3 ~dt:1e-4 op)
    in
    Ape_obs.enable ();
    Ape_obs.reset ();
    Fun.protect ~finally:Ape_obs.disable run;
    let snap = Ape_obs.snapshot () in
    let get name =
      Option.value ~default:0 (List.assoc_opt name snap.Ape_obs.counters)
    in
    ( get "transient.steps",
      get "transient.solves",
      get "transient.step_cuts",
      get "transient.newton_iters" )
  in
  let steps, solves, cuts, iters = counters () in
  Alcotest.(check int) "requested top-level steps" 10 steps;
  Alcotest.(check bool)
    (Printf.sprintf "steep steps were cut (got %d cuts)" cuts)
    true (cuts > 0);
  (* Each cut replaces one failed solve with two sub-step solves, so the
     controller's accounting always satisfies this identity. *)
  Alcotest.(check int)
    "solves = steps + 2*cuts" (steps + (2 * cuts)) solves;
  Alcotest.(check bool) "iterations recorded" true (iters >= solves);
  (* The controller is deterministic: a second run pins the same trace. *)
  Alcotest.(check (pair (pair int int) (pair int int)))
    "acceptance trace reproducible"
    ((steps, solves), (cuts, iters))
    (let s, v, c, i = counters () in
     ((s, v), (c, i)))

let test_waveforms () =
  let p = Tr.pulse ~delay:1e-6 ~rise:1e-9 ~low:0. ~high:5. ~width:1e-6 ~period:4e-6 () in
  check_close "pulse before delay" 0. (p 0.);
  check_close "pulse high" 5. (p 1.5e-6);
  check_close "pulse low again" 0. (p 2.5e-6);
  check_close "pulse periodic" 5. (p 5.5e-6);
  let s = Tr.sine ~offset:1. ~ampl:2. ~freq:1e3 () in
  check_close "sine at 0" 1. (s 0.);
  check_close "sine peak" 3. (s 0.25e-3) ~tol:1e-6

(* ---------- AWE ---------- *)

let test_awe_rc_pole () =
  let op = Dc.solve (rc_lowpass ()) in
  let approx = Awe.pade ~q:1 ~out:"out" op in
  check_close "dc value" 1. approx.Awe.dc_value ~tol:1e-9;
  match Ape_oracle.Awe_ref.dominant_pole_hz approx with
  | Some f ->
    check_close "rc pole" (1. /. (2. *. Float.pi *. 1e-3)) f ~tol:1e-6
  | None -> Alcotest.fail "no pole"

let test_awe_two_pole () =
  (* Two cascaded (buffered) RC sections: poles at 1/(2pi R1C1), 1/(2pi R2C2). *)
  let b = B.create ~title:"rc2" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.resistor b ~a:"in" ~b:"m" 1e3;
  B.capacitor b ~a:"m" ~b:"0" 1e-6;
  B.vcvs b ~p:"buf" ~n:"0" ~cp:"m" ~cn:"0" 1.;
  B.resistor b ~a:"buf" ~b:"out" 10e3;
  B.capacitor b ~a:"out" ~b:"0" 1e-6;
  let op = Dc.solve (B.finish b) in
  let approx = Awe.pade ~q:2 ~out:"out" op in
  let poles =
    List.map (fun p -> Complex.norm p /. (2. *. Float.pi)) approx.Awe.poles
    |> List.sort compare
  in
  (match poles with
  | [ p1; p2 ] ->
    check_close "slow pole" (1. /. (2. *. Float.pi *. 1e-2)) p1 ~tol:1e-3;
    check_close "fast pole" (1. /. (2. *. Float.pi *. 1e-3)) p2 ~tol:1e-3
  | _ -> Alcotest.fail "expected two poles");
  (* The approximant evaluates close to the direct AC solution. *)
  List.iter
    (fun f ->
      let direct = Measure.gain_at ~out:"out" (Ac.prepare op) f in
      let reduced = Complex.norm (Ape_oracle.Awe_ref.eval approx f) in
      check_close (Printf.sprintf "awe vs ac at %g" f) direct reduced
        ~tol:0.02)
    [ 1.; 10.; 100. ]

let test_awe_moments_rc () =
  (* H(s) = 1/(1 + s*tau): the k-th moment is (-tau)^k exactly. *)
  let op = Dc.solve (rc_lowpass ()) in
  let tau = 1e-3 in
  let m = Ape_oracle.Awe_ref.moments ~count:4 ~out:"out" op in
  Alcotest.(check int) "four moments" 4 (Array.length m);
  Array.iteri
    (fun k mk ->
      check_close
        (Printf.sprintf "moment %d = (-tau)^%d" k k)
        ((-.tau) ** float_of_int k)
        mk ~tol:1e-9)
    m

let test_awe_unity_crossing_analytic () =
  (* Single-pole amplifier A0 = 100, fc = 1 kHz: |H| = 1 exactly at
     fc * sqrt(A0^2 - 1). *)
  let a0 = 100. and r = 1e3 and c = 159.154943e-9 in
  let b = B.create ~title:"1pole" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.vcvs b ~p:"amp" ~n:"0" ~cp:"in" ~cn:"0" a0;
  B.resistor b ~a:"amp" ~b:"out" r;
  B.capacitor b ~a:"out" ~b:"0" c;
  let op = Dc.solve (B.finish b) in
  let approx = Awe.pade ~q:1 ~out:"out" op in
  let fc = 1. /. (2. *. Float.pi *. r *. c) in
  let expected = fc *. Float.sqrt ((a0 *. a0) -. 1.) in
  (match Awe.unity_crossing_hz approx with
  | Some f -> check_close "unity crossing" expected f ~tol:1e-3
  | None -> Alcotest.fail "no unity crossing");
  match Ape_oracle.Awe_ref.unity_gain_frequency_hz approx with
  | Some f -> check_close "single-pole UGF = A0*fc" (a0 *. fc) f ~tol:1e-3
  | None -> Alcotest.fail "no UGF estimate"

(* Two pole or residue lists agree to [rtol] of their largest magnitude
   under some pairing (each has at most two entries). *)
let complex_close ~rtol (a : Complex.t list) (b : Complex.t list) =
  let scale =
    List.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 0. (a @ b)
  in
  let near x y = Complex.norm (Complex.sub x y) <= rtol *. scale in
  match (a, b) with
  | [], [] -> true
  | [ x ], [ y ] -> near x y
  | [ x1; x2 ], [ y1; y2 ] ->
    (near x1 y1 && near x2 y2) || (near x1 y2 && near x2 y1)
  | _ -> false

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* One pole: the closed form against the Durand–Kerner reference on the
   RC section, and both against the analytic pole and residue. *)
let test_awe_one_pole_reference () =
  let op = Dc.solve (rc_lowpass ()) in
  let ours = Awe.pade ~q:1 ~out:"out" op in
  let dk = Ape_oracle.Awe_ref.pade ~q:1 ~out:"out" op in
  Alcotest.(check bool) "moments bitwise" true
    (same_bits ours.Awe.moments dk.Awe.moments);
  Alcotest.(check bool) "pole within 1e-12" true
    (complex_close ~rtol:1e-12 ours.Awe.poles dk.Awe.poles);
  Alcotest.(check bool) "residue within 1e-12" true
    (complex_close ~rtol:1e-12 ours.Awe.residues dk.Awe.residues);
  (* H(s) = 1/(1 + sτ) = (1/τ)/(s + 1/τ). *)
  let tau = 1e-3 in
  Alcotest.(check bool) "analytic pole and residue" true
    (complex_close ~rtol:1e-9 ours.Awe.poles [ { Complex.re = -1. /. tau; im = 0. } ]
    && complex_close ~rtol:1e-9 ours.Awe.residues
         [ { Complex.re = 1. /. tau; im = 0. } ])

(* Moments of Σ_i k_i/(s − p_i): μ_k = Σ_i −k_i/p_i^{k+1}. *)
let moments_of poles residues =
  Array.init 4 (fun k ->
      List.fold_left2
        (fun acc p r ->
          let pk = ref Complex.one in
          for _ = 0 to k do
            pk := Complex.mul !pk p
          done;
          acc -. (Complex.div r !pk).Complex.re)
        0. poles residues)

(* Random pole pairs with matching residues: a real pair 10^0.1–10^2
   apart, or a complex pair whose imaginary part is 0.1–10 times its
   real part, from 1e3 rad/s up.  Where the Hankel determinant is at
   least 1e-3 of its larger product, the closed form agrees with the
   converged Durand–Kerner reference to 1e-12.  (Nearly coincident
   poles are excluded: their residues are large and cancel, in both
   solves.) *)
let prop_awe_closed_form_reference =
  QCheck.Test.make ~name:"closed-form Pade = Durand-Kerner reference"
    ~count:300
    QCheck.(
      quad bool (pair (float_range 3. 9.) (float_range 0.1 2.))
        (pair (float_range (-1.) 1.) (float_range (-1.) 1.))
        (float_range 0. 4.))
    (fun (complex, (e1, split), (r1, r2), gain) ->
      let m1 = 10. ** e1 in
      let c re im = { Complex.re; im } in
      let poles, residues =
        if complex then
          let im = m1 *. (10. ** (split -. 1.)) in
          ( [ c (-.m1) im; c (-.m1) (-.im) ],
            [ c (r1 *. m1) (r2 *. m1); c (r1 *. m1) (-.r2 *. m1) ] )
        else
          let m2 = m1 *. (10. ** split) in
          ([ c (-.m1) 0.; c (-.m2) 0. ], [ c (r1 *. m1) 0.; c (r2 *. m2) 0. ])
      in
      let mus = Array.map (fun m -> m *. (10. ** gain)) (moments_of poles residues) in
      let hankel = Float.abs ((mus.(1) *. mus.(1)) -. (mus.(0) *. mus.(2))) in
      let size = Float.max (mus.(1) *. mus.(1)) (Float.abs (mus.(0) *. mus.(2))) in
      QCheck.assume (hankel > 1e-3 *. size);
      let ours = Awe.of_moments ~q:2 mus in
      let dk = Ape_oracle.Awe_ref.of_moments ~q:2 ~tol:0. mus in
      complex_close ~rtol:1e-12 ours.Awe.poles dk.Awe.poles
      && complex_close ~rtol:1e-12 ours.Awe.residues dk.Awe.residues)

(* Today's observable on degenerate moments.  A single-pole response
   (μ_k = (−τ)^k) leaves the 2×2 Hankel system singular, as does
   μ_0 = 0 for one pole: both paths raise [Moment_failure].  An exactly
   repeated pole (μ_k = a·(k+1)·(−τ)^k, exact in binary at τ = 2^-20)
   gives two equal poles and a singular residue system: zero residues,
   so no unity crossing. *)
let test_awe_degenerate_moments () =
  let fails f =
    match f () with
    | (_ : Awe.approximant) -> false
    | exception Awe.Moment_failure _ -> true
  in
  let tau = Float.ldexp 1. (-10) in
  let one_pole = Array.init 4 (fun k -> (-.tau) ** float_of_int k) in
  Alcotest.(check bool) "single pole, q = 2: closed form fails" true
    (fails (fun () -> Awe.of_moments ~q:2 one_pole));
  Alcotest.(check bool) "single pole, q = 2: reference fails" true
    (fails (fun () -> Ape_oracle.Awe_ref.of_moments ~q:2 one_pole));
  let no_dc = [| 0.; 1. |] in
  Alcotest.(check bool) "zero μ0, q = 1: both fail" true
    (fails (fun () -> Awe.of_moments ~q:1 no_dc)
    && fails (fun () -> Ape_oracle.Awe_ref.of_moments ~q:1 no_dc));
  let tau = Float.ldexp 1. (-20) in
  let double a =
    Array.init 4 (fun k -> a *. float_of_int (k + 1) *. ((-.tau) ** float_of_int k))
  in
  let unit_gain = Awe.of_moments ~q:2 (double 1.) in
  (match unit_gain.Awe.poles with
  | [ p1; p2 ] ->
    Alcotest.(check bool) "repeated pole at -1/tau" true
      (p1 = p2 && p1 = { Complex.re = -1. /. tau; im = 0. })
  | _ -> Alcotest.fail "expected two poles");
  Alcotest.(check bool) "repeated pole: zero residues" true
    (List.for_all (fun r -> r = Complex.zero) unit_gain.Awe.residues);
  Alcotest.(check bool) "repeated pole, unit gain: no UGF either way" true
    (Awe.unity_crossing_hz unit_gain = None
    && Awe.unity_crossing_hz (Ape_oracle.Awe_ref.of_moments ~q:2 (double 1.))
       = None);
  Alcotest.(check bool) "repeated pole, gain 100: no UGF" true
    (Awe.unity_crossing_hz (Awe.of_moments ~q:2 (double 100.)) = None)

let test_noise_input_referred_divider () =
  (* Equal divider: output noise 4kT*(R/2), gain 1/2, so the input-
     referred density is sqrt(4kT*R/2)/(1/2) = 2*sqrt(2kT*R). *)
  let r = 10e3 in
  let b = B.create ~title:"divnoise" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.resistor b ~a:"in" ~b:"out" r;
  B.resistor b ~a:"out" ~b:"0" r;
  let op = Dc.solve (B.finish b) in
  let kT = 1.380649e-23 *. 300. in
  let expected = 2. *. Float.sqrt (2. *. kT *. r) in
  check_close "input-referred divider noise" expected
    (Noise.input_referred_prepared ~out:"out" ~freq:1e3 (Ac.prepare op))
    ~tol:0.02

let test_transient_two_pole_step () =
  (* Buffered RC cascade, taus 1 ms and 0.1 ms.  Closed-form step
     response: v(t) = 1 - (t1*e^{-t/t1} - t2*e^{-t/t2}) / (t1 - t2). *)
  let t1 = 1e-3 and t2 = 1e-4 in
  let b = B.create ~title:"rc2step" in
  B.vsource b ~p:"in" ~n:"0" 0.;
  B.resistor b ~a:"in" ~b:"m" 1e3;
  B.capacitor b ~a:"m" ~b:"0" 1e-6;
  B.vcvs b ~p:"buf" ~n:"0" ~cp:"m" ~cn:"0" 1.;
  B.resistor b ~a:"buf" ~b:"out" 1e3;
  B.capacitor b ~a:"out" ~b:"0" 100e-9;
  let op = Dc.solve (B.finish b) in
  let r =
    Tr.run
      ~stimulus:[ ("V1", Tr.step ~t0:0. ~high:1. ()) ]
      ~tstop:(3. *. t1) ~dt:(t2 /. 25.) op
  in
  List.iter
    (fun t ->
      let exact =
        1.
        -. ((t1 *. Float.exp (-.t /. t1)) -. (t2 *. Float.exp (-.t /. t2)))
           /. (t1 -. t2)
      in
      check_close
        (Printf.sprintf "two-pole step at t=%g" t)
        exact
        (Tr.value_at r "out" t)
        ~tol:0.01)
    [ 2e-4; 5e-4; 1e-3; 2e-3 ]

(* ---------- typed engine errors ---------- *)

let test_engine_error_missing_branch () =
  let op = Dc.solve (rc_lowpass ()) in
  match
    Ape_spice.Engine.branch_id_exn op.Dc.index ~analysis:"ac" "VNOPE"
  with
  | _ -> Alcotest.fail "expected Engine_error"
  | exception Ape_spice.Engine.Engine_error { analysis; node; detail } ->
    Alcotest.(check string) "analysis tag" "ac" analysis;
    Alcotest.(check (option string)) "node" (Some "VNOPE") node;
    Alcotest.(check bool) "detail non-empty" true (String.length detail > 0)

(* An index serves only netlists with its own elements, in its order:
   new element values are fine (a relaxed candidate), but an extra, a
   missing, a renamed or a re-kinded element raises through the sparse
   replay, with and without C. *)
let test_engine_error_index_mismatch () =
  let module Engine = Ape_spice.Engine in
  let b = B.create ~title:"csamp" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 1.2;
  B.nmos b proc ~d:"out" ~g:"in" ~s:"0" ~w:20e-6 ~l:2.4e-6;
  B.resistor b ~a:"vdd" ~b:"out" 47e3;
  B.capacitor b ~a:"out" ~b:"0" 1e-12;
  let nl = B.finish b in
  let index = Engine.build_index nl in
  let x =
    Array.init (Engine.size index) (fun i -> 0.5 *. float_of_int (i + 1))
  in
  let map f = { nl with N.elements = List.map f (N.elements nl) } in
  let revalued =
    map (function
      | N.Resistor r -> N.Resistor { r with r = 2. *. r.r }
      | e -> e)
  in
  let vals = Ape_util.Sparse.Real.create (Engine.pattern index) in
  let cvals = Ape_util.Sparse.Real.create (Engine.pattern index) in
  let f_base = Engine.sparse_residual nl index x vals in
  let f_new = Engine.sparse_residual revalued index x vals in
  Alcotest.(check bool) "new element values stamp" true (f_base <> f_new);
  let variants =
    [
      ( "extra element",
        N.append nl
          [ N.Resistor { name = "RX"; a = "out"; b = N.ground; r = 1e3 } ] );
      ("missing element", { nl with N.elements = List.tl (N.elements nl) });
      ( "renamed element",
        map (function
          | N.Resistor r -> N.Resistor { r with name = "RRENAMED" }
          | e -> e) );
      ( "changed kind",
        map (function
          | N.Resistor { name; a; b; _ } ->
            N.Capacitor { name; a; b; c = 1e-12 }
          | e -> e) );
    ]
  in
  List.iter
    (fun (what, bad) ->
      let refused sink stamp =
        match stamp () with
        | () -> Alcotest.fail (Printf.sprintf "%s: %s accepted" what sink)
        | exception Engine.Engine_error { analysis; _ } ->
          Alcotest.(check string) (what ^ ", " ^ sink) "mna" analysis
      in
      refused "sparse residual" (fun () ->
          ignore (Engine.sparse_residual bad index x vals));
      refused "sparse residual ~c" (fun () ->
          ignore (Engine.sparse_residual ~c:cvals bad index x vals)))
    variants

let test_no_convergence_is_typed () =
  (* A MOSFET bench given one Newton iteration cannot converge; the
     failure must surface as No_convergence naming the netlist. *)
  let b = B.create ~title:"hopeless" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  B.nmos b proc ~d:"d" ~g:"d" ~s:"0" ~w:10e-6 ~l:2.4e-6;
  B.resistor b ~a:"vdd" ~b:"d" 10e3;
  match Dc.solve ~max_iter:1 (B.finish b) with
  | _ -> Alcotest.fail "expected No_convergence"
  | exception Dc.No_convergence msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      ("message names the analysis and netlist: " ^ msg)
      true
      (contains msg "dc(" && contains msg "hopeless")

let test_awe_ugf_estimate () =
  let b = B.create ~title:"amp" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.vcvs b ~p:"x" ~n:"0" ~cp:"in" ~cn:"0" 100.;
  B.resistor b ~a:"x" ~b:"out" 1e3;
  B.capacitor b ~a:"out" ~b:"0" 1e-9;
  let op = Dc.solve (B.finish b) in
  let approx = Awe.pade ~q:1 ~out:"out" op in
  match Ape_oracle.Awe_ref.unity_gain_frequency_hz approx with
  | Some f ->
    let fc = 1. /. (2. *. Float.pi *. 1e-6) in
    check_close "single-pole ugf = A0 * f3db" (100. *. fc) f ~tol:1e-3
  | None -> Alcotest.fail "no ugf"

(* ---------- noise ---------- *)

let four_kt = 4. *. 1.380649e-23 *. 300.15

let test_noise_divider_analytic () =
  (* Output noise of a resistive divider: 4kT·(R1 || R2). *)
  let b = B.create ~title:"div" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.resistor b ~a:"in" ~b:"out" 10e3;
  B.resistor b ~a:"out" ~b:"0" 10e3;
  let op = Dc.solve (B.finish b) in
  let total, contributions =
    Noise.output_noise_prepared ~out:"out" ~freq:1e3 (Ac.prepare op)
  in
  check_close "divider 4kT(R1||R2)" (four_kt *. 5e3) total ~tol:1e-6;
  Alcotest.(check int) "two contributors" 2 (List.length contributions);
  (* Equal resistors contribute equally. *)
  match contributions with
  | [ c1; c2 ] ->
    check_close "split evenly" c1.Ape_spice.Noise.psd c2.Ape_spice.Noise.psd
      ~tol:1e-9
  | _ -> Alcotest.fail "unexpected contribution list"

let test_noise_rc_filtered () =
  (* kT/C check: integrated noise of an RC is sqrt(kT/C) regardless of
     R. *)
  let make r =
    let b = B.create ~title:"rc" in
    B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
    B.resistor b ~a:"in" ~b:"out" r;
    B.capacitor b ~a:"out" ~b:"0" 1e-9;
    Ac.prepare (Dc.solve (B.finish b))
  in
  let ktc = Float.sqrt (1.380649e-23 *. 300.15 /. 1e-9) in
  List.iter
    (fun r ->
      let vrms =
        Noise.integrated_output_prepared ~out:"out" ~fstart:1.
          ~fstop:(100. /. (2. *. Float.pi *. r *. 1e-9))
          ~points_per_decade:10 (make r)
      in
      Alcotest.(check bool)
        (Printf.sprintf "kT/C within 10%% for R=%g (got %g vs %g)" r vrms ktc)
        true
        (F.rel_error ktc vrms < 0.1))
    [ 1e3; 100e3 ]

let test_noise_mosfet_thermal () =
  (* A diode-connected MOSFET's output noise: roughly
     4kT·(2/3)·gm·(1/gm)² + resistor term. *)
  let b = B.create ~title:"mosn" in
  B.vsource b ~p:"vdd" ~n:"0" ~ac:1. 5.;
  B.resistor b ~a:"vdd" ~b:"d" 100e3;
  B.nmos b proc ~d:"d" ~g:"d" ~s:"0" ~w:20e-6 ~l:2.4e-6;
  let op = Dc.solve (B.finish b) in
  let total, contributions =
    Noise.output_noise_prepared ~out:"d" ~freq:1e6 (Ac.prepare op)
  in
  Alcotest.(check bool) "positive noise" true (total > 0.);
  Alcotest.(check bool) "mosfet contributes" true
    (List.exists
       (fun c -> c.Ape_spice.Noise.element = "M1" && c.Ape_spice.Noise.psd > 0.)
       contributions)

let test_noise_flicker_rolloff () =
  (* 1/f: the MOSFET contribution at 10 Hz exceeds the one at 1 MHz. *)
  let b = B.create ~title:"mosn" in
  B.vsource b ~p:"vdd" ~n:"0" ~ac:1. 5.;
  B.resistor b ~a:"vdd" ~b:"d" 100e3;
  B.nmos b proc ~d:"d" ~g:"d" ~s:"0" ~w:20e-6 ~l:2.4e-6;
  let prep = Ac.prepare (Dc.solve (B.finish b)) in
  let mos_psd freq =
    let _, contributions = Noise.output_noise_prepared ~out:"d" ~freq prep in
    (List.find (fun c -> c.Ape_spice.Noise.element = "M1") contributions)
      .Ape_spice.Noise.psd
  in
  Alcotest.(check bool) "flicker dominates at low frequency" true
    (mos_psd 10. > mos_psd 1e6)

(* ---------- adjoint noise ---------- *)

(* [k] instances of a two-transistor stage (common source, then source
   follower) between [n0] and [nk]: 2k MOSFETs with flicker noise and
   3k resistors. *)
let cascade_deck k =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "* MOS cascade\n\
     .MODEL NCH NMOS (LEVEL=1 VTO=0.7 KP=100u LAMBDA=0.02 TOX=20n KF=1e-25 AF=1.2)\n\
     .SUBCKT stage in out vdd\n\
     M1 d1 in s1 0 NCH W=20u L=2u\n\
     RS1 s1 0 10k\n\
     RD1 vdd d1 8k\n\
     C1 d1 0 0.5p\n\
     M2 vdd d1 out 0 NCH W=20u L=2u\n\
     RS2 out 0 20k\n\
     C2 out 0 1p\n\
     .ENDS\n\
     VDD vdd 0 DC 5\n\
     VIN n0 0 DC 2 AC 1\n";
  for x = 1 to k do
    Printf.bprintf b "X%d n%d n%d vdd stage\n" x (x - 1) x
  done;
  Buffer.add_string b ".END\n";
  Ape_circuit.Spice_parser.parse ~process:proc ~title:"cascade"
    (Buffer.contents b)

let ladder_netlist sections =
  let node i = Printf.sprintf "n%d" i in
  let b = B.create ~title:"ladder" in
  B.vsource b ~p:(node 0) ~n:"0" ~ac:1. 0.;
  for i = 1 to sections do
    B.resistor b ~a:(node (i - 1)) ~b:(node i) (1e3 *. (1. +. (0.01 *. float_of_int i)));
    B.capacitor b ~a:(node i) ~b:"0" 1e-9
  done;
  B.finish b

let noise_golden_ops () =
  let dir =
    List.find Sys.file_exists
      [ Filename.concat "golden" "decks"; Filename.concat "test" "golden/decks" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sp")
  |> List.sort compare
  |> List.filter_map (fun f ->
         let file = Filename.concat dir f in
         let text = In_channel.with_open_text file In_channel.input_all in
         let deck =
           Ape_circuit.Spice_parser.parse ~process:proc ~title:file text
         in
         match Dc.solve deck with
         | exception Dc.No_convergence _ -> None
         | op ->
           if Ape_spice.Engine.node_id op.Dc.index "out" = None then None
           else Some (file, deck))

let test_noise_adjoint_matches_direct () =
  (* Reciprocity differential: one adjoint solve per frequency must
     agree with the dense one-solve-per-source oracle to rounding, per
     element, on every golden deck and on a cascade of 20 sources.
     1e-10 relative is ~5 orders of slack over the observed worst case
     while still catching a misplaced transpose. *)
  let tol = 1e-10 in
  let checked = ref 0 in
  List.iter
    (fun (file, deck, out) ->
      let op = Dc.solve deck in
      let prep = Ac.prepare op in
      List.iter
        (fun freq ->
          incr checked;
          let t_adj, c_adj = Noise.output_noise_prepared ~out ~freq prep in
          let c_dir = Ape_oracle.output_noise ~out ~freq op in
          let t_dir = List.fold_left (fun acc (_, p) -> acc +. p) 0. c_dir in
          if Float.abs (t_adj -. t_dir) > tol *. Float.max t_dir 1e-300 then
            Alcotest.failf "%s @ %g Hz: adjoint total %g vs direct %g" file
              freq t_adj t_dir;
          Alcotest.(check int)
            "same contribution count" (List.length c_dir) (List.length c_adj);
          List.iter
            (fun (element, pd) ->
              let pa =
                (List.find (fun (a : Noise.contribution) -> a.Noise.element = element)
                   c_adj)
                  .Noise.psd
              in
              if Float.abs (pa -. pd) > tol *. Float.max pd 1e-300 then
                Alcotest.failf "%s @ %g Hz: %s adjoint %g vs direct %g" file
                  freq element pa pd)
            c_dir)
        [ 1e2; 1e5 ])
    (List.map (fun (file, deck) -> (file, deck, "out")) (noise_golden_ops ())
    @ [ ("4-instance cascade", cascade_deck 4, "n4") ]);
  Alcotest.(check bool) "checked several decks" true (!checked >= 6)

let test_noise_sparse_engine_counters () =
  (* Noise factors through the sparse refactor path: exactly one
     adjoint solve per frequency covers every source, sparse counters
     tick, and no dense LU. *)
  let _, deck = List.hd (noise_golden_ops ()) in
  let prep = Ac.prepare (Dc.solve deck) in
  Alcotest.(check bool) "several noise sources" true
    (List.length (Noise.noise_sources (Ac.op prep) 1e3) >= 2);
  Ape_obs.enable ();
  Ape_obs.reset ();
  ignore (Noise.output_noise_prepared ~out:"out" ~freq:1e3 prep);
  let snap = Ape_obs.snapshot () in
  Ape_obs.disable ();
  let c name =
    Option.value ~default:0 (List.assoc_opt name snap.Ape_obs.counters)
  in
  Alcotest.(check int) "one adjoint solve" 1 (c "noise.adjoint_solves");
  Alcotest.(check bool) "sparse refactor ticked" true (c "sparse.refactor" > 0);
  Alcotest.(check int) "no dense LU" 0 (c "matrix.lu_factor")

(* ---------- bias servo ---------- *)

let test_servo_divider () =
  let b = B.create ~title:"div" in
  B.vsource b ~p:"in" ~n:"0" 0.;
  B.resistor b ~a:"in" ~b:"out" 1e3;
  B.resistor b ~a:"out" ~b:"0" 1e3;
  let nl = B.finish b in
  let bench dc = Verify.set_source ~name:"V1" ~dc nl in
  (* How many points Brent evaluates on this search. *)
  let evaluations = ref 0 in
  ignore
    (Ape_util.Rootfind.brent ~tol:1e-9
       (fun dc ->
         incr evaluations;
         Dc.voltage (Dc.solve (bench dc)) "out" -. 1.25)
       0. 5.);
  Ape_obs.enable ();
  Ape_obs.reset ();
  let vin, at_root, op =
    Verify.servo ~tol:1e-9 ~out:"out" ~target:1.25 ~lo:0. ~hi:5. bench
  in
  let snap = Ape_obs.snapshot () in
  Ape_obs.disable ();
  check_close "root at 2.5 V" 2.5 vin ~tol:1e-9;
  check_close "V(out) at the root" 1.25 (Dc.voltage op "out") ~tol:1e-9;
  Alcotest.(check bool) "netlist biased at the root" true
    (List.exists
       (function
         | N.Vsource { name = "V1"; dc; _ } -> dc = vin
         | _ -> false)
       (N.elements at_root));
  (* The root's operating point is one Brent already solved, and every
     probe solved on the first probe's index. *)
  let count name =
    Option.value ~default:0 (List.assoc_opt name snap.Ape_obs.counters)
  in
  Alcotest.(check int) "one DC solve per Brent evaluation" !evaluations
    (count "dc.solves");
  Alcotest.(check int) "one index per servo" 1 (count "engine.plans");
  Alcotest.(check int) "later probes reuse it" (!evaluations - 1)
    (count "dc.index_reuses");
  Alcotest.check_raises "target out of range" Ape_util.Rootfind.No_bracket
    (fun () ->
      ignore (Verify.servo ~tol:1e-9 ~out:"out" ~target:10. ~lo:0. ~hi:5. bench))

(* ---------- prepared AC engine ---------- *)

(* Bitwise agreement (up to -0. = 0.) between two AC solutions: the
   prepared path must not change a single arithmetic operation relative
   to the re-stamping path. *)
let same_solution (a : Ac.solution) (b : Ac.solution) =
  a.Ac.freq = b.Ac.freq
  && Array.length a.Ac.x = Array.length b.Ac.x
  && Array.for_all2
       (fun (u : Complex.t) (v : Complex.t) ->
         u.Complex.re = v.Complex.re && u.Complex.im = v.Complex.im)
       a.Ac.x b.Ac.x

let golden_decks () =
  (* dune runtest runs in test/, `dune exec test/test_spice.exe` (ci.sh)
     in the project root. *)
  let dir =
    List.find Sys.file_exists
      [ Filename.concat "golden" "decks"; Filename.concat "test" "golden/decks" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sp")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat dir f)

(* ---------- frozen pins ---------- *)

(* Outputs of the stamping paths pinned at the commit before the
   operating point's G and C, the transient's C and the noise sources
   each came from one device pass: hex floats compare bit for bit, an
   MD5 over their hex text pins many at once. *)
let hex v = Printf.sprintf "%h" v

let digest strings = Digest.to_hex (Digest.string (String.concat "," strings))

let golden_deck name =
  let file =
    List.find (fun f -> String.equal (Filename.basename f) name) (golden_decks ())
  in
  Ape_circuit.Spice_parser.parse ~process:proc ~title:file
    (In_channel.with_open_text file In_channel.input_all)

(* The switched track stage under a sine input and a clock that opens
   and closes its switch, with both integrators: every time and node
   sample. *)
let test_transient_frozen_sc_track () =
  let op = Dc.solve (golden_deck "sc_track.sp") in
  let stimulus =
    [
      ("VIN", Tr.sine ~offset:2.5 ~ampl:0.5 ~freq:1e6 ());
      ("VCK", Tr.pulse ~low:0. ~high:5. ~width:200e-9 ~period:500e-9 ());
    ]
  in
  List.iter
    (fun (label, method_, expected) ->
      let r = Tr.run ~method_ ~stimulus ~tstop:2e-6 ~dt:5e-9 op in
      let samples =
        Array.to_list r.Tr.times
        @ List.concat_map (fun (_, ys) -> Array.to_list ys) r.Tr.nodes
      in
      Alcotest.(check string) label expected (digest (List.map hex samples)))
    [
      ("backward Euler", Tr.Backward_euler, "af5ee5f8236b6dda39cca6f3c4ef0c11");
      ("trapezoidal", Tr.Trapezoidal, "2f971c0fcde228630a86ba2f81d67f9c");
    ]

(* [f ()] with observation on, and a reader of the counters it ticked. *)
let counted f =
  Ape_obs.enable ();
  Ape_obs.reset ();
  let r = Fun.protect ~finally:Ape_obs.disable f in
  let counters = (Ape_obs.snapshot ()).Ape_obs.counters in
  (r, fun name -> Option.value ~default:0 (List.assoc_opt name counters))

(* [Transient.run ~until]: the stopped run against the full one. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_run a b =
  same_bits a.Tr.times b.Tr.times
  && List.for_all2
       (fun (name, ys) (name', ys') -> String.equal name name' && same_bits ys ys')
       a.Tr.nodes b.Tr.nodes

(* The first [m] samples of a run. *)
let sub r m =
  {
    Tr.times = Array.sub r.Tr.times 0 m;
    nodes = List.map (fun (name, ys) -> (name, Array.sub ys 0 m)) r.Tr.nodes;
  }

(* Every level crossed, each strictly after the one listed before it. *)
let crossed_in_order r until =
  let rec go prev = function
    | [] -> true
    | (node, level) :: rest -> (
      match Tr.crossing_time r node ~level with
      | Some t -> t > prev && go t rest
      | None -> false)
  in
  go Float.neg_infinity until

(* The stopped run is the full run's prefix, bit for bit, and ends at
   the deciding sample: the condition holds there and not one sample
   earlier. *)
let check_stopped_prefix label ~full ~stopped until =
  let n = Array.length stopped.Tr.times in
  Alcotest.(check bool)
    (Printf.sprintf "%s: stopped early (%d of %d samples)" label n
       (Array.length full.Tr.times))
    true
    (n < Array.length full.Tr.times);
  Alcotest.(check bool) (label ^ ": the full run's prefix") true
    (same_run (sub full n) stopped);
  Alcotest.(check bool) (label ^ ": holds at the stop") true
    (crossed_in_order stopped until);
  Alcotest.(check bool) (label ^ ": not one sample earlier") false
    (crossed_in_order (sub stopped (n - 1)) until)

let sc_track_stimulus =
  [
    ("VIN", Tr.sine ~offset:2.5 ~ampl:0.5 ~freq:1e6 ());
    ("VCK", Tr.pulse ~low:0. ~high:5. ~width:200e-9 ~period:500e-9 ());
  ]

let test_transient_until_prefix () =
  let rc_op = Dc.solve (rc_lowpass ()) in
  let tau = 1e-3 in
  let rc ?until () =
    Tr.run ?until
      ~stimulus:[ ("V1", Tr.step ~t0:0. ~high:1. ()) ]
      ~tstop:(5. *. tau) ~dt:(tau /. 200.) rc_op
  in
  let until = [ ("out", 0.1); ("out", 0.9) ] in
  let stopped, count = counted (fun () -> rc ~until ()) in
  check_stopped_prefix "rc step" ~full:(rc ()) ~stopped until;
  Alcotest.(check int) "rc step: one step per sample after the first"
    (Array.length stopped.Tr.times - 1) (count "transient.steps");
  (* The switched track stage: the held node must reach 2.9 V after the
     output passes 5.5 V, with both integrators. *)
  let sc_op = Dc.solve (golden_deck "sc_track.sp") in
  let until = [ ("out", 5.5); ("hold", 2.9) ] in
  List.iter
    (fun (label, method_) ->
      let run ?until () =
        Tr.run ?until ~method_ ~stimulus:sc_track_stimulus ~tstop:2e-6 ~dt:5e-9
          sc_op
      in
      check_stopped_prefix label ~full:(run ()) ~stopped:(run ~until ()) until)
    [ ("sc_track BE", Tr.Backward_euler); ("sc_track trapezoidal", Tr.Trapezoidal) ]

(* A condition that never holds, because a level is never reached or
   the crossings come out of order, leaves the full run: the frozen
   sc_track pins hold through it. *)
let test_transient_until_never () =
  let op = Dc.solve (rc_lowpass ()) in
  let tau = 1e-3 in
  let rc ?until () =
    Tr.run ?until
      ~stimulus:[ ("V1", Tr.step ~t0:0. ~high:1. ()) ]
      ~tstop:(5. *. tau) ~dt:(tau /. 200.) op
  in
  let full = rc () in
  List.iter
    (fun (label, until) ->
      Alcotest.(check bool) (label ^ ": the full run") true
        (same_run full (rc ~until ())))
    [
      ("level never reached", [ ("out", 0.1); ("out", 1.5) ]);
      ("crossings out of order", [ ("out", 0.9); ("out", 0.1) ]);
    ];
  let sc_op = Dc.solve (golden_deck "sc_track.sp") in
  let r =
    Tr.run ~until:[ ("out", 100.) ] ~stimulus:sc_track_stimulus ~tstop:2e-6
      ~dt:5e-9 sc_op
  in
  let samples =
    Array.to_list r.Tr.times
    @ List.concat_map (fun (_, ys) -> Array.to_list ys) r.Tr.nodes
  in
  Alcotest.(check string) "sc_track BE pin through a never-met stop"
    "af5ee5f8236b6dda39cca6f3c4ef0c11"
    (digest (List.map hex samples));
  Alcotest.check_raises "a level on no node"
    (Invalid_argument "Transient.run: until names no node nowhere") (fun () ->
      ignore (rc ~until:[ ("nowhere", 0.5) ] ()))

(* [Dc.solve ~index]: source-value variants of the common-source deck
   solved on the first variant's index match fresh solves bit for bit
   and record no plan of their own; an index from a netlist with other
   elements is refused. *)
let test_dc_shared_index () =
  let deck = golden_deck "mos_amp.sp" in
  let variant vin = Verify.set_source ~name:"VIN" ~dc:vin deck in
  let vins = [ 1.2; 0.9; 1.05; 1.4; 0.7 ] in
  let index = (Dc.solve (variant 1.2)).Dc.index in
  let shared, count =
    counted (fun () -> List.map (fun v -> Dc.solve ~index (variant v)) vins)
  in
  List.iter2
    (fun vin (op : Dc.op) ->
      let fresh = Dc.solve (variant vin) in
      let label = Printf.sprintf "VIN = %g" vin in
      Alcotest.(check bool) (label ^ ": solution bits") true
        (same_bits fresh.Dc.x op.Dc.x);
      Alcotest.(check int) (label ^ ": iterations") fresh.Dc.iterations
        op.Dc.iterations;
      Alcotest.(check bool) (label ^ ": the caller's index") true
        (op.Dc.index == index))
    vins shared;
  Alcotest.(check int) "no plan recorded" 0 (count "engine.plans");
  Alcotest.(check int) "every solve reused the index" (List.length vins)
    (count "dc.index_reuses");
  let renamed =
    N.make ~title:deck.N.title
      (List.map
         (function
           | N.Resistor r -> N.Resistor { r with name = "RRENAMED" }
           | e -> e)
         (N.elements deck))
  in
  match Dc.solve ~index renamed with
  | _ -> Alcotest.fail "an index from other elements was accepted"
  | exception Ape_spice.Engine.Engine_error { analysis; _ } ->
    Alcotest.(check string) "refused by the index" "mna" analysis

(* Output noise of the common-source amplifier at three frequencies
   (total and every contribution) and integrated over 10 Hz–100 MHz, on
   one preparation. *)
let test_noise_frozen_mos_amp () =
  let p = Ac.prepare (Dc.solve (golden_deck "mos_amp.sp")) in
  List.iter
    (fun (freq, expected_total, expected_parts) ->
      let total, parts = Noise.output_noise_prepared ~out:"d" ~freq p in
      Alcotest.(check string)
        (Printf.sprintf "total at %g Hz" freq)
        expected_total (hex total);
      Alcotest.(check string)
        (Printf.sprintf "contributions at %g Hz" freq)
        expected_parts
        (digest
           (List.map
              (fun (c : Noise.contribution) ->
                c.Noise.element ^ "=" ^ hex c.Noise.psd)
              parts)))
    [
      (10., "0x1.e41487368b4e7p-27", "9198061e98d4028b038f2ffdc005c5d2");
      (1e4, "0x1.efb2bb06f96c6p-37", "29dcd7dffd13efbba9b00be25854af12");
      (1e7, "0x1.fa451bb26aaf7p-47", "f223086fbf288dfe7e8d2b8d5e121fc6");
    ];
  Alcotest.(check string) "integrated 10 Hz to 100 MHz" "0x1.9098438be3bf1p-10"
    (hex (Noise.integrated_output_prepared ~out:"d" ~fstart:10. ~fstop:1e8 p))

(* ---------- noise on the panel path ---------- *)

(* Flicker-bearing and large decks, pinned at the commit before the
   noise source table and the panel adjoint: integrated noise over
   10 Hz-100 MHz, and at 10 Hz, 10 kHz and 10 MHz the total, the
   breakdown and the source PSDs (MD5s over their hex). *)
let test_noise_frozen_cascades_ladders () =
  List.iter
    (fun (label, deck, out, integrated, points) ->
      let p = Ac.prepare (Dc.solve deck) in
      Alcotest.(check string)
        (label ^ ": integrated 10 Hz to 100 MHz")
        integrated
        (hex (Noise.integrated_output_prepared ~out ~fstart:10. ~fstop:1e8 p));
      List.iter
        (fun (freq, total, parts, sources) ->
          let t, cs = Noise.output_noise_prepared ~out ~freq p in
          Alcotest.(check (list string))
            (Printf.sprintf "%s at %g Hz: total, contributions, sources" label freq)
            [ total; parts; sources ]
            [
              hex t;
              digest
                (List.map
                   (fun (c : Noise.contribution) -> c.Noise.element ^ "=" ^ hex c.Noise.psd)
                   cs);
              digest
                (List.map
                   (fun (e, a, b, psd) -> String.concat ":" [ e; a; b; hex psd ])
                   (Noise.noise_sources (Ac.op p) freq));
            ])
        points)
    [
      ( "1-instance cascade", cascade_deck 1, "n1", "0x1.5b3eab0f400bp-13",
        [ (10., "0x1.0cb8ceb858a22p-33", "d7de4293b0431ca5dac8e599a9791c2d",
           "4e82e09e4559374e651c43c9528a104c");
          (1e4, "0x1.138a38388652bp-43", "5444754a44802ffb32e66b1950cafe39",
           "2a9ffd4a3aadc5d9b9ccc04e99baf786");
          (1e7, "0x1.3c0fb7b04c9cfp-52", "fcb10e55d23590e171861187cfc1e1f8",
           "39598c028011c561afb8b7c77cd60d04") ] );
      ( "16-instance cascade", cascade_deck 16, "n16", "0x1.881aa4dcaa63fp-13",
        [ (10., "0x1.6643d07c82508p-33", "8e1555dbe9dc421242682dfa3a8d7824",
           "57c983780af59306c5611096768cc35a");
          (1e4, "0x1.6f5a1e7eb52c4p-43", "240cee881b4db85cfa505c1f45273db5",
           "361e0c41a6b6037aac30f3f976bfd4ff");
          (1e7, "0x1.99b5e3c847bcfp-52", "74360689fd99b4e3f897877ce5df7cc9",
           "6d16586a3b53d204d36533fc7cc147c1") ] );
      ( "8-section ladder", ladder_netlist 8, "n8", "0x1.15e0c6f850f99p-19",
        [ (10., "0x1.3f888d495c70cp-53", "3d1ea9c85b93952bbc35d5f5a24d1aa4",
           "9650b5af00508c3de4c2df74d2e3a350");
          (1e7, "0x1.256e5474cdccbp-68", "ad7c8eebfa92066236a83ab91226efea",
           "9650b5af00508c3de4c2df74d2e3a350") ] );
      ( "96-section ladder", ladder_netlist 96, "n96", "0x1.153ccbdfe17a7p-19",
        [ (10., "0x1.3d3fa57555d5fp-49", "9dfa3f28d146ca57e25675fd472f0585",
           "7e92f1cb4102221e597ad8bee818e433");
          (1e7, "0x1.439e1ec0f030bp-69", "969fc241cad9608568e24b8e6ca1718b",
           "7e92f1cb4102221e597ad8bee818e433") ] );
    ]

(* The four golden decks, a 16-instance cascade and a 96-section
   ladder, each with its output node. *)
let noise_decks () =
  List.map
    (fun (name, out) -> (name, golden_deck name, out))
    [ ("mirror.sp", "out"); ("mos_amp.sp", "d"); ("rc_ladder.sp", "out");
      ("sc_track.sp", "out") ]
  @ [ ("16-instance cascade", cascade_deck 16, "n16");
      ("96-section ladder", ladder_netlist 96, "n96") ]

(* Integrated noise solves its adjoints in frequency panels: every
   panel width must give the same bits, and width 1 (one scalar adjoint
   per frequency) must equal the trapezoid over the breakdown routine's
   totals on the same grid. *)
let test_noise_integrated_panel_width () =
  let k0 = Ac.panel_width () in
  Fun.protect ~finally:(fun () -> Ac.set_panel_width k0) @@ fun () ->
  let fstart = 10. and fstop = 1e8 in
  let freqs = F.logspace fstart fstop 36 in
  List.iter
    (fun (label, deck, out) ->
      let p = Ac.prepare (Dc.solve deck) in
      let integrated k =
        Ac.set_panel_width k;
        hex (Noise.integrated_output_prepared ~out ~fstart ~fstop p)
      in
      let reference = integrated 1 in
      let totals =
        List.map (fun freq -> fst (Noise.output_noise_prepared ~out ~freq p)) freqs
      in
      let rec trapezoid acc = function
        | (f1, p1) :: ((f2, p2) :: _ as rest) ->
          trapezoid (acc +. (0.5 *. (p1 +. p2) *. (f2 -. f1))) rest
        | [ _ ] | [] -> acc
      in
      Alcotest.(check string)
        (label ^ ": width 1 = trapezoid over output_noise_prepared")
        (hex (Float.sqrt (trapezoid 0. (List.combine freqs totals))))
        reference;
      List.iter
        (fun k ->
          Alcotest.(check string)
            (Printf.sprintf "%s: width %d = width 1" label k)
            reference (integrated k))
        [ 3; 8 ])
    (noise_decks ())

let test_noise_integration_counters () =
  (* 10 Hz-100 MHz at 5 points per decade is 36 frequencies: 36 adjoint
     solves in four panels of 8 and one of 4, on the workspace the sweep
     already built, with no forward solve and (no lane of this deck
     falling back) no scalar refactor.  One frequency takes the scalar
     path and builds no workspace. *)
  let k0 = Ac.panel_width () in
  Fun.protect ~finally:(fun () -> Ac.set_panel_width k0) @@ fun () ->
  Ac.set_panel_width 8;
  let count f =
    Ape_obs.enable ();
    Ape_obs.reset ();
    f ();
    let snap = Ape_obs.snapshot () in
    Ape_obs.disable ();
    fun name -> Option.value ~default:0 (List.assoc_opt name snap.Ape_obs.counters)
  in
  let op = Dc.solve (golden_deck "mos_amp.sp") in
  let p = Ac.prepare op in
  ignore (Ac.sweep_prepared p (Ac.sweep_frequencies ~fstart:1. ~fstop:1e9 ()));
  let c =
    count (fun () ->
        ignore (Noise.integrated_output_prepared ~out:"d" ~fstart:10. ~fstop:1e8 p))
  in
  List.iter
    (fun (name, expected) -> Alcotest.(check int) name expected (c name))
    [ ("noise.adjoint_solves", 36); ("ac.panels", 5); ("ac.workspaces", 0);
      ("ac.solve_prepared", 0); ("sparse.panel_refactor", 5);
      ("sparse.refactor", 0) ];
  let c =
    count (fun () ->
        ignore (Noise.input_referred_prepared ~out:"d" ~freq:1e3 (Ac.prepare op)))
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) ("one frequency: " ^ name) expected (c name))
    [ ("noise.adjoint_solves", 1); ("ac.panels", 0); ("ac.workspaces", 0) ]

let test_prepared_matches_blocked_golden () =
  (* The measurement searches mix single-point [solve_prepared] probes
     with blocked [solve_many] grids, so the two must agree bit for bit
     (the blocked path's agreement with the dense oracle is pinned in
     test_sparse.ml). *)
  let freqs = [| 0.; 1.; 120.; 1e3; 4.567e4; 1e6; 1e9 |] in
  let verified = ref 0 in
  List.iter
    (fun file ->
      let text = In_channel.with_open_text file In_channel.input_all in
      let nl = Ape_circuit.Spice_parser.parse ~title:file text in
      match Dc.solve nl with
      | exception Dc.No_convergence _ -> ()
      | op ->
        incr verified;
        let p = Ac.prepare op in
        let blocked = Ac.solve_many p freqs in
        Array.iteri
          (fun i f ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: prepared = blocked at %g Hz" file f)
              true
              (same_solution blocked.(i) (Ac.solve_prepared p f)))
          freqs)
    (golden_decks ());
  Alcotest.(check bool) "solved several golden decks" true (!verified >= 3)

let test_repeated_sweep_reuses_workspace () =
  (* A sweep caches its panel workspace on the preparation: repeating it
     must clone none. *)
  let p = Ac.prepare (Dc.solve (rc_lowpass ())) in
  let freqs = Ac.sweep_frequencies ~points_per_decade:7 ~fstart:1. ~fstop:1e6 () in
  ignore (Ac.sweep_prepared p freqs);
  Ape_obs.enable ();
  Ape_obs.reset ();
  ignore (Ac.sweep_prepared p freqs);
  ignore (Ac.sweep_prepared p freqs);
  let snap = Ape_obs.snapshot () in
  Ape_obs.disable ();
  Alcotest.(check int) "sweep points counted" (2 * List.length freqs)
    (Option.value ~default:0 (List.assoc_opt "ac.sweep_points" snap.Ape_obs.counters));
  Alcotest.(check int) "no new workspace" 0
    (Option.value ~default:0 (List.assoc_opt "ac.workspaces" snap.Ape_obs.counters))

(* A MOSFET circuit exercises the device Jacobian inside the
   preparation; random frequencies cover the assembly at arbitrary ω. *)
let mos_amp_op () =
  let b = B.create ~title:"csamp" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 1.2;
  B.nmos b proc ~d:"out" ~g:"in" ~s:"0" ~w:20e-6 ~l:2.4e-6;
  B.resistor b ~a:"vdd" ~b:"out" 47e3;
  B.capacitor b ~a:"out" ~b:"0" 1e-12;
  Dc.solve (B.finish b)

(* [Ac.excite] on a held preparation must give, bit for bit, what a
   fresh DC solve and preparation of the re-excited netlist give: a
   common-mode drive (every V source's AC at 1, as the CMRR bench does)
   and a 1 A AC probe into [probe] with every other drive nulled (the
   Z_out bench).  Acm is V(probe) at 0 Hz of the first, Z_out V(probe)
   at 1 Hz of the second; the whole solution is compared. *)
let check_excite_matches_fresh ~label ~probe (op : Dc.op) =
  let nl = op.Dc.netlist in
  let held = Ac.prepare op in
  (* The held preparation has already served other solves, as it has in
     a testbench. *)
  ignore (Ac.solve_many held [| 1.; 1e3; 1e6 |]);
  let map f = N.make ~title:nl.N.title (List.map f (N.elements nl)) in
  let common_mode =
    map (function N.Vsource v -> N.Vsource { v with ac = 1. } | e -> e)
  in
  let zout_probe =
    N.append
      (map (function
        | N.Vsource v -> N.Vsource { v with ac = 0. }
        | N.Isource i -> N.Isource { i with ac = 0. }
        | e -> e))
      [ N.Isource { name = "IPROBE"; p = probe; n = N.ground; dc = 0.; ac = 1. } ]
  in
  List.iter
    (fun (what, excited_nl) ->
      let excited = Ac.excite held excited_nl in
      let fresh = Ac.prepare (Dc.solve excited_nl) in
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: excited = fresh at %g Hz" label what f)
            true
            (same_solution (Ac.solve_prepared excited f)
               (Ac.solve_prepared fresh f)))
        [ 0.; 1.; 1e3; 1e6 ])
    [ ("common mode", common_mode); ("zout probe", zout_probe) ]

let test_excite_matches_fresh () =
  check_excite_matches_fresh ~label:"mos amp" ~probe:"out" (mos_amp_op ());
  let verified = ref 0 in
  List.iter
    (fun file ->
      let text = In_channel.with_open_text file In_channel.input_all in
      let nl = Ape_circuit.Spice_parser.parse ~title:file text in
      match Dc.solve nl with
      | exception Dc.No_convergence _ -> ()
      | op ->
        incr verified;
        (* Probe the last node the netlist declares. *)
        let probe = List.nth (N.nodes nl) (List.length (N.nodes nl) - 1) in
        check_excite_matches_fresh ~label:file ~probe op)
    (golden_decks ());
  Alcotest.(check bool) "re-excited several golden decks" true (!verified >= 3)

let prop_assembled_matrix_matches_direct_stamping =
  (* The prepared G + jωC, solved by the sparse engine, against the
     dense oracle that re-stamps the netlist at the same frequency. *)
  QCheck.Test.make ~name:"G + jωC assembly matches direct stamping" ~count:60
    (QCheck.float_range (-1.) 9.) (fun logf ->
      let freq = 10. ** logf in
      let op = mos_amp_op () in
      let x = (Ac.solve_prepared (Ac.prepare op) freq).Ac.x in
      let reference = Ape_oracle.ac_solve op freq in
      let scale =
        Array.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 1e-30 reference
      in
      Array.for_all2
        (fun u v -> Complex.norm (Complex.sub u v) <= 1e-10 *. scale)
        reference x)

(* Two buffered poles at ~0.016 Hz and a positive DC gain of 2: the
   phase at 1 Hz is already ≈ −178°, so inferring the sign from a 1 Hz
   phase probe (the old dc_gain_signed) misread this circuit as
   inverting.  The ω → 0 solve is immune to pole positions. *)
let subhertz_positive_nl () =
  let b = B.create ~title:"subhertz" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.resistor b ~a:"in" ~b:"p1" 1e6;
  B.capacitor b ~a:"p1" ~b:"0" 10e-6;
  B.vcvs b ~p:"b1" ~n:"0" ~cp:"p1" ~cn:"0" 1.;
  B.resistor b ~a:"b1" ~b:"p2" 1e6;
  B.capacitor b ~a:"p2" ~b:"0" 10e-6;
  B.vcvs b ~p:"out" ~n:"0" ~cp:"p2" ~cn:"0" 2.;
  B.resistor b ~a:"out" ~b:"0" 1e3;
  B.finish b

let test_signed_gain_subhertz_poles () =
  let op = Ac.prepare (Dc.solve (subhertz_positive_nl ())) in
  (* Sanity: the old 1 Hz probe really sits beyond 90° of lag. *)
  let ph1 = Measure.phase_at ~out:"out" op 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "1 Hz phase beyond ±90° (%.1f°)" ph1)
    true
    (Float.abs ph1 > 90.);
  (* gmin (1e-12 S) loads the two 1 MΩ stages by ~1 ppm each. *)
  check_close "positive gain recovered" 2.0
    (Measure.dc_gain_signed ~out:"out" op)
    ~tol:1e-5;
  (* And an actually inverting stage still reports negative. *)
  let b = B.create ~title:"inv" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.vcvs b ~p:"out" ~n:"0" ~cp:"0" ~cn:"in" 3.;
  B.resistor b ~a:"out" ~b:"0" 1e3;
  let opi = Ac.prepare (Dc.solve (B.finish b)) in
  check_close "inverting gain" (-3.)
    (Measure.dc_gain_signed ~out:"out" opi)
    ~tol:1e-9

(* Three coincident poles behind a gain of 1000: |H| = 1 at
   f = fc·√99 where the lag is 3·atan(√99) ≈ 252.8° — past 180°, so
   the wrapped phase flips sign and the old phase margin came out
   +287° instead of the true −72.8°. *)
let three_pole_nl () =
  let fc = 1e3 in
  let r = 1e3 in
  let c = 1. /. (2. *. Float.pi *. fc *. r) in
  let b = B.create ~title:"3pole" in
  B.vsource b ~p:"in" ~n:"0" ~ac:1. 0.;
  B.vcvs b ~p:"amp" ~n:"0" ~cp:"in" ~cn:"0" 1000.;
  B.resistor b ~a:"amp" ~b:"p1" r;
  B.capacitor b ~a:"p1" ~b:"0" c;
  B.vcvs b ~p:"b1" ~n:"0" ~cp:"p1" ~cn:"0" 1.;
  B.resistor b ~a:"b1" ~b:"p2" r;
  B.capacitor b ~a:"p2" ~b:"0" c;
  B.vcvs b ~p:"b2" ~n:"0" ~cp:"p2" ~cn:"0" 1.;
  B.resistor b ~a:"b2" ~b:"out" r;
  B.capacitor b ~a:"out" ~b:"0" c;
  B.finish b

let test_phase_margin_unwrapped () =
  let prep = Ac.prepare (Dc.solve (three_pole_nl ())) in
  match Measure.unity_gain_frequency ~fmin:1. ~fmax:1e8 ~out:"out" prep with
  | None -> Alcotest.fail "no unity crossing found"
  | Some ugf ->
    let pm = Measure.phase_margin ~ugf ~out:"out" prep in
    (* 180 − 3·atan(√99) in degrees. *)
    let expected =
      180. -. (3. *. Float.atan (Float.sqrt 99.) *. 180. /. Float.pi)
    in
    Alcotest.(check bool)
      (Printf.sprintf "phase margin is negative (%.2f°)" pm)
      true (pm < 0.);
    check_close "unwrapped phase margin" expected pm ~tol:1e-3

let test_unwrapped_phase_matches_wrapped_when_no_wrap () =
  (* Single pole: lag never exceeds 90°, so the unwrapped phase must
     equal the principal value exactly. *)
  let p = Ac.prepare (Dc.solve (rc_lowpass ())) in
  List.iter
    (fun f ->
      let wrapped = Measure.phase_at ~out:"out" p f in
      let unwrapped = Measure.unwrapped_phase_at ~out:"out" p f in
      Alcotest.(check (float 0.))
        (Printf.sprintf "no-wrap identity at %g Hz" f)
        wrapped unwrapped)
    [ 1.; 100.; 159.; 1e4; 1e6 ]

(* ---------- properties ---------- *)

let test_transient_matches_ac_steady_state () =
  (* Drive the RC with a sine at fc: after the transient dies, the
     output amplitude must equal the AC magnitude at that frequency. *)
  let op = Dc.solve (rc_lowpass ()) in
  let fc = 1. /. (2. *. Float.pi *. 1e-3) in
  let ac_mag = Measure.gain_at ~out:"out" (Ac.prepare op) fc in
  let period = 1. /. fc in
  let result =
    Tr.run
      ~stimulus:[ ("V1", Tr.sine ~ampl:1. ~freq:fc ()) ]
      ~tstop:(10. *. period) ~dt:(period /. 200.) op
  in
  (* Peak over the last two periods. *)
  let ys = Tr.samples result "out" and ts = result.Tr.times in
  let peak = ref 0. in
  Array.iteri
    (fun i t -> if t > 8. *. period then peak := Float.max !peak (Float.abs ys.(i)))
    ts;
  check_close "steady-state amplitude = |H(fc)|" ac_mag !peak ~tol:0.01

let test_estimator_cross_process () =
  (* The whole estimate-vs-simulate story holds on the second built-in
     deck too. *)
  let p08 = Proc.c08 in
  let d =
    Ape_estimator.Diff_pair.design p08
      (Ape_estimator.Diff_pair.spec ~av:400.
         Ape_estimator.Diff_pair.Cmos_mirror ~itail:2e-6)
  in
  let sim = Ape_estimator.Verify.sim_diff_pair p08 d in
  (match (d.Ape_estimator.Diff_pair.perf.Ape_estimator.Perf.gain,
          sim.Ape_estimator.Perf.gain) with
  | Some est, Some meas ->
    Alcotest.(check bool)
      (Printf.sprintf "c08 gain within 50%% (est %.1f sim %.1f)" est meas)
      true
      (F.rel_error est meas < 0.5)
  | _ -> Alcotest.fail "missing gains");
  match (d.Ape_estimator.Diff_pair.perf.Ape_estimator.Perf.dc_power,
         sim.Ape_estimator.Perf.dc_power) with
  | est, meas ->
    Alcotest.(check bool) "c08 power within 10%" true
      (F.rel_error est meas < 0.1)

let prop_ac_rc_any_freq =
  QCheck.Test.make ~name:"RC low-pass matches analytic response" ~count:60
    (QCheck.float_range 0.5 6.) (fun logf ->
      let f = 10. ** logf in
      let prep = Ac.prepare (Dc.solve (rc_lowpass ())) in
      let fc = 1. /. (2. *. Float.pi *. 1e-3) in
      let mag = Measure.gain_at ~out:"out" prep f in
      let expected = 1. /. Float.sqrt (1. +. ((f /. fc) ** 2.)) in
      F.approx_equal ~rtol:1e-6 ~atol:1e-9 expected mag)

let prop_dc_divider_ratio =
  QCheck.Test.make ~name:"two-resistor divider always splits by ratio"
    ~count:100
    QCheck.(pair (float_range 2. 6.) (float_range 2. 6.))
    (fun (lr1, lr2) ->
      let r1 = 10. ** lr1 and r2 = 10. ** lr2 in
      let b = B.create ~title:"div" in
      B.vsource b ~p:"vdd" ~n:"0" 5.;
      B.resistor b ~a:"vdd" ~b:"mid" r1;
      B.resistor b ~a:"mid" ~b:"0" r2;
      let op = Dc.solve (B.finish b) in
      F.approx_equal ~rtol:1e-6 ~atol:1e-9
        (5. *. r2 /. (r1 +. r2))
        (Dc.voltage op "mid"))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_spice"
    [
      ( "dc",
        [
          Alcotest.test_case "divider" `Quick test_dc_divider;
          Alcotest.test_case "current source" `Quick test_dc_isource;
          Alcotest.test_case "vcvs" `Quick test_dc_vcvs;
          Alcotest.test_case "diode mosfet" `Quick test_dc_diode_mosfet;
          Alcotest.test_case "switch" `Quick test_dc_switch;
          Alcotest.test_case "M= multiplier differential" `Quick
            test_dc_multiplier_differential;
          Alcotest.test_case "diff pair convergence" `Quick
            test_dc_diff_pair_convergence;
          Alcotest.test_case "shared index bit-identical" `Quick
            test_dc_shared_index;
        ] );
      ( "ac",
        [
          Alcotest.test_case "rc analytic" `Quick test_ac_rc_analytic;
          Alcotest.test_case "phase" `Quick test_ac_phase;
          Alcotest.test_case "sweep shape" `Quick test_ac_sweep_shape;
          Alcotest.test_case "f3db/ugf" `Quick test_measure_f3db_ugf;
          Alcotest.test_case "bandpass" `Quick test_measure_bandpass;
        ] );
      ( "transient",
        [
          Alcotest.test_case "rc step BE" `Quick test_transient_rc_step;
          Alcotest.test_case "rc step trapezoidal" `Quick
            test_transient_trapezoidal;
          Alcotest.test_case "two-pole step analytic" `Quick
            test_transient_two_pole_step;
          Alcotest.test_case "helpers" `Quick test_transient_helpers;
          Alcotest.test_case "timestep-halving order" `Quick
            test_transient_convergence_order;
          Alcotest.test_case "step acceptance pinned" `Quick
            test_transient_step_acceptance;
          Alcotest.test_case "waveforms" `Quick test_waveforms;
          Alcotest.test_case "frozen sc_track waveforms" `Quick
            test_transient_frozen_sc_track;
          Alcotest.test_case "until keeps the full run's prefix" `Quick
            test_transient_until_prefix;
          Alcotest.test_case "until never met is the full run" `Quick
            test_transient_until_never;
        ] );
      ( "awe",
        [
          Alcotest.test_case "rc pole" `Quick test_awe_rc_pole;
          Alcotest.test_case "two poles" `Quick test_awe_two_pole;
          Alcotest.test_case "ugf estimate" `Quick test_awe_ugf_estimate;
          Alcotest.test_case "rc moments analytic" `Quick test_awe_moments_rc;
          Alcotest.test_case "unity crossing analytic" `Quick
            test_awe_unity_crossing_analytic;
          Alcotest.test_case "one pole = reference" `Quick
            test_awe_one_pole_reference;
          Alcotest.test_case "degenerate moments" `Quick
            test_awe_degenerate_moments;
        ] );
      qsuite "awe-properties" [ prop_awe_closed_form_reference ];
      ( "errors",
        [
          Alcotest.test_case "missing branch is typed" `Quick
            test_engine_error_missing_branch;
          Alcotest.test_case "index mismatch is typed" `Quick
            test_engine_error_index_mismatch;
          Alcotest.test_case "no-convergence is typed" `Quick
            test_no_convergence_is_typed;
        ] );
      ( "noise",
        [
          Alcotest.test_case "divider analytic" `Quick
            test_noise_divider_analytic;
          Alcotest.test_case "kT/C" `Quick test_noise_rc_filtered;
          Alcotest.test_case "mosfet thermal" `Quick test_noise_mosfet_thermal;
          Alcotest.test_case "flicker rolloff" `Quick
            test_noise_flicker_rolloff;
          Alcotest.test_case "input-referred divider" `Quick
            test_noise_input_referred_divider;
          Alcotest.test_case "adjoint matches direct on golden decks" `Quick
            test_noise_adjoint_matches_direct;
          Alcotest.test_case "sparse engine counters during noise" `Quick
            test_noise_sparse_engine_counters;
          Alcotest.test_case "frozen mos_amp noise" `Quick
            test_noise_frozen_mos_amp;
          Alcotest.test_case "frozen cascade and ladder noise" `Quick
            test_noise_frozen_cascades_ladders;
          Alcotest.test_case "integrated noise panel width bitwise" `Quick
            test_noise_integrated_panel_width;
          Alcotest.test_case "integrated noise counters" `Quick
            test_noise_integration_counters;
        ] );
      ( "servo",
        [ Alcotest.test_case "divider" `Quick test_servo_divider ] );
      ( "prepared",
        [
          Alcotest.test_case "golden decks bit-identical" `Quick
            test_prepared_matches_blocked_golden;
          Alcotest.test_case "re-excited matches fresh" `Quick
            test_excite_matches_fresh;
          Alcotest.test_case "repeated sweep reuses workspace" `Quick
            test_repeated_sweep_reuses_workspace;
          Alcotest.test_case "sub-hertz signed gain" `Quick
            test_signed_gain_subhertz_poles;
          Alcotest.test_case "phase margin unwrapped" `Quick
            test_phase_margin_unwrapped;
          Alcotest.test_case "unwrap no-wrap identity" `Quick
            test_unwrapped_phase_matches_wrapped_when_no_wrap;
        ] );
      qsuite "prepared-properties"
        [ prop_assembled_matrix_matches_direct_stamping ];
      ( "consistency",
        [
          Alcotest.test_case "transient vs AC steady state" `Quick
            test_transient_matches_ac_steady_state;
          Alcotest.test_case "cross-process estimator" `Quick
            test_estimator_cross_process;
        ] );
      qsuite "properties" [ prop_ac_rc_any_freq; prop_dc_divider_ratio ];
    ]
