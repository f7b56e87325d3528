(* Declared before [t] so the [nmos]/[pmos] field labels of [t] take
   precedence for record access throughout the codebase. *)
type perturbation = {
  nmos : Model_card.perturbation;
  pmos : Model_card.perturbation;
  rsh_factor : float;
  cap_factor : float;
}

type t = {
  name : string;
  lmin : float;
  wmin : float;
  wmax : float;
  vdd : float;
  vss : float;
  nmos : Model_card.t;
  pmos : Model_card.t;
  rsh_poly : float;
  cap_density : float;
}

let c12 =
  {
    name = "c12";
    lmin = 1.2e-6;
    wmin = 1.8e-6;
    wmax = 2000e-6;
    vdd = 5.0;
    vss = 0.0;
    nmos = Model_card.default_nmos;
    pmos = Model_card.default_pmos;
    rsh_poly = 25.;
    cap_density = 0.5e-3;
  }

let c08 =
  let scale_card (card : Model_card.t) kp_scale =
    {
      card with
      Model_card.kp = card.Model_card.kp *. kp_scale;
      tox = 16e-9;
      u0 =
        card.Model_card.kp *. kp_scale /. (Ape_util.Units.eps_ox /. 16e-9);
      lref = 1.6e-6;
      lambda = card.Model_card.lambda *. 1.2;
      ld = 0.1e-6;
    }
  in
  {
    name = "c08";
    lmin = 0.8e-6;
    wmin = 1.2e-6;
    wmax = 2000e-6;
    vdd = 5.0;
    vss = 0.0;
    nmos =
      { (scale_card Model_card.default_nmos 1.5) with
        Model_card.name = "CMOSN08";
        vto = 0.70
      };
    pmos =
      { (scale_card Model_card.default_pmos 1.5) with
        Model_card.name = "CMOSP08";
        vto = -0.80
      };
    rsh_poly = 22.;
    cap_density = 0.8e-3;
  }

let card t = function
  | Model_card.Nmos -> t.nmos
  | Model_card.Pmos -> t.pmos

type corner = Typical | Slow | Fast

let corner_name = function
  | Typical -> "typical"
  | Slow -> "slow"
  | Fast -> "fast"

let corner c t =
  match c with
  | Typical -> t
  | Slow | Fast ->
    let kp_scale, vto_shift =
      match c with Slow -> (0.85, 0.1) | Fast | Typical -> (1.15, -0.1)
    in
    let shift (card : Model_card.t) =
      let sign = Model_card.polarity card in
      {
        card with
        Model_card.kp = card.Model_card.kp *. kp_scale;
        u0 = card.Model_card.u0 *. kp_scale;
        vto = card.Model_card.vto +. (sign *. vto_shift);
      }
    in
    { t with nmos = shift t.nmos; pmos = shift t.pmos }

let perturb (p : perturbation) t =
  {
    t with
    nmos = Model_card.perturb p.nmos t.nmos;
    pmos = Model_card.perturb p.pmos t.pmos;
    rsh_poly = t.rsh_poly *. p.rsh_factor;
    cap_density = t.cap_density *. p.cap_factor;
  }

(* Serpentine of 2 µm-wide poly: squares = R / Rsh, each square 2x2 µm,
   plus 30 % routing overhead. *)
let resistor_area t r =
  if r < 0. then invalid_arg "Process.resistor_area: negative";
  let squares = r /. t.rsh_poly in
  squares *. (2e-6 *. 2e-6) *. 1.3

let capacitor_area t c =
  if c < 0. then invalid_arg "Process.capacitor_area: negative";
  c /. t.cap_density

let pp fmt t =
  Format.fprintf fmt
    "process %s: Lmin=%s Wmin=%s VDD=%g V@.  nmos: %a@.  pmos: %a" t.name
    (Ape_util.Units.to_eng t.lmin)
    (Ape_util.Units.to_eng t.wmin)
    t.vdd Model_card.pp t.nmos Model_card.pp t.pmos
