type mos_type = Nmos | Pmos
type level = Level1 | Level2 | Level3 | Bsim1

type t = {
  name : string;
  mos_type : mos_type;
  level : level;
  vto : float;
  kp : float;
  gamma : float;
  phi : float;
  lambda : float;
  lref : float;
  tox : float;
  u0 : float;
  theta : float;
  vmax : float;
  eta : float;
  cgso : float;
  cgdo : float;
  cgbo : float;
  cj : float;
  mj : float;
  cjsw : float;
  mjsw : float;
  pb : float;
  ld : float;
  is_leak : float;
  kf : float;
  af : float;
  avt : float;
}

let cox card = Ape_util.Units.eps_ox /. card.tox
let polarity card = match card.mos_type with Nmos -> 1. | Pmos -> -1.

let lambda_at card l =
  if l <= 0. then invalid_arg "Model_card.lambda_at: l <= 0";
  card.lambda *. card.lref /. l

(* Floor of phi + vsb: clamps forward body bias so sqrt stays real
   during Newton steps. *)
let min_body_arg = 1e-3

let vth card ~vsb =
  let phi = card.phi in
  let arg = Float.max min_body_arg (phi +. vsb) in
  Float.abs card.vto +. (card.gamma *. (Float.sqrt arg -. Float.sqrt phi))

let vth_slope card ~vsb =
  let arg = card.phi +. vsb in
  if arg > min_body_arg then card.gamma /. (2. *. Float.sqrt arg) else 0.

(* 1.2 µm-class CMOS, MOSIS-era values; tox 25 nm gives
   Cox = 1.38 mF/m², u0 chosen so KP = u0 * Cox. *)
let default_nmos =
  {
    name = "CMOSN12";
    mos_type = Nmos;
    level = Level1;
    vto = 0.75;
    kp = 75e-6;
    gamma = 0.40;
    phi = 0.60;
    lambda = 0.05;
    lref = 2.4e-6;
    tox = 25e-9;
    u0 = 75e-6 /. (Ape_util.Units.eps_ox /. 25e-9);
    theta = 0.08;
    vmax = 1.5e5;
    eta = 0.01;
    cgso = 3.0e-10;
    cgdo = 3.0e-10;
    cgbo = 4.0e-10;
    cj = 3.0e-4;
    mj = 0.5;
    cjsw = 3.0e-10;
    mjsw = 0.33;
    pb = 0.8;
    ld = 0.15e-6;
    is_leak = 1e-14;
    kf = 3e-24;
    af = 1.0;
    avt = 15e-9;
  }

let default_pmos =
  {
    default_nmos with
    name = "CMOSP12";
    mos_type = Pmos;
    vto = -0.85;
    kp = 25e-6;
    gamma = 0.50;
    lambda = 0.06;
    u0 = 25e-6 /. (Ape_util.Units.eps_ox /. 25e-9);
    theta = 0.10;
    vmax = 1.0e5;
    cj = 4.5e-4;
    kf = 1e-24;
    avt = 20e-9;
  }

let with_level level card = { card with level }

type perturbation = {
  kp_factor : float;
  vto_shift : float;
  tox_factor : float;
  gamma_factor : float;
  lambda_factor : float;
}

(* KP, tox and u0 are kept mutually consistent (KP = u0 * Cox, Cox =
   eps_ox / tox): the sampled KP factor is the net current-factor
   variation, tox moves the capacitances, and u0 absorbs the difference
   so the level-1 equations and the simulation view agree on KP. *)
let perturb p card =
  let sign = polarity card in
  let tox = card.tox *. p.tox_factor in
  let kp = card.kp *. p.kp_factor in
  {
    card with
    kp;
    tox;
    u0 = kp /. (Ape_util.Units.eps_ox /. tox);
    vto = card.vto +. (sign *. p.vto_shift);
    gamma = card.gamma *. p.gamma_factor;
    lambda = card.lambda *. p.lambda_factor;
  }

let level_to_int = function
  | Level1 -> 1
  | Level2 -> 2
  | Level3 -> 3
  | Bsim1 -> 4

let to_spice card =
  (* Exact decimals so a printed card re-parses to the identical record
     (the netlist round-trip tests rely on it). *)
  let x = Ape_util.Units.to_exact in
  Printf.sprintf
    ".MODEL %s %s (LEVEL=%d VTO=%s KP=%s GAMMA=%s PHI=%s LAMBDA=%s TOX=%s \
     U0=%s THETA=%s VMAX=%s ETA=%s CGSO=%s CGDO=%s CGBO=%s CJ=%s MJ=%s \
     CJSW=%s MJSW=%s PB=%s LD=%s IS=%s LREF=%s KF=%s AF=%s AVT=%s)"
    card.name
    (match card.mos_type with Nmos -> "NMOS" | Pmos -> "PMOS")
    (level_to_int card.level) (x card.vto) (x card.kp) (x card.gamma)
    (x card.phi) (x card.lambda) (x card.tox) (x card.u0) (x card.theta)
    (x card.vmax) (x card.eta) (x card.cgso) (x card.cgdo) (x card.cgbo)
    (x card.cj) (x card.mj) (x card.cjsw) (x card.mjsw) (x card.pb) (x card.ld)
    (x card.is_leak) (x card.lref) (x card.kf) (x card.af) (x card.avt)

let pp fmt card = Format.pp_print_string fmt (to_spice card)
