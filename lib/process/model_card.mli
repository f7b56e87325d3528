(** MOS device model cards.

    APE "uses technology process parameters and SPICE models of analog
    circuit elements at the lowest level" and "can use Level 1, 2, 3 or
    BSIM SPICE device models" (paper §4.1).  A {!t} bundles the parameters
    of one device polarity at one model level; {!Process.t} pairs the two
    polarities with the process-wide constants. *)

type mos_type = Nmos | Pmos

type level =
  | Level1  (** Shichman–Hodges square law *)
  | Level2  (** + mobility degradation (theta) *)
  | Level3  (** + velocity saturation (vmax/ecrit) *)
  | Bsim1   (** lite BSIM1: both refinements + body-bias mobility term *)

type t = {
  name : string;
  mos_type : mos_type;
  level : level;
  vto : float;  (** zero-bias threshold, V; negative for PMOS *)
  kp : float;  (** transconductance parameter µ0·Cox, A/V² *)
  gamma : float;  (** body-effect coefficient, √V *)
  phi : float;  (** surface potential 2φ_f, V *)
  lambda : float;  (** channel-length modulation at {!field-lref}, 1/V *)
  lref : float;  (** channel length at which [lambda] was extracted, m *)
  tox : float;  (** gate-oxide thickness, m *)
  u0 : float;  (** low-field mobility, m²/(V·s) *)
  theta : float;  (** mobility degradation, 1/V (Level ≥ 2) *)
  vmax : float;  (** carrier saturation velocity, m/s (Level ≥ 3) *)
  eta : float;  (** DIBL-style threshold shift per V_DS (Bsim1) *)
  cgso : float;  (** G-S overlap capacitance, F/m of width *)
  cgdo : float;  (** G-D overlap capacitance, F/m of width *)
  cgbo : float;  (** G-B overlap capacitance, F/m of length *)
  cj : float;  (** junction bottom capacitance, F/m² *)
  mj : float;  (** bottom grading coefficient *)
  cjsw : float;  (** junction sidewall capacitance, F/m *)
  mjsw : float;  (** sidewall grading coefficient *)
  pb : float;  (** junction built-in potential, V *)
  ld : float;  (** lateral diffusion, m *)
  is_leak : float;  (** subthreshold leak scale, A (continuity aid) *)
  kf : float;  (** flicker-noise coefficient (SPICE KF), V²·F *)
  af : float;  (** flicker-noise current exponent (SPICE AF) *)
  avt : float;  (** Pelgrom threshold-mismatch coefficient, V·m *)
}

val cox : t -> float
(** Oxide capacitance per unit area, [eps_ox / tox], F/m². *)

val polarity : t -> float
(** +1. for NMOS, −1. for PMOS: multiplies voltages/currents so the same
    equations serve both. *)

val lambda_at : t -> float -> float
(** [lambda_at card l] is the channel-length modulation for drawn length
    [l]: λ(L) = λ0·L_ref/L (design choice D2 in DESIGN.md). *)

val vth : t -> vsb:float -> float
(** Threshold magnitude including body effect:
    VT = |VTO| + γ(√(2φ_f + V_SB) − √(2φ_f)), with V_SB clamped at
    −2φ_f + ε for Newton robustness. *)

val vth_slope : t -> vsb:float -> float
(** ∂{!vth}/∂V_SB = γ / (2√(2φ_f + V_SB)), and 0 where the clamp holds
    the threshold constant. *)

val default_nmos : t
(** The built-in 1.2 µm NMOS Level-1 card (see {!Process.c12}). *)

val default_pmos : t

val with_level : level -> t -> t
(** Same card re-tagged at another model level (the refinement
    parameters are already present). *)

(** {1 Process variation} *)

type perturbation = {
  kp_factor : float;  (** multiplies KP (and u0, keeping KP = u0·Cox) *)
  vto_shift : float;
      (** threshold-magnitude shift, V: added with the device polarity so
          a positive shift always {e slows} the device *)
  tox_factor : float;  (** multiplies tox (and scales u0 to keep KP) *)
  gamma_factor : float;
  lambda_factor : float;
}
(** One sampled inter-die deviation of a card, in the same parameter
    basis as {!Process.corner} — a corner is just a deterministic
    perturbation.  Constructed by [Mc.Variation] from a {!Ape_util.Rng}
    stream; kept Rng-free here so the process layer stays deterministic. *)

val perturb : perturbation -> t -> t
(** Apply a sampled deviation, keeping KP, u0 and tox mutually
    consistent (KP = u0·eps_ox/tox). *)

val to_spice : t -> string
(** Render as a SPICE [.MODEL] line. *)

val pp : Format.formatter -> t -> unit
