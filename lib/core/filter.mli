(** Level-4 active filters (paper Figure 3c/3d, Table 5 lpf/bpf rows).

    - {b Low-pass}: even-order Butterworth as a cascade of equal-R,
      equal-C Sallen–Key biquads; each stage's Q is realised by its
      amplifier gain K = 3 − 1/Q, so the pass-band gain is Π K_i.
    - {b Band-pass}: a multiple-feedback (MFB) biquad.  The paper calls
      its band-pass "Sallen-Key"; the MFB form is the standard
      equal-capacitor realisation with well-conditioned design equations
      and preserves the evaluated behaviour (f₀, Q, mid-band gain) —
      substitution documented in DESIGN.md. *)

type lp_spec = {
  order : int;  (** even, ≥ 2 *)
  f_cutoff : float;  (** Butterworth −3 dB frequency, Hz *)
  r_base : float;  (** stage resistor value, Ω *)
}

type bp_spec = {
  f_center : float;  (** Hz *)
  q : float;  (** f₀ / bandwidth *)
  gain : float;  (** mid-band gain magnitude (< 2·Q²) *)
  c_base : float;  (** stage capacitor value, F *)
}

type stage = {
  k : float;  (** stage amplifier gain *)
  q : float;
  r : float;
  c : float;
  opamp : Opamp.design;
  ra : float;  (** gain-set divider to the reference *)
  rb : float;  (** gain-set feedback resistor *)
}

type lp_design = {
  lp_spec : lp_spec;
  stages : stage list;
  r_div : float;  (** each half of the mid-rail reference divider, Ω *)
  gain_est : float;  (** pass-band gain Π K_i *)
  f3db_est : float;
  f20db_est : float;  (** −20 dB frequency, Butterworth shape *)
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

val design_lp : Ape_process.Process.t -> lp_spec -> lp_design
(** Raises [Invalid_argument] for odd or non-positive order. *)

val fragment_lp : Ape_process.Process.t -> lp_design -> Fragment.t
(** Ports: [vdd], [in], [out]. *)

val design_bp : Ape_process.Process.t -> bp_spec -> bp_design
(** Raises [Invalid_argument] when [gain >= 2·q²] (MFB realisability). *)

val fragment_bp : Ape_process.Process.t -> bp_design -> Fragment.t
(** Ports: [vdd], [in], [out]. *)
