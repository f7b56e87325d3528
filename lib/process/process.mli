(** A fabrication process: the pair of MOS model cards plus the
    process-wide constants (supplies, minimum geometry, passive
    densities) the estimator and simulator share. *)

type perturbation = {
  nmos : Model_card.perturbation;
  pmos : Model_card.perturbation;
  rsh_factor : float;  (** multiplies the poly sheet resistance *)
  cap_factor : float;  (** multiplies the capacitor density *)
}
(** One sampled inter-die deviation of the whole process (declared
    before {!t} so [t]'s [nmos]/[pmos] labels take precedence).
    [Mc.Variation] samples these (shared oxide factor, per-polarity
    KP/VTO/λ); the deterministic {!corner}s are special cases. *)

type t = {
  name : string;
  lmin : float;  (** minimum drawn channel length, m *)
  wmin : float;  (** minimum drawn channel width, m *)
  wmax : float;  (** sanity cap on widths during synthesis, m *)
  vdd : float;  (** positive supply, V *)
  vss : float;  (** negative supply, V *)
  nmos : Model_card.t;
  pmos : Model_card.t;
  rsh_poly : float;  (** poly sheet resistance, Ω/□ (for resistors) *)
  cap_density : float;  (** poly-poly capacitor density, F/m² *)
}

val c12 : t
(** Built-in 1.2 µm-class process at 5 V, the default everywhere
    (matches the paper's mid-90s MOSIS setting). *)

val c08 : t
(** Built-in 0.8 µm-class process at 5 V, for cross-process tests. *)

val card : t -> Model_card.mos_type -> Model_card.t
(** Select the card of a polarity. *)

type corner = Typical | Slow | Fast

val corner : corner -> t -> t
(** Process corners: [Slow] weakens both polarities (KP ×0.85,
    |VTO| +0.1 V), [Fast] strengthens them (KP ×1.15, |VTO| −0.1 V);
    [Typical] is the identity.  Used for estimator-robustness
    experiments. *)

val corner_name : corner -> string

(** {1 Process variation} *)

val perturb : perturbation -> t -> t
(** Apply a sampled deviation to both cards and the passive densities. *)

val resistor_area : t -> float -> float
(** Estimated layout area of a poly resistor of the given value, m²
    (2 µm-wide serpentine). *)

val capacitor_area : t -> float -> float
(** Estimated layout area of a poly-poly capacitor of the given value,
    m². *)

val pp : Format.formatter -> t -> unit
