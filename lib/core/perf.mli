(** Performance attribute records shared across the estimation hierarchy.

    Every APE level produces "a new object ... with the estimates and
    sizes attached as attributes" (paper §4).  {!t} is that attribute set:
    the union of the columns of the paper's Tables 2/3/5, with [None] for
    attributes a component does not define (the tables' blank cells). *)

type t = {
  gate_area : float;  (** Σ W·L of the MOS devices, m² *)
  total_area : float;  (** gate area + passive (R/C) layout area, m² *)
  dc_power : float;  (** static supply power, W *)
  gain : float option;  (** low-frequency gain, V/V (signed) *)
  ugf : float option;  (** unity-gain frequency, Hz *)
  bandwidth : float option;  (** −3 dB bandwidth, Hz *)
  cmrr : float option;  (** common-mode rejection, V/V (not dB) *)
  slew_rate : float option;  (** V/s *)
  zout : float option;  (** output impedance, Ω *)
  current : float option;  (** characteristic branch current, A *)
  offset : float option;  (** systematic input offset, V *)
  phase_margin : float option;  (** degrees *)
  noise : float option;
      (** input-referred noise density at 1 kHz, V/√Hz *)
  offset_sigma : float option;
      (** random (mismatch) input-offset standard deviation, V *)
}

val empty : t
(** All optionals [None], areas and power 0. *)

val pp : Format.formatter -> t -> unit
