(** The statistical variation model: global (inter-die) parameter
    spread plus Pelgrom-style per-device mismatch.

    Global variation samples a {!Ape_process.Process.perturbation} —
    Gaussian multiplicative factors on KP/tox/γ/λ/Rsh/C-density and an
    additive threshold shift — with the gate-oxide factor shared between
    NMOS and PMOS (one oxide run) and everything else drawn per
    polarity.  The {!default} σ values are chosen so the deterministic
    Slow/Fast corners of {!Ape_process.Process.corner} bracket ±3σ of
    every sampled parameter.

    Per-device mismatch follows Pelgrom's law: between two identically
    drawn devices, σ(ΔV_T) = A_VT / √(W·L) with [A_VT] taken from the
    model card's [avt] field. *)

type sigmas = {
  s_kp : float;  (** relative σ of KP *)
  s_vto : float;  (** absolute σ of the threshold magnitude, V *)
  s_tox : float;  (** relative σ of tox (shared NMOS/PMOS) *)
  s_gamma : float;  (** relative σ of γ *)
  s_lambda : float;  (** relative σ of λ *)
  s_rsh : float;  (** relative σ of the poly sheet resistance *)
  s_cap : float;  (** relative σ of the capacitor density *)
}

val default : sigmas
(** A mid-90s mixed-signal CMOS spread: KP 4 %, VTO 20 mV, tox 1.5 %,
    γ 3 %, λ 5 %, Rsh 8 %, C 5 % — all 1σ. *)

val scale : float -> sigmas -> sigmas
(** Scale every σ by a common factor (0 disables global variation). *)

val perturb :
  Ape_util.Rng.t -> sigmas -> Ape_process.Process.t -> Ape_process.Process.t
(** Draw one inter-die deviation and apply it ([Process.perturb]).  The
    draw order is fixed and part of the deterministic contract. *)

val mismatch_vto :
  Ape_util.Rng.t -> Ape_process.Model_card.t -> w:float -> l:float -> float
(** One sampled ΔV_T between a matched pair of W×L devices, V: a
    Gaussian of the Pelgrom σ(ΔV_T) = A_VT / √(W·L). *)
