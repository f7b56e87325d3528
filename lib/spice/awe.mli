(** Asymptotic Waveform Evaluation (Pillage & Rohrer 1990), the reduced-
    order evaluation technique the paper notes OBLX used for simulation
    inside its annealing loop (§3).

    From the linearised MNA system [(G + sC) x = b] the circuit moments
    are [m_0 = G⁻¹b], [m_k = −G⁻¹·C·m_{k−1}]; a [q]-pole Padé
    approximant of the output's transfer function is fitted to the first
    [2q] moments.  One LU factorisation of G serves all moments, which is
    why AWE evaluation is orders of magnitude cheaper than a full AC
    sweep — the ablation bench quantifies exactly that. *)

type approximant = {
  moments : float array;  (** μ_0 .. μ_{2q−1} of the chosen output *)
  poles : Complex.t list;  (** poles of the Padé denominator, 1/s units *)
  residues : Complex.t list;
  dc_value : float;  (** μ_0 — the DC transfer value *)
}

exception Moment_failure of string

val moments :
  ?count:int ->
  ?g:Ape_util.Matrix.Rmat.t ->
  ?c:Ape_util.Matrix.Rmat.t ->
  out:Ape_circuit.Netlist.node ->
  Dc.op ->
  float array
(** First [count] (default 8) output moments.  [g] is the conductance
    matrix (the Jacobian at [op]'s point) and [c] the capacitance
    matrix at the same point, when the caller has already stamped
    them — as the relaxed synthesis cost has, both from one
    {!Engine.linearize} pass that also gives its KCL penalty.  Either
    one left out comes from one {!Engine.linearize} pass here.  Raises {!Moment_failure} when G is
    singular. *)

val pade :
  ?q:int ->
  ?g:Ape_util.Matrix.Rmat.t ->
  ?c:Ape_util.Matrix.Rmat.t ->
  out:Ape_circuit.Netlist.node ->
  Dc.op ->
  approximant
(** Padé approximant with [q] poles (default 2, max [count/2]); [g] and
    [c] as in {!moments}. *)

val dominant_pole_hz : approximant -> float option
(** Magnitude/2π of the slowest stable pole, i.e. the −3 dB estimate for
    a low-pass response. *)

val unity_gain_frequency_hz : approximant -> float option
(** UGF estimate from the single-pole model: |a0|·p1 when |a0| > 1. *)

val unity_crossing_hz :
  ?fmin:float -> ?fmax:float -> approximant -> float option
(** The |H(j2πf)| = 1 crossing of the full pole/residue expansion,
    located by bisection on the reduced model (no further matrix
    solves).  More accurate than {!unity_gain_frequency_hz} when the
    second pole is within a decade of the UGF. *)

val eval : approximant -> float -> Complex.t
(** Evaluate the pole/residue expansion at a frequency in Hz. *)
