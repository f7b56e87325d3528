(** Asymptotic Waveform Evaluation (Pillage & Rohrer 1990), the reduced-
    order evaluation technique the paper notes OBLX used for simulation
    inside its annealing loop (§3).

    From the linearised MNA system [(G + sC) x = b] the circuit moments
    are [m_0 = G⁻¹b], [m_k = −G⁻¹·C·m_{k−1}]; a [q]-pole Padé
    approximant of the output's transfer function is fitted to the first
    [2q] moments.  One LU factorisation of G serves all moments, which is
    why AWE evaluation is orders of magnitude cheaper than a full AC
    sweep — the ablation bench quantifies exactly that.

    G and C are the index's sparse slot values ({!Engine.sparse_residual}
    [~c]).  {!moments} factors G densely, in place, on a reusable
    {!workspace}; {!of_moments} fits one or two poles in closed form.
    The test oracle keeps the dense [Matrix] moments and the general-[q]
    Durand–Kerner Padé these are checked against. *)

type approximant = {
  moments : float array;  (** μ_0 .. μ_{2q−1} of the chosen output *)
  poles : Complex.t list;  (** poles of the Padé denominator, 1/s units *)
  residues : Complex.t list;
  dc_value : float;  (** μ_0 — the DC transfer value *)
}

exception Moment_failure of string

val excitation : Ape_circuit.Netlist.t -> Engine.index -> float array
(** The AC right-hand side [b]: each V-source's AC magnitude on its
    branch row, each I-source's AC current leaving [p] and entering
    [n]. *)

type workspace
(** Scratch for {!moments} over one index's pattern: the dense LU, its
    row permutation and the moment vectors.  One evaluation at a time:
    concurrent callers need one workspace each. *)

val workspace : Engine.index -> workspace

val moments :
  workspace ->
  g:Ape_util.Sparse.Real.t ->
  c:Ape_util.Sparse.Real.t ->
  rhs:float array ->
  out:int ->
  int ->
  float array
(** [moments ws ~g ~c ~rhs ~out count] is the first [count] moments of
    unknown [out] under excitation [rhs], with [g] and [c] over the
    workspace's index pattern.  G is factored with partial pivoting in
    the dense reference LU's pivot rule and operation order, and
    [C·m] is summed per row in ascending column order, so every moment
    equals the dense reference's bit for bit.  Raises
    {!Moment_failure} when G is singular. *)

val of_moments : ?q:int -> float array -> approximant
(** The Padé approximant with [q] poles (1 or 2, default 2) fitted to
    the first [2q] moments, in closed form: the Hankel system by
    elimination with the dense reference's pivoting (its singular cases
    raise {!Moment_failure}), the poles by the stable quadratic formula
    and the residues by a 2×2 solve.  A vanishing leading coefficient
    drops a pole; an exactly repeated pole has zero residues. *)

val pade : ?q:int -> out:Ape_circuit.Netlist.node -> Dc.op -> approximant
(** Stamp G and C at [op]'s point, take [2q] moments at [out] and fit
    them ({!of_moments}).  Raises {!Moment_failure} when [out] is
    ground or a solve is singular. *)

val unity_crossing_hz : approximant -> float option
(** The |H(j2πf)| = 1 crossing of the pole/residue expansion, located
    by 40 bisection steps in log frequency on the reduced model (no
    further matrix solves).  [None] when |μ_0| ≤ 1 or the magnitude
    does not cross 1 between 100 Hz and 10 GHz. *)
