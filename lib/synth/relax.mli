(** Shared OBLX-style bias relaxation: circuit node voltages as
    optimisation unknowns with Kirchhoff's current law as a penalty.

    The structure (node set, fixed source terminals, MNA indexing) is
    computed once per problem; candidates differ only in element values,
    never in connectivity, so the same index serves every evaluation.
    Free and source-pinned nodes are resolved to their engine unknowns
    (and G's diagonal slots) in {!create}, so {!x_engine} and
    {!kcl_penalty} look no name up. *)

type t

val create :
  ?node_window:float ->
  mode:[ `Wide | `Centered ] ->
  vdd:float ->
  Ape_circuit.Netlist.t ->
  t
(** [mode = `Wide]: node unknowns range over [[0, vdd]], centred
    mid-rail.  [mode = `Centered]: a true DC solve of the given netlist
    provides the centres and unknowns range ±[node_window] (default
    0.25 V) around them; when that solve fails, centres fall back to
    mid-rail. *)

val n_free : t -> int
(** Number of relaxed node-voltage unknowns (append these to the size
    unknowns). *)

val x_engine : t -> float array -> float array
(** Full MNA state vector from the unit-cube node part: free nodes
    mapped through their intervals, source-pinned nodes at their DC
    values, branch currents zero. *)

val centers_unit : t -> float array
(** The unit-cube coordinates of the node centres (the starting point
    for [`Centered] runs). *)

type scratch
(** One evaluation's stamp storage (G and C slot values, the AWE
    moment workspace), reused through the problem's pool. *)

type stamp = private {
  f : float array;  (** KCL/branch residual at the relaxed point *)
  g : Ape_util.Sparse.Real.t;
      (** its Jacobian, the conductance matrix, over the index's slots *)
  c : Ape_util.Sparse.Real.t option;
      (** the capacitance matrix at the same point, when asked for *)
  scratch : scratch;
}

val with_stamp :
  ?caps:bool -> t -> Ape_circuit.Netlist.t -> float array -> (stamp -> 'a) -> 'a
(** [with_stamp t netlist x k] stamps a candidate netlist at an engine
    state vector through the problem's index ({!Ape_spice.Engine.sparse_residual};
    the candidate must have the base netlist's elements, in order) and
    runs [k] on the stamp.  With [caps] (default false) the same device
    pass also stamps C: the opamp cost reads f and G for the KCL
    penalty and G and C for AWE.  The slot storage is borrowed from
    the problem's pool for [k]'s duration (a new one when every pooled
    one is in use, so concurrent evaluations never share one) and is
    fully overwritten by each stamp: the stamp is a pure function of
    [netlist] and [x].  It is invalid once [k] returns. *)

val kcl_penalty : t -> stamp -> float
(** Voltage-equivalent KCL violation at the relaxed point: mean over
    free nodes of |f_i|/g_ii (G's diagonal slots), normalised to
    50 mV — 0 when Kirchhoff's laws hold, ~1 when nodes are tens of
    millivolts inconsistent. *)

val pade : t -> stamp -> out:Ape_circuit.Netlist.node -> Ape_spice.Awe.approximant
(** The two-pole AWE approximant at [out] from the stamp's G and C
    ({!Ape_spice.Awe.moments} on the scratch's workspace, then
    {!Ape_spice.Awe.of_moments}); the excitation is the base netlist's
    AC sources.  Raises {!Ape_spice.Awe.Moment_failure} as those do,
    and [Invalid_argument] for a stamp taken without [caps]. *)

val node_voltage : t -> float array -> Ape_circuit.Netlist.node -> float
(** Read a node voltage out of an engine state vector. *)

val fake_op : t -> Ape_circuit.Netlist.t -> float array -> Ape_spice.Dc.op
(** A {!Ape_spice.Dc.op} at the relaxed point (not a solved operating
    point!) for AWE/AC evaluation of the candidate.  It pairs the
    candidate with the base netlist's index, so the candidate must keep
    the base's elements in order (a mismatch raises
    {!Ape_spice.Engine.Engine_error} when stamped). *)
