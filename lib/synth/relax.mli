(** Shared OBLX-style bias relaxation: circuit node voltages as
    optimisation unknowns with Kirchhoff's current law as a penalty.

    The structure (node set, fixed source terminals, MNA indexing) is
    computed once per problem; candidates differ only in element values,
    never in connectivity, so the same index serves every evaluation.
    Free and source-pinned nodes are resolved to their engine unknowns
    in {!create}, so {!x_engine} and {!kcl_penalty} look no name up. *)

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

type stamp = {
  f : float array;  (** KCL/branch residual at the relaxed point *)
  g : Ape_util.Matrix.Rmat.t;
      (** its Jacobian: the conductance matrix AWE factors *)
  c : Ape_util.Matrix.Rmat.t option;
      (** the capacitance matrix at the same point, when asked for *)
}

val stamp : ?caps:bool -> t -> Ape_circuit.Netlist.t -> float array -> stamp
(** One stamp of a candidate netlist at an engine state vector, through
    the problem's index (the candidate must have the base netlist's
    elements, in order).  With [caps] (default false) the same device
    pass also stamps C ({!Ape_spice.Engine.linearize}): the opamp cost
    reads all three, f and G for the KCL penalty and G and C for AWE's
    moments.  Without it no capacitance is computed, for costs that
    read only the penalty. *)

val kcl_penalty : t -> stamp -> float
(** Voltage-equivalent KCL violation at the relaxed point: mean over
    free nodes of |f_i|/g_ii, normalised to 50 mV — 0 when Kirchhoff's
    laws hold, ~1 when nodes are tens of millivolts inconsistent. *)

val node_voltage : t -> float array -> Ape_circuit.Netlist.node -> float
(** Read a node voltage out of an engine state vector. *)

val fake_op : t -> Ape_circuit.Netlist.t -> float array -> Ape_spice.Dc.op
(** A {!Ape_spice.Dc.op} at the relaxed point (not a solved operating
    point!) for AWE/AC evaluation of the candidate.  It pairs the
    candidate with the base netlist's index, so the candidate must keep
    the base's elements in order (a mismatch raises
    {!Ape_spice.Engine.Engine_error} when stamped). *)
