(** Shared modified-nodal-analysis machinery: unknown indexing, nonlinear
    residual/Jacobian evaluation and linear C-matrix stamping.  The DC, AC,
    transient and AWE analyses are all thin layers over this module.

    The {!index} resolves every element's terminals and branch unknown
    to integers once; stamps then read element values from the netlist
    and positions from the index, never looking a name up.  Every stamp
    runs one stamping core, the only place the simulator evaluates a
    device: each MOSFET is one {!Ape_device.Mos.evaluate} per stamp,
    the Jacobian entries are its exact partials and the capacitances,
    when the caller asks for them, its region's.

    Every analysis stamps through {!sparse_residual} into
    [Ape_util.Sparse] values over the slots the index recorded: DC,
    AC, transient, noise, AWE and the relaxed synthesis cost.  Newton
    stamps do no capacitance work, and an operating point's f, G and C
    come from one device pass. *)

type index

exception
  Engine_error of { analysis : string; node : string option; detail : string }
(** Typed failure of the MNA machinery itself (as opposed to a
    circuit-level outcome such as {!Dc.No_convergence}): [analysis] names
    the pass that failed ("mna", "ac", "awe", …), [node] the offending
    node or element name when one is identifiable. *)

val build_index : Ape_circuit.Netlist.t -> index
(** Unknown layout: node voltages first (non-ground nodes in sorted
    order), then one branch current per V-source and VCVS.  The index
    also records, in one stamping pass, the sparse pattern (the union
    of the Jacobian and C positions) and the slot of every stamp, which
    every sparse stamp and analysis replays (counted under
    [engine.plans]).  Every stamp below takes a netlist and an index:
    the netlist may differ from the one the index was built from in
    element values only (a relaxed synthesis candidate) — stamp
    positions depend on no value or state, so the recorded slots hold
    for it too.  One whose elements differ in number, name or kind
    raises {!Engine_error} with analysis ["mna"]. *)

val size : index -> int
val n_nodes : index -> int

val node_id : index -> Ape_circuit.Netlist.node -> int option
(** [None] for ground. *)

val branch_id : index -> string -> int option
(** Branch-current unknown of a named V-source/VCVS. *)

val branch_id_exn : index -> analysis:string -> string -> int
(** Like {!branch_id} but raises {!Engine_error} tagged with the calling
    [analysis] when the element has no branch unknown — the hot error
    path of every source stamp. *)

val node_voltage : index -> float array -> Ape_circuit.Netlist.node -> float
(** Read a node voltage out of a solution vector (0 for ground). *)

type stimulus = (string * (float -> float)) list
(** Per-source time waveforms for transient analysis: overrides the DC
    value of the named V/I source. *)

val pattern : index -> Ape_util.Sparse.pattern
(** The index's sparse pattern: every sparse stamp's values must share
    it. *)

val sparse_residual :
  ?gmin:float ->
  ?source_scale:float ->
  ?time:float ->
  ?stimulus:stimulus ->
  ?c:Ape_util.Sparse.Real.t ->
  Ape_circuit.Netlist.t ->
  index ->
  float array ->
  Ape_util.Sparse.Real.t ->
  float array
(** [sparse_residual netlist index x vals] evaluates the KCL/branch
    residual [F(x)] and stamps its Jacobian into [vals] (cleared first;
    must share the index's {!pattern}).  Newton solves [J dx = -F].
    Each slot's value is the sum of its stamps in the core's call
    order, from [0.]: the entry a dense matrix stamped in that order
    would hold.  [gmin] (default 1e-12) is a stabilising conductance
    from every node to ground; [source_scale] (default 1) scales all
    independent sources, for DC source stepping; [time]/[stimulus]
    evaluate time-dependent source values for the transient analysis.
    [c], when given, receives (cleared first) the C stamps of the same
    device pass: the explicit capacitors plus each MOSFET's intrinsic
    and junction capacitances at the region of the one evaluation that
    also gives its current and partials.  C depends on [x] alone, not
    on [gmin], [source_scale], [time] or [stimulus]. *)

type workspace = {
  ws_jac : Ape_util.Sparse.Real.t;
      (** Jacobian values over the index's pattern, restamped per step *)
  mutable ws_fac : Ape_util.Sparse.Real.factor option;
}
(** Newton linear-solve state shared by the DC and transient loops: one
    factor whose pivot order is chosen once and replayed numerically on
    every later step. *)

val workspace : index -> workspace
(** Fresh Jacobian values over the index's pattern and no factor yet. *)

val newton_step : workspace -> float array -> float array option
(** [newton_step ws rhs] solves [J x = rhs] with [J] the values in
    [ws_jac]: a numeric refactorisation over the held pivot order, or a
    fresh pivoting factorisation on the first step and after a replay
    goes unstable.  [None] when [J] is singular. *)

val mosfet_small_signal :
  Ape_circuit.Netlist.t ->
  index ->
  float array ->
  (string * Ape_device.Mos.small_signal) list
(** Per-MOSFET small-signal parameters at the operating point — exposed
    for tests and reporting. *)
