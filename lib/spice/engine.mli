(** Shared modified-nodal-analysis machinery: unknown indexing, nonlinear
    residual/Jacobian evaluation and linear C-matrix stamping.  The DC, AC,
    transient and AWE analyses are all thin layers over this module.

    The {!index} resolves every element's terminals and branch unknown
    to integers once; stamps then read element values from the netlist
    and positions from the index, never looking a name up.  Each
    MOSFET is one {!Ape_device.Mos.evaluate} per stamp: the Jacobian
    entries are its exact partials, the capacitances its region's.

    Stamps come in two forms.  The dense {!residual_jacobian},
    {!stamp_capacitances} and {!linearize} (all three matrices from one
    device pass) serve AWE, the relaxed-KCL penalty and the test
    suite's dense reference.  The DC, AC, transient and noise analyses
    stamp through a sparse {!plan} into [Ape_util.Sparse] values; their
    Newton stamps do no capacitance work. *)

type index

exception
  Engine_error of { analysis : string; node : string option; detail : string }
(** Typed failure of the MNA machinery itself (as opposed to a
    circuit-level outcome such as {!Dc.No_convergence}): [analysis] names
    the pass that failed ("mna", "ac", "awe", …), [node] the offending
    node or element name when one is identifiable. *)

val engine_error : analysis:string -> ?node:string -> string -> 'a
(** Raise {!Engine_error} — shared by the analyses layered on this
    module. *)

val build_index : Ape_circuit.Netlist.t -> index
(** Unknown layout: node voltages first (non-ground nodes in sorted
    order), then one branch current per V-source and VCVS.  Every stamp
    below takes a netlist and an index: the netlist may differ from the
    one the index was built from in element values only (a relaxed
    synthesis candidate).  One whose elements differ in number, name or
    kind raises {!Engine_error} with analysis ["mna"]. *)

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

val residual_jacobian :
  ?gmin:float ->
  ?time:float ->
  ?stimulus:stimulus ->
  Ape_circuit.Netlist.t ->
  index ->
  float array ->
  float array * Ape_util.Matrix.Rmat.t
(** [residual_jacobian netlist index x] evaluates the KCL/branch residual
    [F(x)] and its Jacobian at the point [x].  Newton solves
    [J dx = -F].  [gmin] (default 1e-12) is a stabilising conductance
    from every node to ground; [time]/[stimulus] evaluate
    time-dependent source values for the transient analysis. *)

val stamp_capacitances :
  Ape_circuit.Netlist.t ->
  index ->
  float array ->
  Ape_util.Matrix.Rmat.t
(** The C matrix (susceptance stamps / jω) linearised at the operating
    point [x]: explicit capacitors plus the MOS intrinsic and junction
    capacitances in their bias-dependent values. *)

val linearize :
  Ape_circuit.Netlist.t ->
  index ->
  float array ->
  float array * Ape_util.Matrix.Rmat.t * Ape_util.Matrix.Rmat.t
(** [(f, g, c)] at [x] from one device pass: each MOSFET is evaluated
    once, and its capacitances are taken at that evaluation's region.
    [f] and [g] equal {!residual_jacobian}'s at its default [gmin], and
    [c] equals {!stamp_capacitances}, bit for bit.  The relaxed
    synthesis cost reads all three: the KCL penalty and AWE's
    moments. *)

type plan
(** A precompiled sparse stamp plan: the union sparsity pattern of the
    Jacobian and capacitance stamps plus the slot sequence of every
    [add] call.  Built once per (netlist, index); numeric passes replay
    the deterministic stamp sequence through a cursor over the index's
    resolved unknowns, with no hash or binary-search lookups.  The stamp
    sequence is independent of [x], [gmin], [source_scale], [time] and
    [stimulus], which is what makes the replay valid. *)

val plan : Ape_circuit.Netlist.t -> index -> plan

val plan_pattern : plan -> Ape_util.Sparse.pattern

val sparse_residual :
  ?gmin:float ->
  ?source_scale:float ->
  ?time:float ->
  ?stimulus:stimulus ->
  plan ->
  Ape_circuit.Netlist.t ->
  index ->
  float array ->
  Ape_util.Sparse.Real.t ->
  float array
(** Sparse form of {!residual_jacobian}: stamps the Jacobian into [vals]
    (cleared first; must share the plan's pattern) and returns the
    residual [F(x)].  Each slot value is bitwise equal to the
    corresponding dense matrix entry.  [source_scale] (default 1)
    scales all independent sources, for DC source stepping. *)

val sparse_capacitances :
  plan ->
  Ape_circuit.Netlist.t ->
  index ->
  float array ->
  Ape_util.Sparse.Real.t ->
  unit
(** Sparse form of {!stamp_capacitances}, stamping into [vals] (cleared
    first) over the plan's shared pattern. *)

type workspace = {
  ws_plan : plan;
  ws_jac : Ape_util.Sparse.Real.t;
      (** Jacobian values over the plan's pattern, restamped per step *)
  mutable ws_fac : Ape_util.Sparse.Real.factor option;
}
(** Newton linear-solve state shared by the DC and transient loops: one
    stamp plan and one factor whose pivot order is chosen once and
    replayed numerically on every later step. *)

val workspace : Ape_circuit.Netlist.t -> index -> workspace

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
