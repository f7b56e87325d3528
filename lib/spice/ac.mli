(** Small-signal AC analysis.

    Linearises the circuit at a DC operating point — the AC system matrix
    is exactly the DC Newton Jacobian plus jω·C, so the linearisation can
    never disagree with the nonlinear model — and solves the complex MNA
    system at each requested frequency.  AC excitations are the [ac]
    magnitudes declared on the netlist's independent sources.

    {!prepare} stamps the operating point {e once} into sparse G
    (conductance) and C (capacitance) values — one device pass over the
    slots the operating point's index recorded
    ({!Engine.sparse_residual}[ ~c]) — plus the RHS pattern, and
    performs one symbolic LU analysis at ω = 0.  Every later solve only
    assembles [G + jωC] into a reusable workspace and refactors it
    numerically over the frozen pivot order — no netlist traversal, no
    re-stamp, no per-call matrix allocation.  The
    differential suites in [test/] check the solutions against a dense
    re-stamping reference to rounding. *)

type solution = {
  freq : float;  (** Hz *)
  x : Complex.t array;  (** node phasors then branch currents *)
}

type sweep = {
  op : Dc.op;
  points : solution list;  (** ascending frequency *)
}

type prepared
(** One-time preparation of a circuit for repeated AC evaluation. *)

val prepare : Dc.op -> prepared
(** Stamp G and C in one device pass over [op]'s index, stamp the AC
    RHS, and fix the pivot order on the ω = 0 system.  Raises
    [Ape_util.Sparse.Singular] when the DC Jacobian is singular. *)

val op : prepared -> Dc.op
(** The operating point the preparation was built from. *)

val excite : prepared -> Ape_circuit.Netlist.t -> prepared
(** [excite p netlist] re-excites a held preparation: the same G, C and
    pivot order, with the right-hand side stamped from [netlist]'s AC
    source values.  Precondition: [netlist] is [p]'s netlist with only
    AC magnitudes changed, or with added current sources of zero DC
    between existing nodes (a 1 A AC output probe) — so it has the same
    unknowns and the same operating point, and the result equals
    [prepare (Dc.solve netlist)] bit for bit without the DC solve and
    the re-stamp.  Only the right-hand side is stamped from [netlist]:
    the result's {!op} pairs it with [p]'s index, which a netlist with
    an added probe no longer matches for G and C stamps.  The two
    preparations share workspaces: do not use them concurrently. *)

val solve_prepared : prepared -> float -> solution
(** Assemble [G + jωC] in the preparation's workspace and solve.  Reuses
    internal mutable workspaces: do not call concurrently from several
    domains on the same [prepared]. *)

val panel_width : unit -> int
(** Width of the frequency panels blocked solves use (how many
    frequencies one traversal of the symbolic structure refactors and
    solves).  Defaults to 8; width 1 selects the scalar per-frequency
    path.  Purely a throughput setting — results are bit-identical for
    every width. *)

val set_panel_width : int -> unit
(** Override {!panel_width} for this process ([k >= 1]) — the hook the
    width-invariance tests and the blocked-sweep gate of
    [bench/main.exe gate] use. *)

val solve_many : prepared -> float array -> solution array
(** Blocked multi-frequency solve on the preparation's cached
    single-domain workspace: the grid is cut into {!panel_width} panels,
    each refactored and solved by one symbolic traversal
    ([Sparse.Csplit.Panel]); a one-lane remainder and every lane whose
    frozen pivots go bad take {!solve_prepared}'s scalar path.  Every
    point is bit-identical to [solve_prepared p f].  Not safe to call
    concurrently on one [prepared]. *)

val solve_transposed_many :
  prepared -> float array -> Complex.t array -> Complex.t array array
(** [solve_transposed_many p freqs b] solves the adjoint system
    [Aᵀ y = b], [A = G + jωC], at every frequency of [freqs]; element
    [i] is the solution at [freqs.(i)].  One adjoint solve against an
    output selector yields the transfer impedance from every injection
    site at once (reciprocity), as noise analysis uses it.  It walks
    the frequencies exactly as {!solve_many} does — the same panels on
    the same cached workspace, with [Sparse.Csplit.Panel.solve_transposed]
    in place of the forward solve — so every solution is bit-identical
    to a scalar refactor plus [Sparse.Csplit.solve_transposed] at that
    frequency, whatever the panel width; a single frequency takes that
    scalar path alone and builds no workspace.  Panels count under
    [ac.panels]; the lanes do not count as [ac.solve_prepared].  Same
    concurrency rule as {!solve_many}. *)

val voltage_prepared :
  prepared -> solution -> Ape_circuit.Netlist.node -> Complex.t
(** One node's phasor in a solution (0 for ground). *)

val sweep_frequencies :
  ?points_per_decade:int -> fstart:float -> fstop:float -> unit -> float list
(** A logarithmic grid, inclusive of both endpoints (default 10
    points/decade). *)

val sweep_prepared : prepared -> float list -> sweep
(** Solve an explicit frequency list on one preparation: {!solve_many}
    on the preparation's cached workspace, so repeating one creates no
    new workspace (counted under [ac.workspaces]), and every point is
    bit-identical to {!solve_prepared}. *)
