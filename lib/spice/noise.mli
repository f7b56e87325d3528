(** Small-signal noise analysis.

    Each noisy element contributes a current-noise power spectral
    density between two terminals (resistor thermal 4kT/R; MOSFET channel
    thermal 4kT·(2/3)·gm plus 1/f flicker KF·I_D^AF/(C_ox·L_eff²·f)
    referred to the channel); contributions add in power.

    Every routine reads one source table, built once per call: one row
    per noisy element with its terminals resolved to unknowns, its white
    PSD and its flicker numerator and denominator — each MOSFET is
    evaluated once per call, not once per frequency, and only the
    flicker term is evaluated per frequency, with the arithmetic of a
    per-frequency evaluation.

    Transfer impedances come from {e reciprocity}: with [y] solving the
    adjoint system [Aᵀy = e_out], the impedance seen by a 1 A source
    from node [a] to node [b] is [y(b) − y(a)] — one transposed solve
    per frequency covers every source, however many the deck has
    (counted under [noise.adjoint_solves]).  The adjoints go through
    {!Ac.solve_transposed_many}, the panel walker sweeps use: an
    integration solves its frequencies in panels on the preparation's
    cached workspace, bit-identical to one scalar adjoint per frequency
    at any panel width, and a single-frequency routine takes that scalar
    path.  So a noise routine must not run concurrently with another
    solve on the same preparation.  The test suite keeps the
    one-solve-per-source evaluation as an independent reference.

    Input-referred noise divides by the circuit's own signal gain (from
    the netlist's declared AC excitation).

    All routines run on a caller-supplied prepared AC engine
    ({!Ac.prepare}): one stamping serves a whole noise integration plus
    any other measurements on the same operating point. *)

type contribution = {
  element : string;
  psd : float;  (** contribution at the output, V²/Hz *)
}

val noise_sources :
  Dc.op ->
  float ->
  (string * Ape_circuit.Netlist.node * Ape_circuit.Netlist.node * float) list
(** [(element, a, b, psd)] of every noisy element at one frequency, in
    element order: the source table's view at [freq], a current-noise
    PSD (A²/Hz) injected from node [a] to node [b].  Each MOSFET's gm
    and drain current come from one {!Ape_device.Mos.evaluate}.
    Exposed for the bench's solve-count accounting and the test
    suite's per-source reference. *)

val output_noise_prepared :
  out:Ape_circuit.Netlist.node ->
  freq:float ->
  Ac.prepared ->
  float * contribution list
(** Total output noise PSD (V²/Hz) at [freq] and the per-element
    breakdown, sorted descending; the total sums the contributions in
    element order.  The only routine that builds or sorts a
    breakdown. *)

val input_referred_prepared :
  out:Ape_circuit.Netlist.node -> freq:float -> Ac.prepared -> float
(** Input-referred noise density, V/√Hz: output noise voltage density
    ({!output_noise_prepared}'s total, without the breakdown) divided
    by the gain from the netlist's AC excitation to [out].
    Raises [Division_by_zero] when that gain is 0. *)

val integrated_output_prepared :
  out:Ape_circuit.Netlist.node ->
  fstart:float ->
  fstop:float ->
  ?points_per_decade:int ->
  Ac.prepared ->
  float
(** RMS output noise over a band (trapezoidal integration of the PSD on
    a log grid), volts.  One source table and one panel-walked adjoint
    per grid frequency; each PSD sums the contributions in element
    order, so it equals {!output_noise_prepared}'s total at that
    frequency bit for bit. *)
