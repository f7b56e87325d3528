(** Opamp synthesis problems — the Table 1 / Table 4 experiments.

    The formulation follows ASTRX/OBLX (paper §3): the topology is fixed,
    the transistor sizes (W and L of every matched group), the
    compensation capacitor, the bias resistor {e and the circuit's node
    voltages} are annealing unknowns; Kirchhoff's current law enters the
    cost as a penalty ("a cost function from the objectives,
    specifications, constraints and Kirchoff Laws"), and the small-signal
    performance of each candidate is evaluated by AWE at the relaxed bias
    point — exactly OBLX's trick for avoiding an inner DC solve.

    Two interval modes reproduce the paper's two experiments:
    - {!Wide}: no initial knowledge — geometry over the whole process
      range, node voltages anywhere in [0, VDD], random start (Table 1);
    - {!Ape_centered}: sizes within ±pct of the APE values and node
      voltages within ±0.25 V of the APE design's operating point,
      started at the APE point (Table 4, pct = 0.2).

    The final verdict always comes from a true Newton DC solve plus full
    AC measurements on the best candidate — the paper's "results after
    simulating the sized circuits". *)

type row = {
  name : string;
  gain : float;  (** required DC gain *)
  ugf : float;  (** required unity-gain frequency, Hz *)
  area : float;  (** gate-area budget, m² *)
  ibias : float;  (** bias reference current, A *)
  curr_src : Ape_estimator.Bias.mirror_topology;
  buffer : bool;
  zout : float option;
  cl : float;
}

val ape_design : Ape_process.Process.t -> row -> Ape_estimator.Opamp.design
(** The APE front-end pass for this row (UGF designed with a 35 %
    hand-off margin). *)

val area_budget : Ape_process.Process.t -> row -> float
(** The gate-area budget of Tables 1 and 4: 1.3 × the gate area of the
    APE design of [row] sized without an area limit ([row.area] is
    ignored). *)

val strawman_design :
  Ape_process.Process.t -> row -> Ape_estimator.Opamp.design
(** Topology-only starting design for the standalone (Table 1) runs:
    sized for a neutral low-spec point so no requirement-specific APE
    knowledge leaks into the wide search. *)

type mode = Wide | Ape_centered of float

type problem = {
  row : row;
  mode : mode;
  dim : int;  (** sizes/passives + relaxed node voltages *)
  template : Template.t;
      (** the size/passive unknowns: the first [Template.dim] coordinates *)
  cost : float array -> float;
      (** KCL penalty + AWE-evaluated spec penalties at the relaxed
          point *)
  start : Ape_util.Rng.t -> float array;
  final : float array -> Ape_circuit.Netlist.t * Cost.measurement option;
      (** true DC solve + full measurements of a candidate's netlist *)
  values : float array -> (string * float) list;
      (** named size/passive values (for reporting) *)
  cost_model : Cost.t;  (** the specification part, for verdicts *)
  cache : Est_cache.t;
      (** the memo behind [cost] — keyed on the quantized point, so
          re-visited sizings skip the relaxed estimation entirely *)
}

val build :
  ?cache:Est_cache.t ->
  ?calibration:Ape_calib.Card.t ->
  Ape_process.Process.t ->
  mode:mode ->
  row ->
  Ape_estimator.Opamp.design ->
  problem
(** [cost] memoises through [cache] when given, else through a fresh
    {!Est_cache}.  The serve runner keeps one warm cache per problem
    fingerprint so repeated synthesis of the same problem skips
    already-evaluated points.  Sharing is sound because memoised values
    are pure functions of the quantized key (see {!Est_cache}) — callers
    sharing a cache must also share the (or no) calibration card, since
    corrections feed the memoised cost.  [calibration] corrects the
    in-loop gain/UGF estimates (opamp level, region from the row's
    spec); the final verdict is always measured raw. *)

val measure_netlist :
  ?out_dc_target:float ->
  Ape_process.Process.t ->
  row ->
  Ape_circuit.Netlist.t ->
  Cost.measurement option
(** Full-fidelity measurement (Newton DC + AC search): keys [gain],
    [ugf], [area], [power], [vout_center].  [None] on DC
    non-convergence. *)
