(** The differential-verification case catalog: one entry point per
    level of the APE hierarchy, each sizing the level's reference
    designs with the estimator, simulating them with {!Ape_spice}, and
    returning per-attribute {!Diff.row}s under the level's
    {!Tolerance} set.

    The level-2/3/4 catalogs reproduce the circuits of the paper's
    Tables 2, 3 and 5 ([bench/main.ml] prints Tables 2 and 3 from
    {!basic_cases} and {!opamp_cases}); level 1 biases
    individually sized transistors in a one-device testbench and
    compares the closed-form gm/gds/I_DS against the simulation
    model.

    A [calibration] card re-gates the rows through its corrections
    ({!Diff.calibrate}): opamp cases look up their own operating
    region (computed from the spec that produced them), basic/module
    cases use the region-free entries, and level-1 rows are never
    calibrated (the closed forms are the model itself). *)

val opamp_specs : unit -> (string * Ape_estimator.Opamp.spec) list
(** Table 3's four opamps, by name. *)

val basic_cases :
  Ape_process.Process.t ->
  (string * Ape_estimator.Perf.t * Ape_estimator.Perf.t) list
(** Table 2's ten basic circuits, sized by the estimator and simulated:
    (name, estimate, simulation). *)

val opamp_cases :
  ?slew:bool ->
  Ape_process.Process.t ->
  (string * Ape_estimator.Opamp.design * Ape_estimator.Perf.t) list
(** Table 3's opamps ({!opamp_specs}), sized and simulated: (name,
    design, simulation); the design carries the estimate ([perf]).
    [slew] as in {!Ape_estimator.Verify.sim_opamp}. *)

val basic_rows :
  ?calibration:Ape_calib.Card.t -> Ape_process.Process.t -> Diff.row list

val opamp_rows :
  ?slew:bool ->
  ?calibration:Ape_calib.Card.t ->
  Ape_process.Process.t ->
  Diff.row list
(** [slew] (default true) also runs the unity-feedback transient step;
    with [~slew:false] the slew gate is dropped entirely. *)

val module_est_metrics :
  Ape_estimator.Module_lib.design -> (string * float) list
(** A Table 5 module design's estimated attributes by name ([gain],
    [bandwidth], [area], [power], plus [f3db]/[f20db] for low-pass,
    [f0] for band-pass and [delay] for the ADC's delay and the S&H's
    response time); absent estimates are left out. *)

val module_sim_metrics :
  Ape_estimator.Verify.module_sim -> (string * float) list
(** The same attributes measured on the simulated module. *)

val module_rows :
  ?calibration:Ape_calib.Card.t -> Ape_process.Process.t -> Diff.row list

val rows_for :
  ?slew:bool ->
  ?calibration:Ape_calib.Card.t ->
  Ape_process.Process.t ->
  Tolerance.level ->
  Diff.row list
