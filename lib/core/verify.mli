(** Simulation-based verification of estimator designs — the "sim"
    columns of the paper's Tables 2, 3 and 5.

    Each [sim_*] function elaborates the design's netlist fragment,
    wraps it in the appropriate testbench (supply, input drive, load),
    solves it with {!Ape_spice} and returns a {!Perf.t} of {e measured}
    values, directly comparable with the design's estimated [perf].

    High-gain stages whose output level is sensitive to the input DC are
    biased by {!servo} (Brent iteration on the input source), the
    programmatic equivalent of SPICE [.NODESET] fiddling.  Each bench
    holds one operating point: common-mode gain and output impedance
    re-excite its AC preparation ({!Ape_spice.Ac.excite}) instead of
    solving DC again, and a transient whose answer is a first crossing
    (slew rate, comparator delay) stops at that crossing
    ({!Ape_spice.Transient.run}'s [until]).

    Each public bench runs under an [Ape_obs] span ["estimator.sim"]
    with children ["servo"], ["ac"], ["slew"] and, for {!sim_module},
    one per module kind. *)

exception Verification_failed of string

val set_source :
  ?dc:float ->
  ?ac:float ->
  name:string ->
  Ape_circuit.Netlist.t ->
  Ape_circuit.Netlist.t
(** Functional update of one named V/I source's DC and/or AC value;
    raises [Not_found] if absent. *)

val servo :
  tol:float ->
  out:Ape_circuit.Netlist.node ->
  target:float ->
  lo:float ->
  hi:float ->
  (float -> Ape_circuit.Netlist.t) ->
  float * Ape_circuit.Netlist.t * Ape_spice.Dc.op
(** [servo ~tol ~out ~target ~lo ~hi bench] runs Brent's method
    ([tol] as in {!Ape_util.Rootfind.brent}) on the knob [k] of
    [bench k] until [V(out)] lands on [target], and returns the knob
    value with the netlist and operating point at it — the solve Brent
    already made there, not a new one.  Raises
    [Ape_util.Rootfind.No_bracket] when [[lo, hi]] does not straddle the
    target, and [Ape_spice.Dc.No_convergence] from a failed probe.

    [bench] may vary element values only: every probe solves on the
    index of the first ({!Ape_spice.Dc.solve}'s [index]), so each
    [bench k] must have the same elements, in the same order and on the
    same terminals. *)

(** {1 Level-2 component verification} *)

val sim_dc_volt :
  Ape_process.Process.t -> Bias.Dc_volt.design -> Perf.t

val sim_mirror :
  Ape_process.Process.t -> Bias.Current_mirror.design -> Perf.t

val sim_gain_stage :
  Ape_process.Process.t -> Gain_stage.design -> Perf.t

val sim_diff_pair :
  Ape_process.Process.t -> Diff_pair.design -> Perf.t
(** Includes the measured input-referred noise density at 1 kHz (MNA
    noise analysis) in the [noise] field. *)

val monte_carlo_offset :
  ?seed:int -> Ape_process.Process.t -> Diff_pair.design -> float
(** Monte-Carlo mismatch: every MOSFET's threshold is perturbed by a
    Pelgrom-distributed sample (σ = A_VT/√(WL)) and the input-referred
    offset of each sample circuit is measured by a servo; returns the
    sample standard deviation (V) over 25 samples. *)

(** {1 Level-3 opamp verification} *)

val opamp_testbench :
  Ape_process.Process.t -> cl:float -> Opamp.design -> Ape_circuit.Netlist.t
(** The differential opamp testbench: the design's fragment, the VDD
    supply, [VINP]/[VINN] driving [inp]/[inn] at the design's input
    common mode with AC ±0.5, and load [CL] = [cl] on [out].  The one
    bench {!sim_opamp}, the synthesis cost and the simulate-level Monte
    Carlo measure. *)

val sim_opamp :
  ?slew:bool -> Ape_process.Process.t -> Opamp.design -> Perf.t
(** Open-loop AC testbench (differential drive, servoed offset) for
    gain/UGF/CMRR/Z_out/power/area, plus — when [slew] is true
    (default) — a unity-feedback transient step for the slew rate. *)

(** {1 Level-4 module verification} *)

type module_sim = {
  perf : Perf.t;
  response_time : float option;
      (** S&H acquisition / comparator & ADC delay / DAC settling, s *)
  f0 : float option;  (** band-pass centre frequency, Hz *)
  f_20db : float option;  (** low-pass −20 dB frequency, Hz *)
  dc_code_error : float option;
      (** ADC: worst trip-point error in LSB; DAC: output error in LSB *)
}

val sim_module :
  Ape_process.Process.t -> Module_lib.design -> module_sim
(** Dispatches to the appropriate testbench:
    - audio amp → open-loop AC (gain, −3 dB bandwidth, power, area);
    - closed-loop amps / integrator → AC around the DC feedback point;
    - filters → AC sweep (gain, −3 dB/−20 dB edges or f₀/BW);
    - S&H → track-mode AC + step transient (acquisition to 1 %);
    - comparator → step-overdrive transient (delay);
    - flash ADC → DC power/area + mid-code trip-point check + the
      comparator's transient delay;
    - DAC → mid-code static accuracy + MSB-step settling transient. *)
