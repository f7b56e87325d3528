(** Ready-made Monte Carlo measurement closures for the opamp workload,
    shared by [ape mc], the bench harness and the tests.

    Two fidelity levels, mirroring the estimate/simulate columns of the
    paper's Table 3:

    - {!Estimate} re-runs the full APE sizing + closed-form estimation
      on each perturbed process — "how robust are APE's estimates and
      design points to inter-die variation" (microseconds per sample;
      the bench throughput workload).
    - {!Simulate} sizes the opamp {e once} on the nominal process, then
      re-measures that fixed design on each perturbed die with the
      MNA/Newton SPICE substitute — true yield of a committed design
      (milliseconds per sample).

    Both append a Pelgrom input-pair offset sample ([offset], V) drawn
    from the input devices' A_VT/√(WL).  Samples where sizing is
    infeasible or DC fails to converge raise, which {!Run.run} records
    as failed dies. *)

type level = Estimate | Simulate

val level_name : level -> string

val opamp :
  ?sigmas:Variation.sigmas ->
  level:level ->
  Ape_process.Process.t ->
  Ape_estimator.Opamp.spec ->
  (Ape_util.Rng.t -> int -> (string * float) list) * Run.check list
(** The measurement closure plus the default spec checks:
    [gain >= spec.av] at both levels, [ugf >= spec.ugf] at the simulate
    level only — at the estimate level APE re-closes the UGF to spec on
    every die by construction, so a UGF check there would measure the
    sizing equations' systematic skew rather than variation.  Metrics:
    [gain] (magnitude), [ugf] (Hz), [power] (W), [area] (m², estimate
    level only), [phase_margin] (deg, estimate level only), [offset]
    (V). *)

