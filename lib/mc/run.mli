(** Monte Carlo orchestration: sample → measure → classify → aggregate.

    [run config ~measure ~checks] evaluates [measure stream_i i] for
    each sample index, in parallel over {!Pool}, where [stream_i] is the
    sample's private RNG stream ({!Ape_util.Rng.split_n} keyed by
    index).  A sample is therefore a pure function of [(config.seed, i)]
    and the whole report is bit-identical for every [config.jobs] value
    — the determinism test in [test/test_mc.ml] holds the subsystem to
    exactly that.

    [measure] returns named metric values (e.g. [("gain", 212.4)]).  An
    exception inside [measure] marks that sample failed (a die that
    "doesn't work": DC non-convergence, infeasible sizing, ...); failed
    samples stay in the yield denominator but contribute to no metric
    distribution. *)

type check = { metric : string; lower : float option; upper : float option }
(** A spec-compliance predicate on one metric.  A sample passes the
    check when the metric is present and within bounds; a sample passes
    {e the spec} when it passes every check. *)

val at_least : string -> float -> check
val at_most : string -> float -> check
val pp_check : Format.formatter -> check -> unit

type config = {
  samples : int;  (** number of Monte Carlo samples, > 0 *)
  jobs : int;  (** worker domains; <= 1 runs sequentially *)
  seed : int;  (** master seed; same seed → same report, any [jobs] *)
}

type extreme = { sample : int; value : float }

type metric_summary = {
  m_name : string;
  m_stats : Stats.t;
  m_min : extreme;  (** worst-case low sample — which die, what value *)
  m_max : extreme;  (** worst-case high sample *)
}

type report = {
  config : config;
  failures : int;  (** samples whose measurement raised *)
  failure_example : (int * string) option;
      (** first failing sample index and its exception text *)
  metrics : metric_summary list;  (** in order of first appearance *)
  check_pass : (check * int) list;  (** per-check pass counts *)
  pass : int;  (** samples passing every check *)
  yield : float;  (** [pass / samples] *)
  seconds : float;  (** wall-clock of the whole run *)
}

val metric : report -> string -> metric_summary option

val run :
  ?checks:check list ->
  config ->
  measure:(Ape_util.Rng.t -> int -> (string * float) list) ->
  report
