(** System-level specification and architecture estimation — the VASE
    flow of the paper's Figure 1: a behavioural spec is compiled to a
    net-list of library modules, system constraints are transformed onto
    the modules, and APE estimates guide the result.

    Spec language (S-expressions, SPICE-style numbers):
    {v
    (system audio_front_end
      (chain
        (lowpass  (order 4) (fc 1k))
        (amplifier (gain 40) (bandwidth 20k))
        (amplifier (gain 2.5) (bandwidth 20k)))
      (require (total_gain 100) (bandwidth 18k) (area_max 100000u)))
    v}
    Module kinds: [lowpass], [bandpass], [amplifier], [sample_hold],
    [adc], [dac], [integrator], [comparator]. *)

type module_decl = { label : string; spec : Ape_estimator.Module_lib.spec }

type requirements = {
  total_gain : float option;
  bandwidth : float option;
  area_max : float option;
  power_max : float option;
}

type t = {
  name : string;
  chain : module_decl list;
  requirements : requirements;
}

exception Spec_error of { pos : Ape_util.Sexpr.pos; msg : string }
(** A malformed spec, at the position of the offending form: unbalanced
    parentheses, a value that is not a finite number (or, for [order]
    and [bits], an integer), a missing, repeated or unknown field, an
    unknown module kind, a module value outside the range
    {!Ape_estimator.Module_lib.check} accepts. *)

val parse : string -> t
(** Read a spec through {!Ape_util.Sexpr}'s field layer; a chain's
    modules are the only repeatable entries.  Raises {!Spec_error} on
    any malformed input, so {!estimate} never meets a spec its module
    designers reject. *)

type estimated = {
  system : t;
  designs : (string * Ape_estimator.Module_lib.design) list;
  gain_total : float;  (** product of stage gains (absolute values) *)
  bandwidth_min : float;  (** slowest stage bandwidth *)
  area_total : float;
  power_total : float;
  meets : (string * bool) list;
      (** per-requirement verdicts: total_gain, bandwidth, area, power *)
}

val estimate : Ape_process.Process.t -> t -> estimated
(** Run APE over every module of the architecture and check the system
    requirements against the composed estimates. *)

val plan_gain_chain :
  Ape_process.Process.t ->
  total_gain:float ->
  bandwidth:float ->
  stages:int ->
  float list option
(** Constraint transformation for an amplifier cascade: per-stage gain
    allocation (see {!Constraint_map}). *)
