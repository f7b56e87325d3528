(** Declarative job specifications for the batch service.

    A job file is a sequence of S-expression forms, one job each (in
    the spirit of TMLE-CLI's estimand configuration files — a plain
    text declaration of work, versioned alongside the design):

    {v
    ; estimate an opamp, synthesise one, yield-check another
    (job estimate (id e0) (gain 200) (ugf 2meg))
    (job synth    (id s0) (gain 200) (ugf 2meg) (seed 7) (schedule quick))
    (job synth    (id s1) (gain 200) (ugf 2meg) (area 4n)
                  (calibration "c12.calib"))
    (job mc       (id m0) (gain 200) (ugf 2meg) (samples 200))
    (job sim      (id x0) (file "examples/jobs/rc.sp") (out out))
    (job verify   (id v0) (levels device basic) (no-slew))
    v}

    The CLI's [opamp], [synth], [mc] and [sim] commands build the same
    values from their flags and run them through the same
    {!Runner}.

    Numbers take SPICE suffixes ([2meg], [10u], [4.7k]).  Parsing is
    per-form: a malformed job yields an {!error} carrying the precise
    {!Ape_util.Sexpr.span} while the rest of the batch parses normally, so one
    bad line can never take down a batch, let alone the daemon.

    {!print} renders the canonical one-line form; [print → parse →
    print] is a fixpoint (floats print via [Units.to_exact], the PR-2
    exact round-trip representation), which the QCheck suite holds the
    parser to. *)

type opamp_spec = {
  gain : float;  (** required DC gain *)
  ugf : float;  (** required unity-gain frequency, Hz *)
  ibias : float;  (** bias reference current, A (default 1u) *)
  cl : float;  (** load capacitance, F (default 10p) *)
  bias : Ape_estimator.Bias.mirror_topology;
      (** tail-source topology: [(bias simple|wilson|cascode)], default
          simple *)
  zout : float option;  (** output-impedance requirement, Ω *)
  buffer : bool;  (** include an output buffer *)
}

type synth_mode = Wide_mode | Ape_mode
(** [Ape_mode] = APE-centred ±20 % intervals (the default);
    [Wide_mode] = standalone wide intervals. *)

type sched = Quick | Full
(** Annealing budget: {!Ape_synth.Anneal.quick_schedule} or the default
    schedule. *)

type payload =
  | Estimate of opamp_spec
  | Synth of {
      spec : opamp_spec;
      mode : synth_mode;
      seed : int option;  (** explicit RNG seed; default keyed on id *)
      chains : int;  (** independent annealing chains (default 1) *)
      schedule : sched;  (** default [Full] *)
      area : float option;
          (** gate-area budget, m²; default
              {!Ape_synth.Opamp_problem.area_budget} *)
      calibration : string option;
          (** calibration card correcting the in-loop estimates; loaded
              at run time like verify's *)
    }
  | Mc of {
      spec : opamp_spec;
      samples : int;  (** default 200 *)
      level : Ape_mc.Scenario.level;  (** default [Estimate] *)
      sigma_scale : float;  (** default 1.0 *)
      seed : int option;
    }
  | Sim of { file : string; out : string option }
  | Verify of {
      levels : Ape_check.Tolerance.level list;  (** [] = all *)
      slew : bool;  (** default true; [(no-slew)] clears it *)
      calibration : string option;
          (** calibration-card path; loaded at run time, so a missing
              or malformed card fails this job, not the daemon *)
    }

type t = {
  id : string;  (** unique-ish label; defaults to ["job<index>"] *)
  timeout : float option;  (** queue-deadline, seconds *)
  payload : payload;
}

type error = {
  span : Ape_util.Sexpr.span option;  (** location of the offending form/field *)
  msg : string;
  id : string option;  (** the job's id when the form got that far *)
}

val parse_batch : string -> (t, error) result list
(** Parse a whole job file.  Never raises: a structurally broken file
    (unbalanced parenthesis, unterminated string) yields a single
    [Error]; per-form problems (unknown kind, missing or duplicate
    field, bad number) yield one [Error] in that form's position with
    the rest of the batch intact. *)

val print : t -> string
(** Canonical single-line form.  [parse_batch (print j)] yields
    [[Ok j']] with [print j' = print j]. *)

val kind_name : t -> string
(** ["estimate" | "synth" | "mc" | "sim" | "verify"]. *)

val seed_of : t -> int
(** The job's RNG seed: the explicit [(seed N)] when given, otherwise a
    stable FNV-1a hash of the id — so a job's stochastic results depend
    only on its own spec, never on its position in a batch or on batch
    composition. *)

val error_to_string : error -> string
