(** Synthesis driver: runs the annealer on a problem and reports in the
    shape of the paper's Tables 1 and 4. *)

type result = {
  row : Opamp_problem.row;
  mode : Opamp_problem.mode;
  meets_spec : bool;
  works : bool;  (** DC converged and the output is biased *)
  gain : float option;
  ugf : float option;
  area : float;  (** m² *)
  power : float;  (** W *)
  stats : Anneal.stats;
  best_values : (string * float) list;  (** named unknown values *)
  best_netlist : Ape_circuit.Netlist.t;
  comment : string;  (** the paper's "Comments" column *)
  cache_hits : int;  (** estimation-cache hits during the anneal *)
  cache_lookups : int;  (** total cost evaluations requested *)
}

val run :
  ?schedule:Anneal.schedule ->
  ?chains:int ->
  ?jobs:int ->
  ?cache:Est_cache.t ->
  ?calibration:Ape_calib.Card.t ->
  rng:Ape_util.Rng.t ->
  Ape_process.Process.t ->
  mode:Opamp_problem.mode ->
  Opamp_problem.row ->
  result
(** Build the APE design (topology; also the interval centres in
    [Ape_centered] mode), anneal, re-measure the best candidate and
    classify the outcome.  A post-synthesis yield check on the result
    is {!yield_check}'s job.

    [chains] (default 1) independent annealing chains run over a
    persistent domain pool of [jobs] workers (default 1), sharing the
    problem's {!Est_cache}; see {!Anneal.optimize}.  For a fixed seed
    the result is bit-identical for any [jobs].

    [cache] hands the run an externally-owned cache (see
    {!Opamp_problem.build}); [cache_hits]/[cache_lookups] in the result
    are then that cache's {e cumulative} totals, so callers sharing a
    cache across runs should difference them. *)

val yield_check :
  Ape_process.Process.t ->
  Opamp_problem.row ->
  Ape_circuit.Netlist.t ->
  Ape_mc.Run.config ->
  Ape_mc.Run.report
(** Post-synthesis Monte Carlo yield: the sized netlist (a
    {!result}'s [best_netlist]) is re-measured on [config.samples]
    dies perturbed by {!Ape_mc.Variation.default}, against the row's
    gain/UGF spec.  The sizing is frozen; only the model cards move. *)

val comment_of : Opamp_problem.row -> Cost.measurement option -> string
(** "Meets spec", "Gain << Spec", "UGF < spec", "Area >> Spec" or
    "doesn't work.", following the paper's wording. *)
