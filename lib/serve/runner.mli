(** Executes one parsed {!Job.t}: the one place every job kind runs,
    for [ape serve] and for the CLI's [opamp], [synth], [mc] and [sim].
    {!execute} returns the library's own result, {!run} serve's record
    payload; the CLI prints its text from the former.

    A runner owns the process corner and the registry of warm estimate
    caches.

    {b Cache sharing.}  [Est_cache] keys on the quantized sizing vector
    alone, so a cache is only sound between runs of the {e same}
    synthesis problem.  The registry keeps one cache per problem
    {e fingerprint}: the spec fields, the interval mode, the area
    budget and the calibration card's contents.  Two synth jobs share
    warmth exactly when their cost functions are provably identical,
    and since cached values are pure functions of the quantized key
    (see {!Ape_synth.Est_cache}), sharing changes speed, not results.

    {b Determinism.}  Every stochastic job seeds its own RNG from
    {!Job.seed_of}.  Serve runs each job with [jobs = 1] and puts its
    parallelism in the {!Scheduler}; the CLI's [--jobs] reaches
    {!execute} as [~jobs], the worker count of annealing chains and
    Monte Carlo samples.  Results are bit-identical for every value, so
    a job's result is a pure function of its spec. *)

type t

val create : Ape_process.Process.t -> t

type failure_class =
  | Engine
      (** engine error, no convergence, transient step failure,
          singular system, infeasible sizing, a deck with parse
          errors: the CLI exits 1 *)
  | Input  (** unreadable or malformed input file: exit 3 *)

val failure : exn -> (failure_class * string) option
(** The one table of expected failures: the class and message of each
    engine or input exception — a [Failed] record's text and the CLI's
    stdout.  A deck's message is every error diagnostic,
    caret-rendered.  [None] for any other exception. *)

type ac = {
  node : string;
  dc_gain : float;
  f_minus_3db : float option;
  ugf : float option;
  phase_margin : float option;
  in_noise : float option;  (** V/√Hz at 1 kHz; [None] at zero gain *)
}
(** A sim job's measurements at [(out NODE)], from one AC preparation. *)

type outcome =
  | Estimated of Ape_estimator.Opamp.design
  | Synthesized of Ape_synth.Driver.result
  | Sampled of Ape_mc.Run.report
  | Simulated of { file : string; op : Ape_spice.Dc.op; ac : ac option }
  | Verified of Ape_check.Check.outcome

val execute : ?jobs:int -> t -> Job.t -> outcome
(** Run the job ([jobs] default 1).  Raises what the libraries raise. *)

val run : t -> Job.t -> Record.status * (string * Record.json) list
(** {!execute} as a record payload.  An exception {!failure} knows is
    [Failed] with an empty payload; a job that runs but misses its own
    criterion (synth spec, MC yield, verify tolerance) is [Unmet].
    Other exceptions propagate (the {!Scheduler} records them). *)

val cache_stats : t -> int * int
(** [(lookups, hits)] summed over every registered cache — cumulative
    across batches; callers difference them per batch. *)
