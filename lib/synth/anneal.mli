(** Generic simulated annealing over a box-constrained real vector —
    the optimisation engine of the ASTRX/OBLX substitute (the paper §3:
    "the optimization engine is based on a simulated annealing
    algorithm").

    The state lives in the unit hypercube; problems map it onto their
    parameter ranges.  Moves perturb one coordinate with a
    temperature-scaled Gaussian; the classic Metropolis criterion
    accepts, and a geometric schedule cools. *)

type schedule = {
  t_start : float;  (** initial temperature (cost units) *)
  t_end : float;
  cooling : float;  (** geometric factor per stage, in (0, 1) *)
  moves_per_stage : int;
  max_evaluations : int;  (** hard budget *)
}

val default_schedule : schedule
(** t 1.0 → 1e-4, cooling 0.9, 60 moves/stage, 20 000 evaluations. *)

val quick_schedule : schedule
(** Smaller budget for tests and quick benches. *)

type stats = {
  evaluations : int;  (** summed over chains *)
  accepted : int;
  best_cost : float;
  initial_cost : float;  (** chain 0's starting cost *)
  seconds : float;  (** monotonic-clock wall time *)
  chains : int;
}

val optimize :
  ?schedule:schedule ->
  ?stop_below:float ->
  ?chains:int ->
  ?jobs:int ->
  rng:Ape_util.Rng.t ->
  dim:int ->
  cost:(float array -> float) ->
  start:(Ape_util.Rng.t -> float array) ->
  unit ->
  float array * stats
(** [optimize ~rng ~dim ~cost ~start ()] anneals [chains] (default 1)
    independent Metropolis chains on the same cost and returns the best
    point any of them found, with run statistics.  [cost] must accept
    any point of [[0,1]^dim]; return [infinity] (or large values) for
    unevaluable candidates.  [start] gives a chain its starting point
    from that chain's RNG stream (random-start problems put every chain
    in a different basin; a constant function pins them all to one
    point); the point is clamped into the cube.  [stop_below] ends the
    run as soon as the best cost drops under the threshold (time-to-spec
    measurements).

    Every chain cools by the same schedule.  The chains advance in
    lock-step stages: chains 1.. run on a persistent {!Ape_util.Pool}
    of [min jobs chains - 1] worker domains while the calling domain
    runs chain 0, and the global stop is checked at the stage barrier.
    [max_evaluations] and [stop_below] also hold per chain at move
    granularity.  With [jobs > 1], [cost] must be thread-safe.

    A single chain anneals on [rng] itself ([start rng], then its
    moves), so its trajectory is the classic sequential annealer's draw
    for draw.  Two or more chains each draw from their own
    {!Ape_util.Rng.split_n} stream.

    {b Determinism:} for a fixed [rng] seed, [chains] and schedule, the
    returned point and every stats field except [seconds] are
    bit-identical for any [jobs], provided a shared {!Est_cache} behind
    [cost] memoises only values that are pure functions of the cache
    key.  Raises [Invalid_argument] when [dim < 1], [chains < 1] or
    [start] returns a point of the wrong size. *)
