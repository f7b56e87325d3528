type schedule = {
  t_start : float;
  t_end : float;
  cooling : float;
  moves_per_stage : int;
  max_evaluations : int;
}

let default_schedule =
  {
    t_start = 1.0;
    t_end = 1e-4;
    cooling = 0.9;
    moves_per_stage = 60;
    max_evaluations = 20_000;
  }

let quick_schedule =
  {
    t_start = 1.0;
    t_end = 1e-3;
    cooling = 0.85;
    moves_per_stage = 25;
    max_evaluations = 2_500;
  }

type stats = {
  evaluations : int;
  accepted : int;
  best_cost : float;
  initial_cost : float;
  seconds : float;
  chains : int;
}

let clamp01 x = Ape_util.Float_ext.clamp ~lo:0. ~hi:1. x

(* Move amplitude tracks temperature: wide exploration early, local
   polishing late. *)
let sigma_of_temp schedule t = 0.02 +. (0.3 *. (t /. schedule.t_start))

let c_evals = Ape_obs.counter "anneal.evaluations"
let c_accepts = Ape_obs.counter "anneal.accepts"
let c_rejects = Ape_obs.counter "anneal.rejects"
let c_improvements = Ape_obs.counter "anneal.best_improvements"
let c_stages = Ape_obs.counter "anneal.stages"
let g_temperature = Ape_obs.gauge "anneal.temperature"

(* One chain: the full Metropolis state plus its RNG stream.  Everything
   a chain touches during a stage is either in this record, the shared
   read-only schedule, or the (thread-safe) cost closure, so a stage is
   a pure function of the chain's pre-stage state — which domain runs
   it cannot matter. *)
type chain = {
  ch_rng : Ape_util.Rng.t;
  ch_x : float array;
  mutable ch_current : float;
  ch_best : float array;
  mutable ch_best_cost : float;
  mutable ch_accepted : int;
  mutable ch_evals : int;
}

let chain_eval ch cost p =
  ch.ch_evals <- ch.ch_evals + 1;
  Ape_obs.incr c_evals;
  let c = cost p in
  if Float.is_nan c then infinity else c

let init_chain ~dim ~cost ~start rng =
  let x = Array.map clamp01 (start rng) in
  if Array.length x <> dim then invalid_arg "Anneal.optimize: start size";
  let ch =
    {
      ch_rng = rng;
      ch_x = x;
      ch_current = infinity;
      ch_best = Array.copy x;
      ch_best_cost = infinity;
      ch_accepted = 0;
      ch_evals = 0;
    }
  in
  ch.ch_current <- chain_eval ch cost x;
  ch.ch_best_cost <- ch.ch_current;
  ch

(* One cooling stage of one chain: perturb a coordinate with a
   temperature-scaled Gaussian, accept by the Metropolis criterion. *)
let run_stage schedule ~stop_below ~dim ~cost ~temp ch =
  let sigma = sigma_of_temp schedule temp in
  for _ = 1 to schedule.moves_per_stage do
    if ch.ch_evals < schedule.max_evaluations && ch.ch_best_cost >= stop_below
    then begin
      let coord = Ape_util.Rng.int ch.ch_rng dim in
      let old_value = ch.ch_x.(coord) in
      ch.ch_x.(coord) <-
        clamp01 (Ape_util.Rng.gauss ch.ch_rng ~mean:old_value ~sigma);
      let candidate = chain_eval ch cost ch.ch_x in
      let delta = candidate -. ch.ch_current in
      let accept =
        delta <= 0.
        || Ape_util.Rng.uniform ch.ch_rng 0. 1. < Float.exp (-.delta /. temp)
      in
      if accept then begin
        ch.ch_current <- candidate;
        ch.ch_accepted <- ch.ch_accepted + 1;
        Ape_obs.incr c_accepts;
        if candidate < ch.ch_best_cost then begin
          ch.ch_best_cost <- candidate;
          Ape_obs.incr c_improvements;
          Array.blit ch.ch_x 0 ch.ch_best 0 dim
        end
      end
      else begin
        Ape_obs.incr c_rejects;
        ch.ch_x.(coord) <- old_value
      end
    end
  done

let optimize ?(schedule = default_schedule) ?(stop_below = neg_infinity)
    ?(chains = 1) ?(jobs = 1) ~rng ~dim ~cost ~start () =
  if dim <= 0 then invalid_arg "Anneal.optimize: dim <= 0";
  if chains < 1 then invalid_arg "Anneal.optimize: chains < 1";
  let start_time = Ape_util.Clock.now_s () in
  (* A lone chain anneals on the caller's stream itself.  Several chains
     get one independent stream each, so a chain's trajectory depends
     only on its own stream and state and the execution interleaving
     (hence [jobs]) cannot reach the arithmetic. *)
  let streams =
    if chains = 1 then [| rng |] else Ape_util.Rng.split_n rng chains
  in
  let chs = Array.map (init_chain ~dim ~cost ~start) streams in
  let initial_cost = chs.(0).ch_current in
  let best_cost () =
    Array.fold_left (fun acc ch -> Float.min acc ch.ch_best_cost) infinity chs
  in
  let budget_left () =
    Array.exists (fun ch -> ch.ch_evals < schedule.max_evaluations) chs
  in
  let temp = ref schedule.t_start in
  Ape_util.Pool.with_pool ~workers:(Int.min jobs chains - 1) (fun pool ->
      while
        !temp > schedule.t_end && budget_left () && best_cost () >= stop_below
      do
        let temp_now = !temp in
        let stage ch () =
          run_stage schedule ~stop_below ~dim ~cost ~temp:temp_now ch
        in
        (* Chains 1.. go to the pool; the calling domain anneals chain 0,
           then joins.  Stop decisions happen only here, at the stage
           barrier, from chain-local state. *)
        let tasks =
          Array.init (chains - 1) (fun j ->
              Ape_util.Pool.submit pool (stage chs.(j + 1)))
        in
        stage chs.(0) ();
        Array.iter Ape_util.Pool.await tasks;
        (* Temperature trace: the gauge holds the last completed stage's
           temperature; the stage counter gives the trace length. *)
        Ape_obs.incr c_stages;
        Ape_obs.set g_temperature temp_now;
        temp := temp_now *. schedule.cooling
      done);
  let winner =
    Array.fold_left
      (fun acc ch -> if ch.ch_best_cost < acc.ch_best_cost then ch else acc)
      chs.(0) chs
  in
  ( Array.copy winner.ch_best,
    {
      evaluations = Array.fold_left (fun a ch -> a + ch.ch_evals) 0 chs;
      accepted = Array.fold_left (fun a ch -> a + ch.ch_accepted) 0 chs;
      best_cost = winner.ch_best_cost;
      initial_cost;
      seconds = Ape_util.Clock.elapsed_s start_time;
      chains;
    } )
