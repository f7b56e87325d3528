(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json lists the same names, units, directions and bounds;
   the test suite holds the two to each other. *)

type def = {
  name : string;
  unit : string;
  better : Stats.better;
  bound : float option;  (** end-to-end metrics only *)
  floor : float;  (** a change smaller than this, in [unit], never counts *)
}

let e ?(floor = 0.) name unit better bound = { name; unit; better; bound = Some bound; floor }
let l name unit better = { name; unit; better; bound = None; floor = 0. }

(* [compare]'s bound on [d] as a share of a base median [base]. *)
let bound_at d ~base =
  let b = Option.get d.bound in
  if d.floor > 0. then Float.max b (d.floor /. Float.abs base) else b

let end_to_end =
  Stats.
    [
      (* Sim's and serve's set-ups take 25 to 40 ms: on a shared machine
         one run's median moves by a third against another's. *)
      e ~floor:0.05 "setup_s" "s" Lower 0.25;
      e "ops_per_s" "op/s" Higher 0.25;
      e "op_p50_ms" "ms" Lower 0.25;
      e "op_tail_ms" "ms" Lower 0.25;
      e "peak_rss_mb" "MiB" Lower 0.15;
    ]

(* Span self times per op, keyed by span name (harness spans and the
   program's own Ape_obs spans, see [Trace]). *)
let span_metrics =
  [
    ("synth.driver", "synth.driver.ms");
    ("synth.seed_design", "synth.seed_design.ms");
    ("synth.build", "synth.build.ms");
    ("synth.anneal", "synth.anneal.ms");
    ("synth.final_measure", "synth.final_measure.ms");
    ("estimator.design", "estimator.design.ms");
    ("estimator.sim", "estimator.sim.ms");
    ("circuit.parse", "circuit.parse.ms");
    ("spice.dc", "spice.dc.ms");
    ("spice.ac_prepare", "spice.ac_prepare.ms");
    ("spice.ac_sweep", "spice.ac_sweep.ms");
    ("spice.measure", "spice.measure.ms");
    ("spice.noise", "spice.noise.ms");
    ("mc.run", "mc.run.ms");
    ("serve.parse_batch", "serve.parse_batch.ms");
    ("serve.run_batch", "serve.run_batch.ms");
    ("bench.op", "bench.op.ms");
  ]

(* Ape_obs counters reported per op (per job for serve). *)
let counter_metrics =
  [
    ("anneal.evaluations", "synth.anneal.evaluations");
    ("est_cache.misses", "synth.est_cache.misses");
    ("est_cache.evictions", "synth.est_cache.evictions");
    ("dc.solves", "spice.dc.solves");
    ("dc.newton_iters", "spice.dc.newton_iters");
    ("dc.no_convergence", "spice.dc.no_convergence");
    ("ac.prepare", "spice.ac.prepare");
    ("ac.sweep_points", "spice.ac.sweep_points");
    ("ac.panels", "spice.ac.panels");
    ("ac.workspaces", "spice.ac.workspaces");
    ("ac.solve_prepared", "spice.ac.solve_prepared");
    ("sweep.warm_hits", "spice.sweep.warm_hits");
    ("sweep.warm_fallbacks", "spice.sweep.warm_fallbacks");
    ("noise.adjoint_solves", "spice.noise.adjoint_solves");
    ("transient.steps", "spice.transient.steps");
    ("transient.step_cuts", "spice.transient.step_cuts");
    ("transient.newton_iters", "spice.transient.newton_iters");
    ("matrix.lu_factor", "util.matrix.lu_factor");
    ("matrix.csplit_factor", "util.matrix.csplit_factor");
    ("sparse.symbolic", "util.sparse.symbolic");
    ("sparse.refactor", "util.sparse.refactor");
    ("sparse.panel_refactor", "util.sparse.panel_refactor");
    ("pool.tasks", "util.pool.tasks");
    ("mc.samples", "mc.samples");
    ("mc.sample_failures", "mc.sample_failures");
  ]

(* Ratios of counters: (metric, better, numerator, denominator terms). *)
let ratio_metrics =
  Stats.
    [
      ("synth.anneal.accept_frac", Higher, "anneal.accepts", [ "anneal.evaluations" ]);
      ( "synth.anneal.exchange_accept_frac",
        Higher,
        "anneal.exchange_accepts",
        [ "anneal.exchange_attempts" ] );
      ( "synth.est_cache.hit_frac",
        Higher,
        "est_cache.hits",
        [ "est_cache.hits"; "est_cache.misses" ] );
      ("util.sparse.unstable_frac", Lower, "sparse.refactor_unstable", [ "sparse.refactor" ]);
    ]

let per_layer =
  Stats.(
    List.map (fun (_, m) -> l m "ms/op" Lower) span_metrics
    @ [
        l "check.catalog.s" "s" Lower;
        l "obs.coverage_frac" "ratio" Higher;
        l "obs.trace_overhead_frac" "ratio" Lower;
        l "synth.anneal.evals_per_s" "1/s" Higher;
      ]
    @ List.map (fun (m, better, _, _) -> l m "ratio" better) ratio_metrics
    @ List.map (fun (_, m) -> l m "1/op" Lower) counter_metrics
    @ [
        l "util.pool.domain_spawns" "count" Lower;
        l "synth.spec_met_frac" "ratio" Higher;
        l "synth.cost_p50" "cost" Lower;
        l "estimator.infeasible_frac" "ratio" Lower;
        l "estimator.err_p50" "ratio" Lower;
        l "estimator.err_p90" "ratio" Lower;
        l "serve.job_run_ms.p50" "ms" Lower;
        l "serve.job_run_ms.p90" "ms" Lower;
        l "serve.job_wait_ms.p50" "ms" Lower;
        l "serve.job_wait_ms.p90" "ms" Lower;
        l "serve.cache_hit_frac" "ratio" Higher;
      ]
    @ List.map
        (fun k -> l (Printf.sprintf "serve.kind.%s.run_ms" k) "ms" Lower)
        [ "estimate"; "synth"; "mc"; "sim"; "verify" ])

let find name =
  List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)

let better_name = function Stats.Lower -> "lower" | Stats.Higher -> "higher"
