module E = Ape_estimator
module S = Ape_synth
module Mc = Ape_mc
module R = Record

type t = {
  proc : Ape_process.Process.t;
  quantum : float option;
  capacity : int;
  lock : Mutex.t;
  caches : (string, S.Est_cache.t) Hashtbl.t;
}

let create ?cache_quantum ?(cache_capacity = 8192) proc =
  {
    proc;
    quantum = cache_quantum;
    capacity = cache_capacity;
    lock = Mutex.create ();
    caches = Hashtbl.create 16;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let cache_for t fingerprint =
  with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.caches fingerprint with
      | Some c -> c
      | None ->
        let c =
          S.Est_cache.create ?quantum:t.quantum ~capacity:t.capacity ()
        in
        Hashtbl.add t.caches fingerprint c;
        c)

let cache_stats t =
  with_lock t.lock (fun () ->
      Hashtbl.fold
        (fun _ c (lookups, hits) ->
          (lookups + S.Est_cache.lookups c, hits + S.Est_cache.hits c))
        t.caches (0, 0))

let cache_count t = with_lock t.lock (fun () -> Hashtbl.length t.caches)

let bias_of = function
  | Job.Simple -> E.Bias.Simple
  | Job.Wilson -> E.Bias.Wilson
  | Job.Cascode -> E.Bias.Cascode

let estimator_spec (s : Job.opamp_spec) =
  E.Opamp.spec ~buffer:s.buffer ?zout:s.zout ~bias_topology:(bias_of s.bias)
    ~cl:s.cl ~av:s.gain ~ugf:s.ugf ~ibias:s.ibias ()

(* The cost function of a synthesis run is fully determined by these
   fields; two jobs agreeing on all of them may share a warm cache. *)
let synth_fingerprint (s : Job.opamp_spec) mode =
  let num = Ape_util.Units.to_exact in
  Printf.sprintf "%s|%s|%s|%s|%s|%s|%b|%s" (num s.gain) (num s.ugf)
    (num s.ibias) (num s.cl)
    (match s.bias with
    | Job.Simple -> "simple"
    | Job.Wilson -> "wilson"
    | Job.Cascode -> "cascode")
    (match s.zout with Some z -> num z | None -> "-")
    s.buffer
    (match mode with Job.Ape_mode -> "ape" | Job.Wide_mode -> "wide")

let run_estimate t (spec : Job.opamp_spec) =
  let d = E.Opamp.design t.proc (estimator_spec spec) in
  let p = d.E.Opamp.perf in
  ( R.Done,
    [ ("topology", R.Str (E.Opamp.describe d));
      ("gain", R.float_opt p.E.Perf.gain);
      ("ugf", R.float_opt p.E.Perf.ugf);
      ("gate_area", R.Float p.E.Perf.gate_area);
      ("power", R.Float p.E.Perf.dc_power);
      ("phase_margin", R.float_opt p.E.Perf.phase_margin);
    ] )

let run_synth t (job : Job.t) (spec : Job.opamp_spec) mode chains schedule =
  let proto =
    {
      S.Opamp_problem.name = job.Job.id;
      gain = spec.gain;
      ugf = spec.ugf;
      area = 1.;
      ibias = spec.ibias;
      curr_src = bias_of spec.bias;
      buffer = spec.buffer;
      zout = spec.zout;
      cl = spec.cl;
    }
  in
  let ape = S.Opamp_problem.ape_design t.proc proto in
  let row =
    { proto with
      S.Opamp_problem.area = 1.3 *. ape.E.Opamp.perf.E.Perf.gate_area
    }
  in
  let fingerprint = synth_fingerprint spec mode in
  let mode =
    match mode with
    | Job.Ape_mode -> S.Opamp_problem.Ape_centered 0.2
    | Job.Wide_mode -> S.Opamp_problem.Wide
  in
  let schedule =
    match schedule with
    | Job.Quick -> S.Anneal.quick_schedule
    | Job.Full -> S.Anneal.default_schedule
  in
  let cache = cache_for t fingerprint in
  let rng = Ape_util.Rng.create (Job.seed_of job) in
  let r =
    S.Driver.run ~schedule ~chains ~jobs:1 ~cache ~rng t.proc ~mode row
  in
  ( (if r.S.Driver.meets_spec then R.Done else R.Unmet),
    [ ("comment", R.Str r.S.Driver.comment);
      ("meets_spec", R.Bool r.S.Driver.meets_spec);
      ("works", R.Bool r.S.Driver.works);
      ("gain", R.float_opt r.S.Driver.gain);
      ("ugf", R.float_opt r.S.Driver.ugf);
      ("area", R.Float r.S.Driver.area);
      ("power", R.Float r.S.Driver.power);
      ("evaluations", R.Int r.S.Driver.stats.S.Anneal.evaluations);
    ] )

let run_mc t job (spec : Job.opamp_spec) samples level sigma_scale =
  let level =
    match level with
    | Job.Mc_estimate -> Mc.Scenario.Estimate
    | Job.Mc_simulate -> Mc.Scenario.Simulate
  in
  let sigmas = Mc.Variation.scale sigma_scale Mc.Variation.default in
  let measure, checks =
    Mc.Scenario.opamp ~sigmas ~level t.proc (estimator_spec spec)
  in
  let report =
    Mc.Run.run ~checks
      { Mc.Run.samples; jobs = 1; seed = Job.seed_of job }
      ~measure
  in
  let metrics =
    List.map
      (fun m ->
        ( m.Mc.Run.m_name,
          R.Obj
            [ ("mean", R.Float (Mc.Stats.mean m.Mc.Run.m_stats));
              ("std", R.Float (Mc.Stats.std m.Mc.Run.m_stats));
            ] ))
      report.Mc.Run.metrics
  in
  ( (if report.Mc.Run.yield >= 1.0 then R.Done else R.Unmet),
    [ ("samples", R.Int samples);
      ("pass", R.Int report.Mc.Run.pass);
      ("failures", R.Int report.Mc.Run.failures);
      ("yield", R.Float report.Mc.Run.yield);
      ("metrics", R.Obj metrics);
    ] )

let sim_measurements op = function
  | None -> []
  | Some node ->
    let prep = Ape_spice.Ac.prepare op in
    let module M = Ape_spice.Measure.Prepared in
    [ ("out", R.Str node);
      ("v_out", R.Float (Ape_spice.Dc.voltage op node));
      ("dc_gain", R.Float (M.dc_gain ~out:node prep));
      ("f_minus_3db", R.float_opt (M.f_minus_3db ~out:node prep));
      ("ugf", R.float_opt (M.unity_gain_frequency ~out:node prep));
      ("phase_margin", R.float_opt (M.phase_margin ~out:node prep));
      (* Adjoint noise rides on the same preparation; a gain of zero
         (no AC excitation reaching [node]) reports null. *)
      ( "in_noise",
        R.float_opt
          (match
             Ape_spice.Noise.input_referred_prepared ~out:node ~freq:1e3 prep
           with
          | v -> Some v
          | exception Division_by_zero -> None) );
    ]

(* [~path] anchors [.INCLUDE]s at the deck's own directory; a deck with
   errors fails with every error diagnostic, caret-rendered. *)
let run_sim t file out =
  let module Sp = Ape_circuit.Spice_parser in
  let text = In_channel.with_open_text file In_channel.input_all in
  let parsed = Sp.parse_result ~process:t.proc ~path:file ~title:file text in
  let file_field = ("file", R.Str file) in
  match Sp.errors parsed with
  | [] ->
    let op = Ape_spice.Dc.solve parsed.Sp.netlist in
    (R.Done, file_field :: sim_measurements op out)
  | errors ->
    (R.Failed (String.concat "" (List.map Sp.render errors)), [ file_field ])

let run_verify t levels slew calibration =
  let module C = Ape_check in
  let levels =
    match levels with
    | [] -> C.Tolerance.all_levels
    | names ->
      List.filter_map C.Tolerance.level_of_name names
  in
  (* Card problems (missing file, parse error) surface as this job's
     failure record via the catch-list below — the daemon survives. *)
  let calibration = Option.map Ape_calib.Card.load calibration in
  let outcome = C.Check.run ~slew ?calibration ~levels t.proc in
  let rows =
    List.fold_left
      (fun acc lr -> acc + List.length lr.C.Check.rows)
      0 outcome.C.Check.results
  in
  let failures = List.length (C.Check.failures outcome) in
  ( (if C.Check.ok outcome then R.Done else R.Unmet),
    [ ("rows", R.Int rows); ("failures", R.Int failures) ] )

let run t job =
  try
    match job.Job.payload with
    | Job.Estimate spec -> run_estimate t spec
    | Job.Synth { spec; mode; seed = _; chains; schedule } ->
      run_synth t job spec mode chains schedule
    | Job.Mc { spec; samples; level; sigma_scale; seed = _ } ->
      run_mc t job spec samples level sigma_scale
    | Job.Sim { file; out } -> run_sim t file out
    | Job.Verify { levels; slew; calibration } ->
      run_verify t levels slew calibration
  with
  | E.Opamp.Infeasible msg -> (R.Failed ("infeasible: " ^ msg), [])
  | Ape_spice.Dc.No_convergence msg ->
    (R.Failed ("no convergence: " ^ msg), [])
  | Ape_spice.Engine.Engine_error { analysis; node; detail } ->
    ( R.Failed
        (Printf.sprintf "engine error (%s%s): %s" analysis
           (match node with Some n -> " at " ^ n | None -> "")
           detail),
      [] )
  | Ape_spice.Transient.Step_failed time ->
    (R.Failed (Printf.sprintf "transient step failed at t=%g s" time), [])
  | Ape_util.Matrix.Singular | Ape_util.Sparse.Singular ->
    (R.Failed "singular system", [])
  | Ape_calib.Card.Parse_error { pos; msg } ->
    (R.Failed (Ape_calib.Card.describe_error ~pos ~msg), [])
  | Sys_error msg -> (R.Failed msg, [])
