module E = Ape_estimator
module S = Ape_synth
module Mc = Ape_mc
module R = Record

type t = {
  proc : Ape_process.Process.t;
  lock : Mutex.t;
  caches : (string, S.Est_cache.t) Hashtbl.t;
}

let create proc = { proc; lock = Mutex.create (); caches = Hashtbl.create 16 }

let cache_for t fingerprint =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.caches fingerprint with
      | Some c -> c
      | None ->
        let c = S.Est_cache.create () in
        Hashtbl.add t.caches fingerprint c;
        c)

let cache_stats t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ c (lookups, hits) ->
          (lookups + S.Est_cache.lookups c, hits + S.Est_cache.hits c))
        t.caches (0, 0))

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)
(* ------------------------------------------------------------------ *)

type failure_class = Engine | Input

(* A deck with parse errors: every error diagnostic, caret-rendered. *)
exception Deck_errors of string

let failure = function
  | Ape_spice.Engine.Engine_error { analysis; node; detail } ->
    Some
      ( Engine,
        Printf.sprintf "engine error (%s%s): %s" analysis
          (match node with Some n -> " at " ^ n | None -> "")
          detail )
  | Ape_spice.Dc.No_convergence msg -> Some (Engine, "no convergence: " ^ msg)
  | Ape_spice.Transient.Step_failed time ->
    Some
      ( Engine,
        Printf.sprintf "transient step failed at t=%ss"
          (Ape_util.Units.to_eng time) )
  | Ape_util.Sparse.Singular ->
    Some (Engine, "singular system: the deck has no unique solution")
  | E.Opamp.Infeasible msg -> Some (Engine, "infeasible: " ^ msg)
  | Deck_errors msg -> Some (Engine, msg)
  | Sys_error msg -> Some (Input, msg)
  | Ape_calib.Card.Parse_error { pos; msg } ->
    Some (Input, Ape_calib.Card.describe_error ~pos ~msg)
  | Ape_calib.Grid.Parse_error { pos; msg } ->
    Some (Input, Ape_calib.Grid.describe_error ~pos ~msg)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Running a job                                                       *)
(* ------------------------------------------------------------------ *)

type ac = {
  node : string;
  dc_gain : float;
  f_minus_3db : float option;
  ugf : float option;
  phase_margin : float option;
  in_noise : float option;
}

type outcome =
  | Estimated of E.Opamp.design
  | Synthesized of S.Driver.result
  | Sampled of Mc.Run.report
  | Simulated of { file : string; op : Ape_spice.Dc.op; ac : ac option }
  | Verified of Ape_check.Check.outcome

let estimator_spec (s : Job.opamp_spec) =
  E.Opamp.spec ~buffer:s.buffer ?zout:s.zout ~bias_topology:s.bias
    ~cl:s.cl ~av:s.gain ~ugf:s.ugf ~ibias:s.ibias ()

(* A synthesis run's cost function is fully determined by its spec,
   interval mode, area budget and calibration card (by its contents,
   not its path).  The fingerprint is the canonical print of a job
   holding only those fields, plus the card's digest; jobs with equal
   fingerprints may share a warm cache. *)
let synth_fingerprint spec mode ~area card =
  Job.print
    { Job.id = "-";
      timeout = None;
      payload =
        Job.Synth
          { spec; mode; seed = None; chains = 1; schedule = Job.Full;
            area = Some area; calibration = None };
    }
  ^
  match card with
  | Some c -> "|" ^ Digest.to_hex (Digest.string (Ape_calib.Card.print c))
  | None -> ""

let synth ~jobs t (job : Job.t) (spec : Job.opamp_spec) mode chains schedule
    area calibration =
  let calibration = Option.map Ape_calib.Card.load calibration in
  let row =
    {
      S.Opamp_problem.name = job.id;
      gain = spec.gain;
      ugf = spec.ugf;
      area = 1.;
      ibias = spec.ibias;
      curr_src = spec.bias;
      buffer = spec.buffer;
      zout = spec.zout;
      cl = spec.cl;
    }
  in
  let area =
    match area with
    | Some a -> a
    | None -> S.Opamp_problem.area_budget t.proc row
  in
  let cache = cache_for t (synth_fingerprint spec mode ~area calibration) in
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
  S.Driver.run ~schedule ~chains ~jobs ~cache ?calibration
    ~rng:(Ape_util.Rng.create (Job.seed_of job))
    t.proc ~mode { row with area }

let mc ~jobs t job spec samples level sigma_scale =
  let sigmas = Mc.Variation.scale sigma_scale Mc.Variation.default in
  let measure, checks =
    Mc.Scenario.opamp ~sigmas ~level t.proc (estimator_spec spec)
  in
  Mc.Run.run ~checks { Mc.Run.samples; jobs; seed = Job.seed_of job } ~measure

(* One AC preparation serves every measurement, adjoint noise
   included; a gain of zero (no AC excitation reaching [node]) has no
   input-referred noise. *)
let measure_ac op node =
  let prep = Ape_spice.Ac.prepare op in
  let module M = Ape_spice.Measure.Prepared in
  let dc_gain = M.dc_gain ~out:node prep in
  let f_minus_3db = M.f_minus_3db ~out:node prep in
  let ugf = M.unity_gain_frequency ~out:node prep in
  let phase_margin =
    Option.map (fun ugf -> M.phase_margin ~ugf ~out:node prep) ugf
  in
  let in_noise =
    match Ape_spice.Noise.input_referred_prepared ~out:node ~freq:1e3 prep with
    | v -> Some v
    | exception Division_by_zero -> None
  in
  { node; dc_gain; f_minus_3db; ugf; phase_margin; in_noise }

(* [~path] anchors [.INCLUDE]s at the deck's own directory. *)
let sim t file out =
  let module Sp = Ape_circuit.Spice_parser in
  let text = Ape_util.File.read file in
  let parsed = Sp.parse_result ~process:t.proc ~path:file ~title:file text in
  (match Sp.errors parsed with
  | [] -> ()
  | errors ->
    raise (Deck_errors (String.concat "" (List.map Sp.render errors))));
  let op = Ape_spice.Dc.solve parsed.Sp.netlist in
  Simulated { file; op; ac = Option.map (measure_ac op) out }

let verify t levels slew calibration =
  let module C = Ape_check in
  let levels = match levels with [] -> C.Tolerance.all_levels | ls -> ls in
  let calibration = Option.map Ape_calib.Card.load calibration in
  C.Check.run ~slew ?calibration ~levels t.proc

let execute ?(jobs = 1) t (job : Job.t) =
  match job.payload with
  | Job.Estimate spec -> Estimated (E.Opamp.design t.proc (estimator_spec spec))
  | Job.Synth { spec; mode; seed = _; chains; schedule; area; calibration } ->
    Synthesized
      (synth ~jobs t job spec mode chains schedule area calibration)
  | Job.Mc { spec; samples; level; sigma_scale; seed = _ } ->
    Sampled (mc ~jobs t job spec samples level sigma_scale)
  | Job.Sim { file; out } -> sim t file out
  | Job.Verify { levels; slew; calibration } ->
    Verified (verify t levels slew calibration)

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

let verdict ok = if ok then R.Done else R.Unmet

let record = function
  | Estimated d ->
    let p = d.E.Opamp.perf in
    ( R.Done,
      [ ("topology", R.Str (E.Opamp.describe d));
        ("gain", R.float_opt p.E.Perf.gain);
        ("ugf", R.float_opt p.E.Perf.ugf);
        ("gate_area", R.Float p.E.Perf.gate_area);
        ("power", R.Float p.E.Perf.dc_power);
        ("phase_margin", R.float_opt p.E.Perf.phase_margin);
      ] )
  | Synthesized r ->
    ( verdict r.S.Driver.meets_spec,
      [ ("comment", R.Str r.S.Driver.comment);
        ("meets_spec", R.Bool r.S.Driver.meets_spec);
        ("works", R.Bool r.S.Driver.works);
        ("gain", R.float_opt r.S.Driver.gain);
        ("ugf", R.float_opt r.S.Driver.ugf);
        ("area", R.Float r.S.Driver.area);
        ("power", R.Float r.S.Driver.power);
        ("evaluations", R.Int r.S.Driver.stats.S.Anneal.evaluations);
      ] )
  | Sampled report ->
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
    ( verdict (report.Mc.Run.yield >= 1.0),
      [ ("samples", R.Int report.Mc.Run.config.Mc.Run.samples);
        ("pass", R.Int report.Mc.Run.pass);
        ("failures", R.Int report.Mc.Run.failures);
        ("yield", R.Float report.Mc.Run.yield);
        ("metrics", R.Obj metrics);
      ] )
  | Simulated { file; op; ac } ->
    ( R.Done,
      ("file", R.Str file)
      ::
      (match ac with
      | None -> []
      | Some a ->
        [ ("out", R.Str a.node);
          ("v_out", R.Float (Ape_spice.Dc.voltage op a.node));
          ("dc_gain", R.Float a.dc_gain);
          ("f_minus_3db", R.float_opt a.f_minus_3db);
          ("ugf", R.float_opt a.ugf);
          ("phase_margin", R.float_opt a.phase_margin);
          ("in_noise", R.float_opt a.in_noise);
        ]) )
  | Verified outcome ->
    let module C = Ape_check in
    let rows =
      List.concat_map (fun lr -> lr.C.Check.rows) outcome.C.Check.results
    in
    ( verdict (C.Check.ok outcome),
      [ ("rows", R.Int (List.length rows));
        ("failures", R.Int (List.length (C.Check.failures outcome)));
      ] )

let run t job =
  match execute t job with
  | outcome -> record outcome
  | exception e -> (
    match failure e with
    | Some (_, msg) -> (R.Failed msg, [])
    | None -> raise e)
