module E = Ape_estimator
module Rng = Ape_util.Rng
module Sexpr = Ape_util.Sexpr

type range = float * float

type spec = {
  points : int;
  seed : int;
  jobs : int;
  av : range;
  ugf : range;
  ibias : range;
  cl : range;
  slew : bool;
}

(* The default ranges bracket Table 3's corner specs (gain 167–514,
   UGF 1.3–12.4 MHz, tail 1–2 µA, C_L 10 pF) with some margin so the
   fit sees both sides of each paper point. *)
let default =
  {
    points = 16;
    seed = 1;
    jobs = 1;
    av = (60., 600.);
    ugf = (8e5, 1.4e7);
    ibias = (6e-7, 2.5e-6);
    cl = (5e-12, 2e-11);
    slew = false;
  }

(* ------------------------------------------------------------------ *)
(* Grid-spec files: every field optional over {!default}.              *)
(*   (grid (points 32) (seed 7) (av 60 600) (ugf 800k 14meg)           *)
(*         (ibias 0.6u 2.5u) (cl 5p 20p) (slew false))                 *)
(* ------------------------------------------------------------------ *)

exception Parse_error of { pos : Sexpr.pos option; msg : string }

let describe_error ~pos ~msg =
  match pos with
  | None -> Printf.sprintf "grid spec: %s" msg
  | Some p -> Printf.sprintf "grid spec: %d:%d: %s" p.Sexpr.line p.Sexpr.col msg

(* The --points and --jobs rule: a non-negative count. *)
let count ?(hint = "") name =
  Sexpr.read
    (Sexpr.satisfying
       (fun n -> n >= 0)
       (Printf.sprintf "%s must be non-negative%s, got %d" name hint)
       Sexpr.integer)

let booleans =
  [ ("true", true); ("yes", true); ("1", true); ("false", false); ("no", false);
    ("0", false) ]

let range fs key default =
  match Sexpr.find fs key with
  | None -> default
  | Some { args = [ lo; hi ]; span; _ } ->
    let lo = Sexpr.read Sexpr.finite lo in
    let hi = Sexpr.read Sexpr.finite hi in
    if not (lo > 0. && hi >= lo) then
      Sexpr.fail span "range bounds must be positive and ordered"
    else (lo, hi)
  | Some { span; _ } -> Sexpr.fail span ("expected (" ^ key ^ " LO HI)")

let parse_spec text =
  try
    match Sexpr.parse text with
    | [ Sexpr.List (Sexpr.Atom ("grid", _) :: items, span) ] ->
      let fs = Sexpr.fields span items in
      let points =
        Sexpr.get ~default:default.points fs "points" (count "points")
      in
      let seed =
        Sexpr.get ~default:default.seed fs "seed" (Sexpr.read Sexpr.integer)
      in
      (* 0 jobs = the hardware-recommended count, as for --jobs. *)
      let jobs =
        match
          Sexpr.opt fs "jobs" (count ~hint:" (0 = hardware count)" "jobs")
        with
        | Some 0 -> Ape_util.Pool.recommended_jobs ()
        | Some n -> n
        | None -> default.jobs
      in
      let av = range fs "av" default.av in
      let ugf = range fs "ugf" default.ugf in
      let ibias = range fs "ibias" default.ibias in
      let cl = range fs "cl" default.cl in
      let slew =
        Sexpr.get ~default:default.slew fs "slew"
          (Sexpr.read (Sexpr.enum "slew" booleans))
      in
      Sexpr.finish fs;
      { points; seed; jobs; av; ugf; ibias; cl; slew }
    | [ node ] -> Sexpr.fail (Sexpr.span_of node) "expected a (grid ...) form"
    | [] -> raise (Parse_error { pos = None; msg = "empty grid spec" })
    | _ :: node :: _ ->
      Sexpr.fail (Sexpr.span_of node) "expected a single (grid ...) form"
  with Sexpr.Error { span; msg } ->
    raise (Parse_error { pos = Some span.Sexpr.s_start; msg })

let load_spec file = parse_spec (Ape_util.File.read file)

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

type result = { samples : Fit.sample list; evaluated : int; skipped : int }

let c_points = Ape_obs.counter "calib.grid.points"
let c_skipped = Ape_obs.counter "calib.grid.skipped"

let attr_pairs (est : E.Perf.t) (sim : E.Perf.t) =
  [
    ("power", Some est.E.Perf.dc_power, Some sim.E.Perf.dc_power);
    ("gain", est.E.Perf.gain, sim.E.Perf.gain);
    ("ugf", est.E.Perf.ugf, sim.E.Perf.ugf);
    ("cmrr", est.E.Perf.cmrr, sim.E.Perf.cmrr);
    ("slew_rate", est.E.Perf.slew_rate, sim.E.Perf.slew_rate);
    ("zout", est.E.Perf.zout, sim.E.Perf.zout);
    ("current", est.E.Perf.current, sim.E.Perf.current);
  ]

(* One point: draw a full opamp spec from the per-index stream (every
   draw happens before anything can fail, so the stream use is fixed),
   design it with the estimator and measure it with the simulator.
   Infeasible or non-convergent points are skipped — a calibration grid
   deliberately walks past the template's feasibility edge. *)
let eval_point process spec rng =
  let log_uniform (lo, hi) = Rng.log_uniform rng lo hi in
  let av = log_uniform spec.av in
  let ugf = log_uniform spec.ugf in
  let ibias = log_uniform spec.ibias in
  let cl = log_uniform spec.cl in
  let buffer = Rng.bool rng in
  let zout = Rng.log_uniform rng 8e2 2.5e3 in
  let bias_topology = Rng.choice rng [| E.Bias.Simple; E.Bias.Wilson |] in
  let region = Card.region_of ~ugf ~ibias ~cl in
  let ospec =
    if buffer then
      E.Opamp.spec ~buffer ~zout ~bias_topology ~av ~ugf ~ibias ~cl ()
    else E.Opamp.spec ~bias_topology ~av ~ugf ~ibias ~cl ()
  in
  match
    let d = E.Opamp.design process ospec in
    (d.E.Opamp.perf, E.Verify.sim_opamp ~slew:spec.slew process d)
  with
  | exception
      ( E.Opamp.Infeasible _ | E.Verify.Verification_failed _
      | Ape_spice.Dc.No_convergence _ | Ape_spice.Awe.Moment_failure _
      | Ape_spice.Transient.Step_failed _ ) ->
    None
  | est, sim ->
    Some
      (List.filter_map
         (fun (attr, e, s) ->
           match (e, s) with
           | Some e, Some s when Float.is_finite e && Float.is_finite s ->
             Some
               {
                 Fit.s_level = "opamp";
                 s_attr = attr;
                 s_region = region;
                 s_est = e;
                 s_sim = s;
               }
           | _ -> None)
         (attr_pairs est sim))

let run process spec =
  Ape_obs.span "calib.grid" @@ fun () ->
  let streams = Rng.split_n (Rng.create spec.seed) spec.points in
  let per_point =
    Ape_util.Pool.map ~jobs:spec.jobs spec.points (fun i ->
        eval_point process spec streams.(i))
  in
  Ape_obs.add c_points spec.points;
  let samples, skipped =
    Array.fold_left
      (fun (samples, skipped) point ->
        match point with
        | None -> (samples, skipped + 1)
        | Some s -> (s :: samples, skipped))
      ([], 0) per_point
  in
  Ape_obs.add c_skipped skipped;
  {
    samples = List.concat (List.rev samples);
    evaluated = spec.points - skipped;
    skipped;
  }
