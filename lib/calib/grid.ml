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

let fail_at span msg = raise (Parse_error { pos = Some span.Sexpr.s_start; msg })

let atom_of = function
  | Sexpr.Atom (a, _) -> a
  | Sexpr.List (_, s) -> fail_at s "expected an atom"

let number_of node =
  let a = atom_of node in
  match Ape_symbolic.Parser.parse_number a with
  | Some v -> v
  | None ->
    fail_at (Sexpr.span_of node) (Printf.sprintf "unreadable number %S" a)

let int_of node =
  let a = atom_of node in
  match int_of_string_opt a with
  | Some v -> v
  | None ->
    fail_at (Sexpr.span_of node) (Printf.sprintf "unreadable integer %S" a)

(* The --points rule: a non-negative count (0 fits on the catalog
   alone). *)
let points_of node =
  match int_of node with
  | n when n >= 0 -> n
  | n ->
    fail_at (Sexpr.span_of node)
      (Printf.sprintf "points must be non-negative, got %d" n)

(* The --jobs rule: a non-negative worker count, 0 meaning the
   hardware-recommended one. *)
let jobs_of node =
  match int_of node with
  | 0 -> Ape_util.Pool.recommended_jobs ()
  | n when n > 0 -> n
  | n ->
    fail_at (Sexpr.span_of node)
      (Printf.sprintf "jobs must be non-negative (0 = hardware count), got %d"
         n)

let bool_of node =
  match atom_of node with
  | "true" | "yes" | "1" -> true
  | "false" | "no" | "0" -> false
  | other ->
    fail_at (Sexpr.span_of node) (Printf.sprintf "unreadable boolean %S" other)

let range_of span = function
  | [ lo; hi ] ->
    let lo = number_of lo and hi = number_of hi in
    if not (lo > 0. && hi >= lo) then
      fail_at span "range bounds must be positive and ordered"
    else (lo, hi)
  | _ -> fail_at span "expected (field LO HI)"

let parse_spec text =
  let nodes =
    try Sexpr.parse text
    with Sexpr.Error { pos; msg } -> raise (Parse_error { pos = Some pos; msg })
  in
  match nodes with
  | [ Sexpr.List (Sexpr.Atom ("grid", _) :: fields, _) ] ->
    List.fold_left
      (fun spec node ->
        match node with
        | Sexpr.List (Sexpr.Atom (key, _) :: values, kspan) -> (
          let one () =
            match values with
            | [ v ] -> v
            | _ -> fail_at kspan "expected exactly one value"
          in
          match key with
          | "points" -> { spec with points = points_of (one ()) }
          | "seed" -> { spec with seed = int_of (one ()) }
          | "jobs" -> { spec with jobs = jobs_of (one ()) }
          | "av" -> { spec with av = range_of kspan values }
          | "ugf" -> { spec with ugf = range_of kspan values }
          | "ibias" -> { spec with ibias = range_of kspan values }
          | "cl" -> { spec with cl = range_of kspan values }
          | "slew" -> { spec with slew = bool_of (one ()) }
          | other ->
            fail_at kspan (Printf.sprintf "unknown grid field %S" other))
        | node ->
          fail_at (Sexpr.span_of node) "expected a (key value ...) list")
      default fields
  | [ node ] -> fail_at (Sexpr.span_of node) "expected a (grid ...) form"
  | [] -> raise (Parse_error { pos = None; msg = "empty grid spec" })
  | _ :: node :: _ ->
    fail_at (Sexpr.span_of node) "expected a single (grid ...) form"

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
