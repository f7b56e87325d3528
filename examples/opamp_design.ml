(* Opamp design, the paper's §5.1 workflow:
     dune exec examples/opamp_design.exe

   A specification is first estimated and sized by APE (sub-millisecond),
   then polished by the simulated-annealing synthesis engine searching
   ±20 % around the APE point — and, for contrast, the same spec is
   attacked standalone with wide intervals, reproducing the paper's
   Table 1 failure mode. *)

module E = Ape_estimator
module S = Ape_synth
let proc = Ape_process.Process.c12
let pf = Printf.printf
let eng = Ape_util.Units.to_eng
let opt f = function Some x -> f x | None -> "-"

let () =
  let row =
    {
      S.Opamp_problem.name = "demo";
      gain = 180.;
      ugf = 4e6;
      area = 1.;
      (* budget filled below from the APE estimate *)
      ibias = 2e-6;
      curr_src = E.Bias.Wilson;
      buffer = true;
      zout = Some 2e3;
      cl = 10e-12;
    }
  in
  pf "spec: gain>=%.0f  UGF>=%s  Ibias=%s  buffer with Zout<=%s\n\n" row.gain
    (eng row.ugf) (eng row.ibias) (opt eng row.zout);

  (* --- APE front end --- *)
  let t0 = Unix.gettimeofday () in
  let design = S.Opamp_problem.ape_design proc row in
  let ape_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  pf "APE sizing (%.2f ms): %s\n" ape_ms (E.Opamp.describe design);
  pf "  est: %s\n" (Format.asprintf "%a" E.Perf.pp design.E.Opamp.perf);
  let sim = E.Verify.sim_opamp proc design in
  pf "  sim: %s\n\n" (Format.asprintf "%a" E.Perf.pp sim);

  let row = { row with S.Opamp_problem.area = S.Opamp_problem.area_budget proc row } in
  pf "area budget (1.3x APE estimate): %.0f um^2\n\n"
    (row.S.Opamp_problem.area /. 1e-12);

  (* --- synthesis from the APE initial point, +/-20 % intervals --- *)
  let rng = Ape_util.Rng.create 42 in
  let run mode label =
    let r = S.Driver.run ~schedule:S.Anneal.quick_schedule ~rng proc ~mode row in
    pf "%s: %s\n" label r.S.Driver.comment;
    pf "  gain=%s ugf=%s area=%.0fum^2 power=%s  (%d evaluations, %.2f s)\n"
      (opt (Printf.sprintf "%.1f") r.S.Driver.gain)
      (opt eng r.S.Driver.ugf)
      (r.S.Driver.area /. 1e-12)
      (eng r.S.Driver.power)
      r.S.Driver.stats.S.Anneal.evaluations r.S.Driver.stats.S.Anneal.seconds;
    r
  in
  let ape_r =
    run (S.Opamp_problem.Ape_centered 0.2) "synthesis with APE init (+/-20%)"
  in
  pf "  final unknowns:\n";
  List.iter
    (fun (name, v) -> pf "    %-12s %s\n" name (eng v))
    ape_r.S.Driver.best_values;
  pf "\n";
  ignore (run S.Opamp_problem.Wide "standalone synthesis (wide, random start)")
