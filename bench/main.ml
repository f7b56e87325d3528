(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md experiment index) and registers one
   Bechamel micro-benchmark per table for the estimation workloads.

   Usage:
     dune exec bench/main.exe            # all tables + quick micro pass
     dune exec bench/main.exe table4     # one experiment
     dune exec bench/main.exe synth-seeds 30   # Table 1 search quality
     dune exec bench/main.exe micro      # bechamel micro-benchmarks only
   Set APE_BENCH_FAST=1 for a reduced annealing budget. *)

module E = Ape_estimator
module S = Ape_synth
module Units = Ape_util.Units
module Table = Ape_util.Table

let proc = Ape_process.Process.c12
let pf = Printf.printf

let fast_mode =
  match Sys.getenv_opt "APE_BENCH_FAST" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let synth_schedule =
  if fast_mode then S.Anneal.quick_schedule
  else
    {
      S.Anneal.t_start = 1.0;
      t_end = 1e-3;
      cooling = 0.88;
      moves_per_stage = 25;
      max_evaluations = 1_500;
    }

let um2 x = Printf.sprintf "%.1f" (x /. 1e-12)
let eng = Units.to_eng
let opt f = function Some x -> f x | None -> "-"

let heading title =
  pf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 2: estimation vs simulation for basic analog circuits.        *)
(* ------------------------------------------------------------------ *)

let run_table2 () =
  heading
    "Table 2: Estimation vs SPICE-substitute simulation, basic analog \
     circuits";
  let cases = Ape_check.Cases.basic_cases proc in
  let row (name, (est : E.Perf.t), (sim : E.Perf.t)) =
    let pick f = (f est, f sim) in
    let cell (e, s) fmt = Printf.sprintf "%s / %s" (opt fmt e) (opt fmt s) in
    [
      name;
      Printf.sprintf "%s / %s"
        (um2 est.E.Perf.gate_area)
        (um2 sim.E.Perf.gate_area);
      cell (pick (fun p -> p.E.Perf.ugf)) (fun x -> eng x ^ "Hz");
      Printf.sprintf "%s / %s"
        (eng est.E.Perf.dc_power)
        (eng sim.E.Perf.dc_power);
      cell (pick (fun p -> p.E.Perf.gain)) (fun x -> Printf.sprintf "%.3g" x);
      cell (pick (fun p -> p.E.Perf.current)) (fun x -> eng x ^ "A");
    ]
  in
  print_string
    (Table.render
       ~header:
         [
           "Topology";
           "GateArea um^2 (est/sim)";
           "UGF (est/sim)";
           "DC Power W (est/sim)";
           "Gain (est/sim)";
           "Current (est/sim)";
         ]
       (List.map row cases))

(* ------------------------------------------------------------------ *)
(* Table 3: estimation vs simulation for operational amplifiers.       *)
(* ------------------------------------------------------------------ *)

let run_table3 () =
  heading "Table 3: Estimation vs simulation, operational amplifiers";
  let rows =
    List.map
      (fun (name, d, sim) ->
        let est = d.E.Opamp.perf in
        let pair f fmt =
          Printf.sprintf "%s / %s" (opt fmt (f est)) (opt fmt (f sim))
        in
        [
          name;
          E.Opamp.describe d;
          Printf.sprintf "%s / %s"
            (eng est.E.Perf.dc_power)
            (eng sim.E.Perf.dc_power);
          pair (fun p -> p.E.Perf.gain) (fun x -> Printf.sprintf "%.0f" x);
          pair (fun p -> p.E.Perf.ugf) (fun x -> eng x);
          pair (fun p -> p.E.Perf.current) (fun x -> eng x);
          pair (fun p -> p.E.Perf.zout) (fun x -> eng x);
          Printf.sprintf "%s / %s"
            (um2 est.E.Perf.gate_area)
            (um2 sim.E.Perf.gate_area);
          pair
            (fun p -> p.E.Perf.cmrr)
            (fun x -> Printf.sprintf "%.0f" (Ape_util.Float_ext.db_of_gain x));
          pair (fun p -> p.E.Perf.slew_rate) (fun x -> eng x);
        ])
      (Ape_check.Cases.opamp_cases proc)
  in
  print_string
    (Table.render
       ~header:
         [
           "ckt";
           "topology";
           "Power (e/s)";
           "Adm (e/s)";
           "UGF (e/s)";
           "Ibias (e/s)";
           "Zout (e/s)";
           "Area um2 (e/s)";
           "CMRR dB (e/s)";
           "SlewRate (e/s)";
         ]
       rows)

(* ------------------------------------------------------------------ *)
(* Tables 1 and 4: synthesis without/with APE initial design points.   *)
(* ------------------------------------------------------------------ *)

(* The paper's ten specs (Table 1, left).  Area budgets are re-derived
   for our process deck as 1.3x the APE estimate (the paper's budgets
   are tied to its 1990s MOSIS deck); see EXPERIMENTS.md. *)
let opamp_rows () =
  let base =
    [
      ("oa0", 200., 1.3e6, 1e-6, E.Bias.Wilson, true, Some 1e3);
      ("oa1", 70., 3.0e6, 2e-6, E.Bias.Wilson, true, Some 1e3);
      ("oa2", 100., 2.5e6, 1.5e-6, E.Bias.Wilson, true, Some 2e3);
      ("oa3", 250., 8.0e6, 1e-6, E.Bias.Simple, false, None);
      ("oa4", 150., 3.0e6, 100e-6, E.Bias.Simple, false, None);
      ("oa5", 200., 8.0e6, 10e-6, E.Bias.Simple, false, None);
      ("oa6", 50., 10.0e6, 10e-6, E.Bias.Simple, false, None);
      ("oa7", 200., 3.0e6, 1e-6, E.Bias.Simple, true, Some 1e3);
      ("oa8", 100., 2.0e6, 1e-6, E.Bias.Simple, true, Some 10e3);
      ("oa9", 200., 5.0e6, 10e-6, E.Bias.Simple, true, Some 10e3);
    ]
  in
  List.map
    (fun (name, gain, ugf, ibias, curr_src, buffer, zout) ->
      let proto =
        {
          S.Opamp_problem.name;
          gain;
          ugf;
          area = 1.;
          ibias;
          curr_src;
          buffer;
          zout;
          cl = 10e-12;
        }
      in
      {
        proto with
        S.Opamp_problem.area = S.Opamp_problem.area_budget proc proto;
      })
    base

let synth_table mode title =
  heading title;
  let rng = Ape_util.Rng.create 1999 in
  let results =
    List.map
      (fun row -> S.Driver.run ~schedule:synth_schedule ~rng proc ~mode row)
      (opamp_rows ())
  in
  let rows =
    List.map
      (fun (r : S.Driver.result) ->
        [
          r.S.Driver.row.S.Opamp_problem.name;
          Printf.sprintf "%.0f" r.S.Driver.row.S.Opamp_problem.gain;
          eng r.S.Driver.row.S.Opamp_problem.ugf;
          um2 r.S.Driver.row.S.Opamp_problem.area;
          opt (Printf.sprintf "%.2f") r.S.Driver.gain;
          opt eng r.S.Driver.ugf;
          um2 r.S.Driver.area;
          eng r.S.Driver.power;
          Printf.sprintf "%.2f" r.S.Driver.stats.S.Anneal.seconds;
          string_of_int r.S.Driver.stats.S.Anneal.evaluations;
          r.S.Driver.comment;
        ])
      results
  in
  print_string
    (Table.render
       ~header:
         [
           "ckt";
           "Gain*";
           "UGF*";
           "Area* um2";
           "Gain";
           "UGF";
           "Area um2";
           "power";
           "CPU s";
           "evals";
           "Comments";
         ]
       rows);
  let met =
    List.length (List.filter (fun r -> r.S.Driver.meets_spec) results)
  in
  pf "-> %d/10 meet spec  (* = required)\n" met;
  results

let run_table1 () =
  ignore
    (synth_table S.Opamp_problem.Wide
       "Table 1: ASTRX/OBLX-substitute standalone (wide intervals, random \
        start)")

let run_table4 () =
  let t1 =
    synth_table S.Opamp_problem.Wide
      "Table 1 (rerun for speed-up baseline): standalone synthesis"
  in
  let rng = Ape_util.Rng.create 2024 in
  heading
    "Table 4: synthesis from APE initial design points (+/-20% intervals)";
  let results =
    List.map
      (fun row ->
        S.Driver.run ~schedule:synth_schedule ~rng proc
          ~mode:(S.Opamp_problem.Ape_centered 0.2) row)
      (opamp_rows ())
  in
  let rows =
    List.map2
      (fun (r : S.Driver.result) (base : S.Driver.result) ->
        let speedup =
          let tb = base.S.Driver.stats.S.Anneal.seconds in
          let ta = r.S.Driver.stats.S.Anneal.seconds in
          if tb > 0. then (tb -. ta) /. tb else 0.
        in
        [
          r.S.Driver.row.S.Opamp_problem.name;
          opt (Printf.sprintf "%.2f") r.S.Driver.gain;
          opt eng r.S.Driver.ugf;
          um2 r.S.Driver.area;
          eng r.S.Driver.power;
          Printf.sprintf "%.2f" r.S.Driver.stats.S.Anneal.seconds;
          Table.cell_pct speedup;
          r.S.Driver.comment;
        ])
      results t1
  in
  print_string
    (Table.render
       ~header:
         [
           "ckt";
           "Gain";
           "UGF";
           "Area um2";
           "power";
           "CPU s";
           "speed-up";
           "Comments";
         ]
       rows);
  let met =
    List.length (List.filter (fun r -> r.S.Driver.meets_spec) results)
  in
  pf "-> %d/10 meet spec\n" met

(* ------------------------------------------------------------------ *)
(* Search quality: the Table 1 rows over many seeds, both modes.       *)
(* ------------------------------------------------------------------ *)

(* [synth-seeds [N]]: every Table 1 row annealed from [Rng.create s] for
   s = 1..N (default 30) on the tables' schedule, in the wide (Table 1)
   and APE-centred 0.2 (Table 4) modes.  Per mode: runs that meet the
   spec, the best relaxed cost's quartiles and the mean evaluations per
   run, then the per-row spec-met counts.  Any change to the relaxed
   cost's numbers is judged on this output (EXPERIMENTS.md). *)
let run_synth_seeds () =
  let seeds =
    if Array.length Sys.argv <= 2 then 30
    else
      match int_of_string_opt Sys.argv.(2) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
        pf "synth-seeds: the seed count must be a positive integer\n";
        exit 1
  in
  heading
    (Printf.sprintf "Search quality: Table 1 rows x %d seeds, both modes" seeds);
  let rows = opamp_rows () in
  let table =
    List.map
      (fun (label, mode) ->
        let runs =
          List.map
            (fun row ->
              ( row,
                List.init seeds (fun s ->
                    S.Driver.run ~schedule:synth_schedule
                      ~rng:(Ape_util.Rng.create (s + 1)) proc ~mode row) ))
            rows
        in
        let all = List.concat_map snd runs in
        let met rs = List.length (List.filter (fun r -> r.S.Driver.meets_spec) rs) in
        let costs = Ape_mc.Stats.create () and evals = Ape_mc.Stats.create () in
        List.iter
          (fun (r : S.Driver.result) ->
            Ape_mc.Stats.add costs r.S.Driver.stats.S.Anneal.best_cost;
            Ape_mc.Stats.add evals
              (float_of_int r.S.Driver.stats.S.Anneal.evaluations))
          all;
        let q = Ape_mc.Stats.quantile costs in
        pf "%s, spec met per row: %s\n" label
          (String.concat " "
             (List.map
                (fun (row, rs) ->
                  Printf.sprintf "%s %d/%d" row.S.Opamp_problem.name (met rs)
                    seeds)
                runs));
        [
          label;
          Printf.sprintf "%d/%d" (met all) (List.length all);
          Printf.sprintf "%.4g / %.4g / %.4g" (q 0.25) (q 0.5) (q 0.75);
          Printf.sprintf "%.1f" (Ape_mc.Stats.mean evals);
        ])
      [
        ("wide", S.Opamp_problem.Wide);
        ("ape-0.2", S.Opamp_problem.Ape_centered 0.2);
      ]
  in
  print_string
    (Table.render
       ~header:[ "mode"; "spec met"; "best cost q1 / median / q3"; "evals/run" ]
       table)

(* ------------------------------------------------------------------ *)
(* Table 5: the five analog-module design examples, four ways.         *)
(* ------------------------------------------------------------------ *)

let table5_cases () =
  [
    ( S.Module_problem.M_sh { gain = 2.0; bandwidth = 20e3; sr = 1e4 },
      [ ("gain", "2.0"); ("BW", "20kHz"); ("SR", "1e4 V/s") ] );
    ( S.Module_problem.M_audio { gain = 100.; bandwidth = 20e3 },
      [ ("gain", "100"); ("BW", "20kHz") ] );
    ( S.Module_problem.M_adc { bits = 4; delay = 5e-6 },
      [ ("bits", "4"); ("delay", "5us") ] );
    ( S.Module_problem.M_lpf { order = 4; f_cutoff = 1e3 },
      [ ("type", "SK flat"); ("order", "4"); ("f-3dB", "1kHz") ] );
    ( S.Module_problem.M_bpf { f_center = 1e3; q = 1.; gain = 1.5 },
      [ ("type", "MFB flat"); ("order", "2"); ("f0", "1kHz") ] );
  ]

let metric_keys = function
  | S.Module_problem.M_sh _ -> [ ("gain", "gain"); ("bandwidth", "BW") ]
  | S.Module_problem.M_audio _ -> [ ("gain", "gain"); ("bandwidth", "BW") ]
  | S.Module_problem.M_adc _ -> [ ("delay", "delay") ]
  | S.Module_problem.M_lpf _ ->
    [ ("gain", "gain"); ("f3db", "f-3dB"); ("f20db", "f-20dB") ]
  | S.Module_problem.M_bpf _ ->
    [ ("f0", "f0"); ("gain", "gain"); ("bandwidth", "BW") ]

let synth_metrics (r : S.Module_problem.result) =
  match r.S.Module_problem.measured with
  | None -> []
  | Some m ->
    List.filter_map
      (fun key -> Option.map (fun v -> (key, v)) (S.Cost.find m key))
      [ "gain"; "bandwidth"; "f3db"; "f20db"; "f0"; "delay"; "area" ]

let run_table5 () =
  heading "Table 5: analog library module design examples";
  let rng = Ape_util.Rng.create 77 in
  List.iter
    (fun (kind, spec_rows) ->
      let name = S.Module_problem.kind_name kind in
      let t0 = Unix.gettimeofday () in
      let design = S.Module_problem.ape_module proc kind in
      let ape_seconds = Unix.gettimeofday () -. t0 in
      let est = Ape_check.Cases.module_est_metrics design in
      let sim =
        Ape_check.Cases.module_sim_metrics (E.Verify.sim_module proc design)
      in
      let area_budget = 1.4 *. (E.Module_lib.perf design).E.Perf.gate_area in
      let standalone =
        S.Module_problem.run ~schedule:synth_schedule ~rng proc
          ~mode:S.Module_problem.Wide ~area_max:area_budget kind
      in
      let with_ape =
        S.Module_problem.run ~schedule:synth_schedule ~rng proc
          ~mode:(S.Module_problem.Ape_centered 0.2) ~area_max:area_budget
          kind
      in
      let sa_m = synth_metrics standalone
      and ape_m = synth_metrics with_ape in
      pf "\n[%s]  spec: %s\n" name
        (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) spec_rows));
      let metric_of key l = List.assoc_opt key l in
      let fmt = opt (fun v -> eng v) in
      let rows =
        List.map
          (fun (key, label) ->
            [
              label;
              fmt (metric_of key sa_m);
              fmt (metric_of key est);
              fmt (metric_of key sim);
              fmt (metric_of key ape_m);
            ])
          (metric_keys kind)
        @ [
            [
              "area um2";
              opt (fun v -> um2 v) (metric_of "area" sa_m);
              opt (fun v -> um2 v) (metric_of "area" est);
              opt (fun v -> um2 v) (metric_of "area" sim);
              opt (fun v -> um2 v) (metric_of "area" ape_m);
            ];
            [
              "CPU s";
              Printf.sprintf "%.2f"
                standalone.S.Module_problem.stats.S.Anneal.seconds;
              Printf.sprintf "%.3f (APE)" ape_seconds;
              "";
              Printf.sprintf "%.2f"
                with_ape.S.Module_problem.stats.S.Anneal.seconds;
            ];
            [
              "verdict";
              (if standalone.S.Module_problem.meets_spec then "Meets spec"
               else if standalone.S.Module_problem.works then "violates spec"
               else "Doesn't Work");
              "";
              "";
              (if with_ape.S.Module_problem.meets_spec then "Meets spec"
               else if with_ape.S.Module_problem.works then "violates spec"
               else "Doesn't Work");
            ];
          ]
      in
      print_string
        (Table.render
           ~header:[ "param"; "ASTRX alone"; "APE est"; "APE sim"; "APE+A/O" ]
           rows))
    (table5_cases ())

(* ------------------------------------------------------------------ *)
(* Figure 2 / Figure 3: realized hierarchy and elaborated structures.  *)
(* ------------------------------------------------------------------ *)

let run_hierarchy () =
  heading "Figure 2: the realized APE hierarchy (levels, components, devices)";
  pf
    "level 1  CMOS transistor models   (Ape_device.Mos: Level1/2/3/BSIM1 \
     cards, sizing by gm/Id, Id/Vov)\n";
  pf
    "level 2  basic analog components  DCVolt, CurrMirr, Cascode, Wilson, \
     GainNMOS, GainCMOS, GainCMOSH, Follower, DiffNMOS, DiffCMOS\n";
  pf
    "level 3  operational amplifiers   tail {Mirror|Cascode|Wilson} x load \
     {DiffCMOS|DiffNMOS} x [CS2] x [buffer]\n";
  pf
    "level 4  analog modules           audio amp, S&H, flash ADC, DAC, SK \
     LPF, MFB BPF, inverting amp, integrator, adder, comparator\n\n";
  pf
    "Figure 3: elaborated module structures (devices from full netlist \
     elaboration)\n";
  let show kind =
    let d = S.Module_problem.ape_module proc kind in
    let frag = E.Module_lib.fragment proc d in
    let nl = frag.E.Fragment.netlist in
    pf "  %-6s %3d MOSFETs, %3d elements, gate area %s um^2\n"
      (S.Module_problem.kind_name kind)
      (Ape_circuit.Netlist.mosfet_count nl)
      (Ape_circuit.Netlist.device_count nl)
      (um2 (Ape_circuit.Netlist.gate_area nl))
  in
  List.iter (fun (kind, _) -> show kind) (table5_cases ())

(* ------------------------------------------------------------------ *)
(* CPU-time claim (paper 5): APE runs in ~0.1 s for all designs.       *)
(* ------------------------------------------------------------------ *)

let run_ape_timing () =
  heading "APE estimation cost (paper: 0.12 s for all ten opamps)";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun row -> ignore (S.Opamp_problem.ape_design proc row))
    (opamp_rows ());
  let t_opamps = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (kind, _) -> ignore (S.Module_problem.ape_module proc kind))
    (table5_cases ());
  let t_modules = Unix.gettimeofday () -. t0 in
  pf "ten opamp estimations:   %.4f s\n" t_opamps;
  pf "five module estimations: %.4f s\n" t_modules

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out.                  *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  heading "Ablation D4: interval width around the APE point (row oa5)";
  let row = List.nth (opamp_rows ()) 5 in
  (* Random start *inside* each window (the centre start of Table 4
     would trivialise the width axis). *)
  let rows =
    List.map
      (fun pct ->
        let rng = Ape_util.Rng.create 7 in
        let design = S.Opamp_problem.ape_design proc row in
        let problem =
          S.Opamp_problem.build proc
            ~mode:(S.Opamp_problem.Ape_centered pct) row design
        in
        let dim = problem.S.Opamp_problem.dim in
        let best, stats =
          S.Anneal.optimize ~schedule:synth_schedule ~stop_below:0.05 ~rng
            ~dim ~cost:problem.S.Opamp_problem.cost
            ~start:(fun rng ->
              Array.init dim (fun _ -> Ape_util.Rng.uniform rng 0. 1.))
            ()
        in
        let _, measured = problem.S.Opamp_problem.final best in
        [
          Printf.sprintf "+/-%.0f%%" (100. *. pct);
          S.Driver.comment_of row measured;
          string_of_int stats.S.Anneal.evaluations;
          Printf.sprintf "%.2f" stats.S.Anneal.seconds;
        ])
      [ 0.05; 0.1; 0.2; 0.5; 1.0 ]
  in
  let wide =
    let rng = Ape_util.Rng.create 7 in
    let r =
      S.Driver.run ~schedule:synth_schedule ~rng proc
        ~mode:S.Opamp_problem.Wide row
    in
    [
      "wide+random";
      r.S.Driver.comment;
      string_of_int r.S.Driver.stats.S.Anneal.evaluations;
      Printf.sprintf "%.2f" r.S.Driver.stats.S.Anneal.seconds;
    ]
  in
  print_string
    (Table.render
       ~header:[ "intervals"; "outcome"; "evals"; "CPU s" ]
       (rows @ [ wide ]));

  heading
    "Ablation D3: relaxed AWE evaluation vs full Newton+AC measurement      (cost evaluations/second)";
  let design = S.Opamp_problem.ape_design proc row in
  let problem =
    S.Opamp_problem.build proc ~mode:(S.Opamp_problem.Ape_centered 0.2) row
      design
  in
  let rng = Ape_util.Rng.create 11 in
  let points =
    List.init 50 (fun _ ->
        Array.init problem.S.Opamp_problem.dim (fun _ ->
            Ape_util.Rng.uniform rng 0. 1.))
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    List.iter f points;
    Unix.gettimeofday () -. t0
  in
  let t_relaxed = time (fun p -> ignore (problem.S.Opamp_problem.cost p)) in
  let t_full = time (fun p -> ignore (problem.S.Opamp_problem.final p)) in
  pf "relaxed (KCL + AWE):        %6.2f ms/eval
"
    (1000. *. t_relaxed /. 50.);
  pf "full (Newton DC + AC scan): %6.2f ms/eval
" (1000. *. t_full /. 50.);
  pf "speed ratio: %.1fx
" (t_full /. Float.max 1e-9 t_relaxed);

  heading
    "Extension: estimator robustness across process corners (oa2 design      re-simulated)";
  let row2 = List.nth (opamp_rows ()) 2 in
  let design2 = S.Opamp_problem.ape_design proc row2 in
  let frag = E.Opamp.fragment proc design2 in
  let base = E.Fragment.with_supply ~vdd:5.0 frag in
  let vcm = design2.E.Opamp.input_cm in
  let base =
    Ape_circuit.Netlist.append base
      [
        Ape_circuit.Netlist.Vsource
          { name = "VINP"; p = "inp"; n = "0"; dc = vcm; ac = 0.5 };
        Ape_circuit.Netlist.Vsource
          { name = "VINN"; p = "inn"; n = "0"; dc = vcm; ac = -0.5 };
        Ape_circuit.Netlist.Capacitor
          { name = "CLX"; a = "out"; b = "0"; c = 10e-12 };
      ]
  in
  let rows =
    List.map
      (fun c ->
        let p = Ape_process.Process.corner c proc in
        let nl = Ape_circuit.Netlist.retarget_process p base in
        match Ape_spice.Dc.solve nl with
        | exception Ape_spice.Dc.No_convergence _ ->
          [ Ape_process.Process.corner_name c; "-"; "-"; "-" ]
        | op ->
          let prep = Ape_spice.Ac.prepare op in
          [
            Ape_process.Process.corner_name c;
            Printf.sprintf "%.1f"
              (Ape_spice.Measure.Prepared.dc_gain ~out:"out" prep);
            opt eng
              (Ape_spice.Measure.Prepared.unity_gain_frequency ~fmin:1e3
                 ~fmax:1e9 ~out:"out" prep);
            eng (Ape_spice.Dc.static_power op ~supply:"VDD");
          ])
      [ Ape_process.Process.Typical; Ape_process.Process.Slow;
        Ape_process.Process.Fast ]
  in
  print_string
    (Table.render ~header:[ "corner"; "gain"; "UGF"; "power" ] rows)

(* ------------------------------------------------------------------ *)
(* Monte Carlo throughput: samples/sec at 1, 2 and 4 domains.          *)
(* ------------------------------------------------------------------ *)

let run_mc () =
  let module Mc = Ape_mc in
  heading "Monte Carlo throughput (opamp estimate workload, lib/mc)";
  pf "host reports %d recommended domain(s)\n\n" (Ape_util.Pool.recommended_jobs ());
  let spec = E.Opamp.spec ~av:200. ~ugf:2e6 ~ibias:1e-6 ~cl:10e-12 () in
  let samples = if fast_mode then 500 else 2_000 in
  let measure, checks = Mc.Scenario.opamp ~level:Mc.Scenario.Estimate proc spec in
  let reports =
    List.map
      (fun jobs ->
        (* Warm domain spawn/JIT effects out of the first timing. *)
        let cfg = { Mc.Run.samples; jobs; seed = 1999 } in
        ignore (Mc.Run.run ~checks { cfg with Mc.Run.samples = 100 } ~measure);
        (jobs, Mc.Run.run ~checks cfg ~measure))
      [ 1; 2; 4 ]
  in
  let base_seconds =
    match reports with (_, r) :: _ -> r.Mc.Run.seconds | [] -> 0.
  in
  print_string
    (Table.render
       ~header:[ "jobs"; "samples"; "seconds"; "samples/s"; "speedup"; "yield" ]
       (List.map
          (fun (jobs, (r : Mc.Run.report)) ->
            [
              string_of_int jobs;
              string_of_int samples;
              Printf.sprintf "%.3f" r.Mc.Run.seconds;
              eng (float_of_int samples /. Float.max 1e-9 r.Mc.Run.seconds);
              Printf.sprintf "%.2fx" (base_seconds /. Float.max 1e-9 r.Mc.Run.seconds);
              Printf.sprintf "%.1f %%" (100. *. r.Mc.Run.yield);
            ])
          reports));
  (* Determinism spot check: every jobs value must produce bit-identical
     statistics (the test suite enforces this on small runs too). *)
  let gain_means =
    List.map
      (fun (_, r) ->
        match Mc.Run.metric r "gain" with
        | Some m -> Int64.bits_of_float (Mc.Stats.mean m.Mc.Run.m_stats)
        | None -> 0L)
      reports
  in
  (match gain_means with
  | first :: rest ->
    pf "gain mean bit-identical across jobs: %b\n"
      (List.for_all (Int64.equal first) rest)
  | [] -> ());
  match reports with
  | (_, r) :: _ -> print_string (Mc.Report.metric_table r)
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Prepared AC engine: the estimation-cache hit rate of an annealing   *)
(* run, blocked frequency panels vs the per-frequency path (width      *)
(* curve, bit identity, workspace reuse) and the adjoint noise solve   *)
(* count.  Emits BENCH_sweep.json; ci.sh gates on it.                  *)
(* ------------------------------------------------------------------ *)

(* The RC ladder the panel gates run on. *)
let ladder_deck n =
  let open Ape_circuit.Netlist in
  let node i = Printf.sprintf "n%d" i in
  let sections =
    List.concat
      (List.init n (fun i ->
           [
             Resistor
               {
                 name = Printf.sprintf "r%d" i;
                 a = node i;
                 b = node (i + 1);
                 r = 1e3;
               };
             Capacitor
               {
                 name = Printf.sprintf "c%d" i;
                 a = node (i + 1);
                 b = ground;
                 c = 1e-9;
               };
           ]))
  in
  make
    ~title:(Printf.sprintf "rc ladder, %d sections" n)
    (Vsource { name = "vin"; p = node 0; n = ground; dc = 1.0; ac = 1.0 }
    :: sections)

let sweep_testbench () =
  let row = List.nth (opamp_rows ()) 2 in
  let design = S.Opamp_problem.ape_design proc row in
  let frag = E.Opamp.fragment proc design in
  let base = E.Fragment.with_supply ~vdd:5.0 frag in
  let vcm = design.E.Opamp.input_cm in
  let nl =
    Ape_circuit.Netlist.append base
      [
        Ape_circuit.Netlist.Vsource
          { name = "VINP"; p = "inp"; n = "0"; dc = vcm; ac = 0.5 };
        Ape_circuit.Netlist.Vsource
          { name = "VINN"; p = "inn"; n = "0"; dc = vcm; ac = -0.5 };
        Ape_circuit.Netlist.Capacitor
          { name = "CLSW"; a = "out"; b = "0"; c = 10e-12 };
      ]
  in
  (row, Ape_spice.Dc.solve nl)

let run_sweep () =
  heading "Blocked AC sweeps: frequency panels vs per-frequency refactors";
  let module Ac = Ape_spice.Ac in
  let row, op = sweep_testbench () in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in

  (* Estimation cache over a real annealing run: how often the annealer
     revisits a quantised sizing point.  Random start, no early stop, so
     the full move budget exercises the cache. *)
  let rng = Ape_util.Rng.create 7 in
  let design = S.Opamp_problem.ape_design proc row in
  let problem =
    S.Opamp_problem.build proc ~mode:(S.Opamp_problem.Ape_centered 0.2) row
      design
  in
  let dim = problem.S.Opamp_problem.dim in
  let _best, stats =
    S.Anneal.optimize ~schedule:synth_schedule ~rng ~dim
      ~cost:problem.S.Opamp_problem.cost
      ~start:(fun rng ->
        Array.init dim (fun _ -> Ape_util.Rng.uniform rng 0. 1.))
      ()
  in
  let lookups = S.Est_cache.lookups problem.S.Opamp_problem.cache
  and hits = S.Est_cache.hits problem.S.Opamp_problem.cache in
  let hit_rate = float_of_int hits /. Float.max 1. (float_of_int lookups) in
  pf "annealing estimation cache (row oa2, %d evaluations):\n"
    stats.S.Anneal.evaluations;
  pf "  lookups %d, hits %d, hit rate %.1f %%\n" lookups hits
    (100. *. hit_rate);

  (* Blocked frequency panels vs the per-frequency path (width 1) on a
     200-section ladder.  One preparation serves every width. *)
  let k0 = Ac.panel_width () in
  let gate_n = if fast_mode then 120 else 200 in
  let ladder_grid =
    Ac.sweep_frequencies ~points_per_decade:10 ~fstart:1e2 ~fstop:1e8 ()
  in
  let ladder_pts = List.length ladder_grid in
  let panel_passes = if fast_mode then 20 else 40 in
  let ladder_prep = Ac.prepare (Ape_spice.Dc.solve (ladder_deck gate_n)) in
  let rate_at_width width =
    Ac.set_panel_width width;
    ignore (Ac.sweep_prepared ladder_prep ladder_grid);
    let t =
      time (fun () ->
          for _ = 1 to panel_passes do
            ignore (Ac.sweep_prepared ladder_prep ladder_grid)
          done)
    in
    float_of_int (panel_passes * ladder_pts) /. Float.max 1e-9 t
  in
  let scalar_rate = rate_at_width 1 in
  let width_curve =
    List.map (fun w -> (w, rate_at_width w)) [ 2; 4; 8; 16; 32 ]
  in
  let blocked_rate = List.assoc 8 width_curve in
  let blocked_speedup = blocked_rate /. Float.max 1e-9 scalar_rate in
  pf "\nblocked frequency panels (%d-section ladder, %d-point grid):\n"
    gate_n ladder_pts;
  print_string
    (Table.render
       ~header:[ "panel width"; "solves/s"; "vs scalar" ]
       (List.map
          (fun (w, r) ->
            [
              string_of_int w; eng r;
              Printf.sprintf "%.2fx" (r /. Float.max 1e-9 scalar_rate);
            ])
          ((1, scalar_rate) :: width_curve)));
  (* Panel-vs-scalar bit identity over the whole sweep. *)
  let points_at width =
    Ac.set_panel_width width;
    (Ac.sweep_prepared ladder_prep ladder_grid).Ac.points
  in
  let bit_identical =
    List.for_all2
      (fun (a : Ac.solution) (b : Ac.solution) ->
        a.Ac.freq = b.Ac.freq
        && Array.for_all2
             (fun (x : Complex.t) (y : Complex.t) ->
               x.Complex.re = y.Complex.re && x.Complex.im = y.Complex.im)
             a.Ac.x b.Ac.x)
      (points_at 1) (points_at 8)
  in
  pf "panel vs per-frequency bit-identical: %b\n" bit_identical;
  (* Workspace churn: a repeated sweep reuses the preparation's cached
     workspace, so it clones none. *)
  Ac.set_panel_width 8;
  ignore (Ac.sweep_prepared ladder_prep ladder_grid);
  let obs_was = Ape_obs.enabled () in
  Ape_obs.enable ();
  Ape_obs.reset ();
  ignore (Ac.sweep_prepared ladder_prep ladder_grid);
  let blocked_workspaces =
    Option.value ~default:0
      (List.assoc_opt "ac.workspaces" (Ape_obs.snapshot ()).Ape_obs.counters)
  in
  if not obs_was then Ape_obs.disable ();
  pf "workspace clones per repeated %d-point sweep: %d\n" ladder_pts
    blocked_workspaces;
  Ac.set_panel_width k0;

  (* Adjoint noise: one transposed solve per frequency covers every
     source, counter-verified. *)
  let noise_sources =
    List.length (Ape_spice.Noise.noise_sources op 1e3)
  in
  let obs_was = Ape_obs.enabled () in
  Ape_obs.enable ();
  Ape_obs.reset ();
  let nprep = Ac.prepare op in
  ignore (Ape_spice.Noise.output_noise_prepared ~out:"out" ~freq:1e3 nprep);
  let adjoint_solves =
    Option.value ~default:0
      (List.assoc_opt "noise.adjoint_solves"
         (Ape_obs.snapshot ()).Ape_obs.counters)
  in
  if not obs_was then Ape_obs.disable ();
  pf "\nnoise at one frequency (%d sources): %d adjoint solve(s)\n"
    noise_sources adjoint_solves;

  let oc = open_out "BENCH_sweep.json" in
  Printf.fprintf oc
    "{\n\
    \  \"anneal_cache_lookups\": %d,\n\
    \  \"anneal_cache_hits\": %d,\n\
    \  \"anneal_cache_hit_rate\": %.4f,\n\
    \  \"panel_sections\": %d,\n\
    \  \"panel_grid_points\": %d,\n\
    \  \"panel_scalar_solves_per_sec\": %.1f,\n\
    \  \"panel_width_curve\": [%s],\n\
    \  \"panel_blocked_solves_per_sec\": %.1f,\n\
    \  \"blocked_speedup\": %.2f,\n\
    \  \"panel_bit_identical\": %b,\n\
    \  \"blocked_workspaces_per_sweep\": %d,\n\
    \  \"noise_sources\": %d,\n\
    \  \"noise_adjoint_solves\": %d\n\
     }\n"
    lookups hits hit_rate gate_n ladder_pts scalar_rate
    (String.concat ", "
       (List.map
          (fun (w, r) ->
            Printf.sprintf "{\"width\": %d, \"solves_per_sec\": %.1f}" w r)
          ((1, scalar_rate) :: width_curve)))
    blocked_rate blocked_speedup bit_identical blocked_workspaces
    noise_sources adjoint_solves;
  close_out oc;
  pf "\nwrote BENCH_sweep.json\n"

(* ------------------------------------------------------------------ *)
(* Observability overhead: the same prepared 181-point sweep with the  *)
(* metrics registry disabled vs enabled.  Two gates ride on this       *)
(* experiment: the solutions must stay bit-identical, and ci.sh        *)
(* rejects an overhead above 2%.  Emits BENCH_obs.json.                *)
(* ------------------------------------------------------------------ *)

let run_obs_overhead () =
  heading
    "Observability overhead: 181-point prepared sweep, registry off vs on";
  let module Ac = Ape_spice.Ac in
  let _row, op = sweep_testbench () in
  let prep = Ac.prepare op in
  let grid =
    Ac.sweep_frequencies ~points_per_decade:20 ~fstart:1. ~fstop:1e9 ()
  in
  let n_grid = List.length grid in
  let sweep_once () = List.map (fun f -> Ac.solve_prepared prep f) grid in
  (* Calibrate the repeat count so one trial runs ~0.4 s: long enough to
     drown scheduler noise, short enough for five trials per setting. *)
  Ape_obs.disable ();
  ignore (sweep_once ());
  let t1 =
    let t0 = Unix.gettimeofday () in
    ignore (sweep_once ());
    Unix.gettimeofday () -. t0
  in
  let target = if fast_mode then 0.1 else 0.4 in
  let repeats =
    max 3 (int_of_float (Float.round (target /. Float.max 1e-6 t1)))
  in
  let trials = 5 in
  let time_trials () =
    (* Best of [trials]: a GC major slice or a preempt inflates a trial,
       never deflates one, so the minimum is the honest estimate. *)
    let best = ref infinity in
    for _ = 1 to trials do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to repeats do
        ignore (sweep_once ())
      done;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let sols_off = sweep_once () in
  let t_off = time_trials () in
  Ape_obs.enable ();
  Ape_obs.reset ();
  ignore (sweep_once ());
  let sols_on = sweep_once () in
  let t_on = time_trials () in
  Ape_obs.disable ();
  let identical =
    List.for_all2
      (fun (a : Ac.solution) (b : Ac.solution) ->
        a.Ac.freq = b.Ac.freq
        && Array.for_all2
             (fun (p : Complex.t) (q : Complex.t) ->
               Int64.equal
                 (Int64.bits_of_float p.Complex.re)
                 (Int64.bits_of_float q.Complex.re)
               && Int64.equal
                    (Int64.bits_of_float p.Complex.im)
                    (Int64.bits_of_float q.Complex.im))
             a.Ac.x b.Ac.x)
      sols_off sols_on
  in
  let solves = float_of_int (repeats * n_grid) in
  let rate t = solves /. Float.max 1e-9 t in
  let overhead_pct = 100. *. (t_on -. t_off) /. Float.max 1e-9 t_off in
  print_string
    (Table.render
       ~header:[ "registry"; "solves"; "seconds (best of 5)"; "solves/s" ]
       [
         [
           "disabled"; string_of_int (repeats * n_grid);
           Printf.sprintf "%.4f" t_off; eng (rate t_off);
         ];
         [
           "enabled"; string_of_int (repeats * n_grid);
           Printf.sprintf "%.4f" t_on; eng (rate t_on);
         ];
       ]);
  pf "solutions bit-identical with registry on: %b\n" identical;
  pf "observability overhead: %+.2f %%  (grid: %d points, 1 Hz .. 1 GHz)\n"
    overhead_pct n_grid;
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    "{\n\
    \  \"grid_points\": %d,\n\
    \  \"repeats\": %d,\n\
    \  \"trials\": %d,\n\
    \  \"off_seconds\": %.6f,\n\
    \  \"on_seconds\": %.6f,\n\
    \  \"off_solves_per_sec\": %.1f,\n\
    \  \"on_solves_per_sec\": %.1f,\n\
    \  \"overhead_pct\": %.4f,\n\
    \  \"bit_identical\": %b\n\
     }\n"
    n_grid repeats trials t_off t_on (rate t_off) (rate t_on) overhead_pct
    identical;
  close_out oc;
  pf "wrote BENCH_obs.json\n";
  if not identical then begin
    pf "FAIL: instrumentation changed numeric results\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Multi-start chains: sequential vs multi-chain wall time to reach    *)
(* the same cost target on an opamp synthesis workload.  The target is *)
(* the sequential engine's own final cost, so the question is exactly  *)
(* "how much sooner do K independent chains find something at least    *)
(* this good".  Emits BENCH_anneal.json; ci.sh gates on the speedup.   *)
(* ------------------------------------------------------------------ *)

let run_anneal () =
  heading "Multi-start chains: time to the sequential engine's final cost";
  let env_int name default =
    match Sys.getenv_opt name with Some s -> int_of_string s | None -> default
  in
  let row = List.nth (opamp_rows ()) (env_int "APE_BENCH_ROW" 6) in
  let seed = env_int "APE_BENCH_SEED" 1 in
  let chains = env_int "APE_BENCH_CHAINS" 4 in
  let mode = S.Opamp_problem.Wide in
  let schedule =
    if fast_mode then S.Anneal.quick_schedule else S.Anneal.default_schedule
  in
  let design = S.Opamp_problem.strawman_design proc row in
  (* A fresh problem per engine run: each gets its own cache, so the
     before/after hit rates are honest. *)
  let fresh () = S.Opamp_problem.build proc ~mode row design in
  let sequential ~stop_below =
    let problem = fresh () in
    let rng = Ape_util.Rng.create seed in
    let _best, stats =
      S.Anneal.optimize ~schedule ~stop_below ~rng
        ~dim:problem.S.Opamp_problem.dim ~cost:problem.S.Opamp_problem.cost
        ~start:problem.S.Opamp_problem.start ()
    in
    (stats, problem.S.Opamp_problem.cache)
  in
  (* Pass 1: the full sequential anneal fixes the target cost. *)
  let final_stats, _ = sequential ~stop_below:neg_infinity in
  let target = final_stats.S.Anneal.best_cost *. 1.0001 in
  pf "sequential final cost (%d evaluations): %.6f\n"
    final_stats.S.Anneal.evaluations final_stats.S.Anneal.best_cost;
  (* Pass 2: the same trajectory again, stopping the moment the target
     is reached — the sequential time-to-target. *)
  let seq_stats, seq_cache = sequential ~stop_below:target in
  let seq_hit_rate = S.Est_cache.hit_rate seq_cache in
  pf "sequential time-to-target: %.3f s (%d evaluations, cache %.1f%%)\n"
    seq_stats.S.Anneal.seconds seq_stats.S.Anneal.evaluations
    (100. *. seq_hit_rate);
  (* Pass 3: the chains race to the same target, all sharing one
     sharded cache. *)
  let problem = fresh () in
  let rng = Ape_util.Rng.create seed in
  let _best, pt_stats =
    S.Anneal.optimize ~schedule ~stop_below:target ~chains ~rng
      ~dim:problem.S.Opamp_problem.dim
      ~cost:problem.S.Opamp_problem.cost
      ~start:problem.S.Opamp_problem.start ()
  in
  let pt_cache = problem.S.Opamp_problem.cache in
  let pt_hit_rate = S.Est_cache.hit_rate pt_cache in
  let reached = pt_stats.S.Anneal.best_cost < target in
  let speedup =
    seq_stats.S.Anneal.seconds /. Float.max 1e-9 pt_stats.S.Anneal.seconds
  in
  pf "%d-chain time-to-target:   %.3f s (%d evaluations, cache %.1f%%)\n"
    chains pt_stats.S.Anneal.seconds pt_stats.S.Anneal.evaluations
    (100. *. pt_hit_rate);
  pf "target %s, speedup %.2fx\n"
    (if reached then "reached" else "NOT reached")
    speedup;
  let oc = open_out "BENCH_anneal.json" in
  Printf.fprintf oc
    "{\n\
    \  \"row\": %S,\n\
    \  \"seed\": %d,\n\
    \  \"chains\": %d,\n\
    \  \"max_evaluations\": %d,\n\
    \  \"target_cost\": %.6f,\n\
    \  \"target_reached\": %b,\n\
    \  \"seq_seconds\": %.4f,\n\
    \  \"seq_evaluations\": %d,\n\
    \  \"seq_cache_hit_rate\": %.4f,\n\
    \  \"pt_seconds\": %.4f,\n\
    \  \"pt_evaluations\": %d,\n\
    \  \"pt_cache_hit_rate\": %.4f,\n\
    \  \"speedup\": %.2f\n\
     }\n"
    row.S.Opamp_problem.name seed chains schedule.S.Anneal.max_evaluations
    target reached seq_stats.S.Anneal.seconds seq_stats.S.Anneal.evaluations
    seq_hit_rate pt_stats.S.Anneal.seconds pt_stats.S.Anneal.evaluations
    pt_hit_rate speedup;
  close_out oc;
  pf "wrote BENCH_anneal.json\n"

(* ------------------------------------------------------------------ *)
(* serve: batch-service throughput, cold start vs warm shared cache.   *)
(* Emits BENCH_serve.json; ci.sh gates the speedup at >= 2x.           *)
(* ------------------------------------------------------------------ *)

let run_serve () =
  heading "Serve: 8-synth-job batch, cold start vs warm estimate cache";
  let module Sv = Ape_serve in
  let batch_text =
    (* Two distinct problems x four seeds: the warm pass exercises both
       cross-job sharing (same fingerprint, different seed explores
       overlapping regions) and the bit-identical replay of each
       trajectory. *)
    String.concat "\n"
      (List.concat_map
         (fun (gain, ugf) ->
           List.map
             (fun seed ->
               Printf.sprintf
                 "(job synth (id g%g-s%d) (gain %g) (ugf %g) (seed %d) \
                  (schedule quick))"
                 gain seed gain ugf seed)
             [ 1; 2; 3; 4 ])
         [ (200., 2e6); (150., 1e6) ])
  in
  let batch = Sv.Job.parse_batch batch_text in
  let n_jobs = List.length batch in
  let config =
    { Sv.Scheduler.default with Sv.Scheduler.jobs = 1; queue = 16 }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Cold: every job pays a fresh runner — empty caches, as if each
     request spun up its own process. *)
  let (), cold_seconds =
    time (fun () ->
        List.iter
          (fun input ->
            let runner = Sv.Runner.create proc in
            ignore
              (Sv.Scheduler.run_batch config runner ~batch:"cold"
                 ~emit:ignore [ input ]))
          batch)
  in
  (* Warm: one daemon-lifetime runner; the first pass fills the
     per-fingerprint caches, the measured second pass replays against
     them. *)
  let runner = Sv.Runner.create proc in
  ignore
    (Sv.Scheduler.run_batch config runner ~batch:"warmup" ~emit:ignore batch);
  let summary, warm_seconds =
    time (fun () ->
        Sv.Scheduler.run_batch config runner ~batch:"warm" ~emit:ignore batch)
  in
  let hit_rate =
    if summary.Sv.Record.cache_lookups = 0 then 0.
    else
      float_of_int summary.Sv.Record.cache_hits
      /. float_of_int summary.Sv.Record.cache_lookups
  in
  let cold_rate = float_of_int n_jobs /. Float.max 1e-9 cold_seconds in
  let warm_rate = float_of_int n_jobs /. Float.max 1e-9 warm_seconds in
  let speedup = cold_seconds /. Float.max 1e-9 warm_seconds in
  pf "cold (fresh runner per job): %.3f s  (%.1f jobs/s)\n" cold_seconds
    cold_rate;
  pf "warm (shared runner, 2nd pass): %.3f s  (%.1f jobs/s, cache %.1f%%)\n"
    warm_seconds warm_rate (100. *. hit_rate);
  pf "speedup %.2fx\n" speedup;
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    "{\n\
    \  \"jobs\": %d,\n\
    \  \"cold_seconds\": %.4f,\n\
    \  \"warm_seconds\": %.4f,\n\
    \  \"cold_jobs_per_sec\": %.2f,\n\
    \  \"warm_jobs_per_sec\": %.2f,\n\
    \  \"warm_cache_hit_rate\": %.4f,\n\
    \  \"speedup\": %.2f\n\
     }\n"
    n_jobs cold_seconds warm_seconds cold_rate warm_rate hit_rate speedup;
  close_out oc;
  pf "wrote BENCH_serve.json\n"

(* ------------------------------------------------------------------ *)
(* calib: grid-sample the opamp spec space, fit a calibration card and *)
(* measure the Tables 2/3/5 catalog error with and without it.  ci.sh  *)
(* gates cal_max_err <= raw_max_err (and the jobs-1-vs-3 card diff via *)
(* ape calibrate).  Emits BENCH_calib.json.                            *)
(* ------------------------------------------------------------------ *)

let run_calib () =
  heading "Calibration: grid-fitted card vs raw catalog error";
  let module C = Ape_check in
  let module Cal = Ape_calib in
  let points = if fast_mode then 8 else 16 in
  let spec = { Cal.Grid.default with Cal.Grid.points; seed = 7 } in
  let t0 = Unix.gettimeofday () in
  let grid = Cal.Grid.run proc spec in
  let grid_seconds = Unix.gettimeofday () -. t0 in
  let points_per_s = float_of_int points /. Float.max 1e-9 grid_seconds in
  pf "grid: %d points (%d evaluated, %d skipped) in %.2f s (%.1f pts/s)\n"
    points grid.Cal.Grid.evaluated grid.Cal.Grid.skipped grid_seconds
    points_per_s;
  let card = C.Calibrate.fit ~slew:false ~extra:grid.Cal.Grid.samples proc in
  let non_identity =
    List.length
      (List.filter
         (fun e -> not (Cal.Card.is_identity e.Cal.Card.corr))
         card.Cal.Card.entries)
  in
  pf "card: %d fits (%d non-identity)\n"
    (List.length card.Cal.Card.entries)
    non_identity;
  let outcome = C.Check.run ~slew:false ~calibration:card proc in
  let errors =
    List.filter
      (fun e -> Cal.Fit.calibratable e.C.Golden.e_attr)
      (C.Check.error_table outcome)
  in
  pf "%-8s %-12s %9s %9s\n" "level" "attr" "raw max" "cal max";
  List.iter
    (fun e ->
      pf "%-8s %-12s %8.2f%% %8.2f%%\n" e.C.Golden.e_level e.C.Golden.e_attr
        (100. *. e.C.Golden.raw_max)
        (100. *. e.C.Golden.cal_max))
    errors;
  let max_of f =
    List.fold_left (fun acc e -> Float.max acc (f e)) 0. errors
  in
  let raw_max_err = max_of (fun e -> e.C.Golden.raw_max) in
  let cal_max_err = max_of (fun e -> e.C.Golden.cal_max) in
  let improved = cal_max_err < raw_max_err in
  pf "catalog max error: raw %.2f%% -> calibrated %.2f%% (%s)\n"
    (100. *. raw_max_err) (100. *. cal_max_err)
    (if improved then "improved" else "no improvement");
  let oc = open_out "BENCH_calib.json" in
  Printf.fprintf oc
    "{\n\
    \  \"grid_points\": %d,\n\
    \  \"evaluated\": %d,\n\
    \  \"skipped\": %d,\n\
    \  \"grid_seconds\": %.4f,\n\
    \  \"points_per_sec\": %.2f,\n\
    \  \"fits\": %d,\n\
    \  \"non_identity_fits\": %d,\n\
    \  \"raw_max_err\": %.6f,\n\
    \  \"cal_max_err\": %.6f,\n\
    \  \"improved\": %b\n\
     }\n"
    points grid.Cal.Grid.evaluated grid.Cal.Grid.skipped grid_seconds
    points_per_s
    (List.length card.Cal.Card.entries)
    non_identity raw_max_err cal_max_err improved;
  close_out oc;
  pf "wrote BENCH_calib.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table.                 *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  [
    Test.make ~name:"table1_ape_front_end"
      (Staged.stage (fun () ->
           ignore (Ape_synth.Opamp_problem.ape_design proc (List.hd (opamp_rows ())))));
    Test.make ~name:"table2_basic_estimates"
      (Staged.stage (fun () ->
           ignore
             (E.Diff_pair.design proc
                (E.Diff_pair.spec ~av:1000. E.Diff_pair.Cmos_mirror
                   ~itail:1e-6))));
    Test.make ~name:"table3_opamp_estimate"
      (Staged.stage (fun () ->
           ignore
             (E.Opamp.design proc
                (E.Opamp.spec ~av:206. ~ugf:1.3e6 ~ibias:1e-6 ()))));
    Test.make ~name:"table4_cost_eval_relaxed"
      (Staged.stage
         (let row = List.hd (opamp_rows ()) in
          let design = Ape_synth.Opamp_problem.ape_design proc row in
          let problem =
            Ape_synth.Opamp_problem.build proc
              ~mode:(Ape_synth.Opamp_problem.Ape_centered 0.2) row design
          in
          let rng = Ape_util.Rng.create 3 in
          let point = problem.Ape_synth.Opamp_problem.start rng in
          fun () -> ignore (problem.Ape_synth.Opamp_problem.cost point)));
    Test.make ~name:"table5_module_estimate"
      (Staged.stage (fun () ->
           ignore
             (Ape_synth.Module_problem.ape_module proc
                (Ape_synth.Module_problem.M_lpf { order = 4; f_cutoff = 1e3 }))));
    Test.make ~name:"ablation_awe_dominant_pole"
      (Staged.stage
         (let row = List.hd (opamp_rows ()) in
          let design = Ape_synth.Opamp_problem.ape_design proc row in
          let frag = E.Opamp.fragment proc design in
          let nl = E.Fragment.with_supply ~vdd:5.0 frag in
          let nl =
            Ape_circuit.Netlist.append nl
              [
                Ape_circuit.Netlist.Vsource
                  { name = "VINP"; p = "inp"; n = "0"; dc = 2.5; ac = 0.5 };
                Ape_circuit.Netlist.Vsource
                  { name = "VINN"; p = "inn"; n = "0"; dc = 2.5; ac = -0.5 };
                Ape_circuit.Netlist.Capacitor
                  { name = "CL"; a = "out"; b = "0"; c = 10e-12 };
              ]
          in
          let op = Ape_spice.Dc.solve nl in
          fun () -> ignore (Ape_spice.Awe.pade ~q:2 ~out:"out" op)));
  ]

let run_micro () =
  heading "Bechamel micro-benchmarks (monotonic clock)";
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.8) ~kde:(Some 500) ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all
             (Analyze.ols ~bootstrap:0 ~r_square:false
                ~predictors:[| Measure.run |])
             Toolkit.Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> pf "  %-28s %12.1f ns/run\n" name est
          | Some _ | None -> pf "  %-28s (no estimate)\n" name)
        results)
    (micro_tests ())

(* ------------------------------------------------------------------ *)

let all () =
  run_table2 ();
  run_table3 ();
  run_hierarchy ();
  run_ape_timing ();
  run_table1 ();
  run_table4 ();
  run_table5 ();
  run_ablation ();
  run_mc ();
  run_sweep ();
  run_obs_overhead ();
  run_anneal ();
  run_serve ();
  run_calib ();
  run_micro ()

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "table1" -> run_table1 ()
  | "table2" -> run_table2 ()
  | "table3" -> run_table3 ()
  | "table4" -> run_table4 ()
  | "synth-seeds" -> run_synth_seeds ()
  | "table5" -> run_table5 ()
  | "hierarchy" -> run_hierarchy ()
  | "timing" -> run_ape_timing ()
  | "ablation" -> run_ablation ()
  | "mc" -> run_mc ()
  | "sweep" -> run_sweep ()
  | "obs-overhead" -> run_obs_overhead ()
  | "anneal" -> run_anneal ()
  | "serve" -> run_serve ()
  | "calib" -> run_calib ()
  | "micro" -> run_micro ()
  | "all" -> all ()
  | other ->
    pf
      "unknown experiment %s (table1..table5, synth-seeds [N], hierarchy, \
       timing, ablation, mc, sweep, obs-overhead, anneal, serve, calib, \
       micro, all)\n"
      other;
    exit 1
