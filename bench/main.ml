(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md experiment index), registers one Bechamel
   micro-benchmark per table for the estimation workloads, and runs the
   speed and calibration gates ci.sh holds the extensions to.

   Usage:
     dune exec bench/main.exe            # every experiment, then the gates
     dune exec bench/main.exe table4     # one experiment
     dune exec bench/main.exe synth-seeds 30   # Table 1 search quality
     dune exec bench/main.exe gate       # the gates; exit 1 if one fails
     dune exec bench/main.exe micro      # bechamel micro-benchmarks only *)

module E = Ape_estimator
module S = Ape_synth
module F = Ape_bench_lib.Fixtures
module Units = Ape_util.Units
module Table = Ape_util.Table

let proc = F.proc
let pf = Printf.printf

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

let synth_table mode title =
  heading title;
  let rng = Ape_util.Rng.create 1999 in
  let results =
    List.map
      (fun row -> S.Driver.run ~schedule:F.table_schedule ~rng proc ~mode row)
      (F.opamp_rows ())
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
        S.Driver.run ~schedule:F.table_schedule ~rng proc
          ~mode:(S.Opamp_problem.Ape_centered 0.2) row)
      (F.opamp_rows ())
  in
  (* The speed-up is the share of Table 1's evaluations the APE start
     saves: evaluation counts are deterministic, where single anneal
     timings of a few milliseconds are not. *)
  let rows =
    List.map2
      (fun (r : S.Driver.result) (base : S.Driver.result) ->
        let evals (x : S.Driver.result) = x.S.Driver.stats.S.Anneal.evaluations in
        let saved =
          float_of_int (evals base - evals r) /. float_of_int (evals base)
        in
        [
          r.S.Driver.row.S.Opamp_problem.name;
          opt (Printf.sprintf "%.2f") r.S.Driver.gain;
          opt eng r.S.Driver.ugf;
          um2 r.S.Driver.area;
          eng r.S.Driver.power;
          Printf.sprintf "%.2f" r.S.Driver.stats.S.Anneal.seconds;
          string_of_int (evals r);
          Table.cell_pct saved;
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
           "evals";
           "speed-up (evals)";
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
  let rows = F.opamp_rows () in
  let table =
    List.map
      (fun (label, mode) ->
        let runs =
          List.map
            (fun row ->
              ( row,
                List.init seeds (fun s ->
                    S.Driver.run ~schedule:F.table_schedule
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

(* The spec line printed above each of [F.table5_kinds]. *)
let spec_line = function
  | S.Module_problem.M_sh _ -> "gain=2.0, BW=20kHz, SR=1e4 V/s"
  | S.Module_problem.M_audio _ -> "gain=100, BW=20kHz"
  | S.Module_problem.M_adc _ -> "bits=4, delay=5us"
  | S.Module_problem.M_lpf _ -> "type=SK flat, order=4, f-3dB=1kHz"
  | S.Module_problem.M_bpf _ -> "type=MFB flat, order=2, f0=1kHz"

let metric_label = function
  | "bandwidth" -> "BW"
  | "f3db" -> "f-3dB"
  | "f20db" -> "f-20dB"
  | key -> key

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
    (fun kind ->
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
        S.Module_problem.run ~schedule:F.table_schedule ~rng proc
          ~mode:S.Module_problem.Wide ~area_max:area_budget kind
      in
      let with_ape =
        S.Module_problem.run ~schedule:F.table_schedule ~rng proc
          ~mode:(S.Module_problem.Ape_centered 0.2) ~area_max:area_budget
          kind
      in
      let sa_m = synth_metrics standalone
      and ape_m = synth_metrics with_ape in
      pf "\n[%s]  spec: %s\n" name (spec_line kind);
      let metric_of key l = List.assoc_opt key l in
      let fmt = opt (fun v -> eng v) in
      let rows =
        List.map
          (fun key ->
            [
              metric_label key;
              fmt (metric_of key sa_m);
              fmt (metric_of key est);
              fmt (metric_of key sim);
              fmt (metric_of key ape_m);
            ])
          (F.spec_keys kind)
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
    F.table5_kinds

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
  List.iter show F.table5_kinds

(* ------------------------------------------------------------------ *)
(* CPU-time claim (paper 5): APE runs in ~0.1 s for all designs.       *)
(* ------------------------------------------------------------------ *)

let run_ape_timing () =
  heading "APE estimation cost (paper: 0.12 s for all ten opamps)";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun row -> ignore (S.Opamp_problem.ape_design proc row))
    (F.opamp_rows ());
  let t_opamps = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun kind -> ignore (S.Module_problem.ape_module proc kind))
    F.table5_kinds;
  let t_modules = Unix.gettimeofday () -. t0 in
  pf "ten opamp estimations:   %.4f s\n" t_opamps;
  pf "five module estimations: %.4f s\n" t_modules

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out.                  *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  heading "Ablation D4: interval width around the APE point (row oa5)";
  let row = List.nth (F.opamp_rows ()) 5 in
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
          S.Anneal.optimize ~schedule:F.table_schedule ~stop_below:0.05 ~rng
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
      S.Driver.run ~schedule:F.table_schedule ~rng proc
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
  let row2 = List.nth (F.opamp_rows ()) 2 in
  let base =
    E.Verify.opamp_testbench proc ~cl:10e-12
      (S.Opamp_problem.ape_design proc row2)
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
  let samples = 2_000 in
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
(* gate: the extensions' speed and calibration claims that ci.sh holds *)
(* them to.  Each timing gate runs Ape_gate's interleaved trials.  One  *)
(* row per gate; exits 1 if any gate fails.                            *)
(* ------------------------------------------------------------------ *)

module Ac = Ape_spice.Ac

let timed f =
  let t0 = Ape_util.Clock.now_s () in
  let r = f () in
  (r, Ape_util.Clock.elapsed_s t0)

(* A block of [n] runs of [f]; returns its seconds. *)
let block n f () = snd (timed (fun () -> for _ = 1 to n do ignore (f ()) done))

let same_bits xs ys =
  let bits (z : Complex.t) =
    (Int64.bits_of_float z.Complex.re, Int64.bits_of_float z.Complex.im)
  in
  List.for_all2
    (fun (a : Ac.solution) (b : Ac.solution) ->
      a.Ac.freq = b.Ac.freq
      && Array.for_all2 (fun p q -> bits p = bits q) a.Ac.x b.Ac.x)
    xs ys

let verdict pass failed =
  if pass then "PASS" else String.concat "; " ("FAIL" :: failed)

(* A timing gate's row and verdict.  Each condition must hold as well;
   its message names what went wrong when it does not. *)
let timing_row gate fmt bound trials conditions =
  let failed =
    List.filter_map (fun (msg, ok) -> if ok then None else Some msg) conditions
  in
  let pass = Ape_gate.passes bound trials && failed = [] in
  let quartile, threshold =
    match bound with
    | Ape_gate.At_most t -> ("q3", "<= " ^ fmt t)
    | Ape_gate.At_least t -> ("q1", ">= " ^ fmt t)
  in
  ( [
      gate;
      String.concat " " (List.map fmt trials);
      Printf.sprintf "%s (%s)" (fmt (Ape_gate.statistic bound trials)) quartile;
      threshold;
      verdict pass failed;
    ],
    pass )

(* Registry on over registry off on the 181-point prepared sweep of row
   oa2's opamp bench, as a percentage. *)
let obs_gate () =
  let design = S.Opamp_problem.ape_design proc (List.nth (F.opamp_rows ()) 2) in
  let prep =
    Ac.prepare
      (Ape_spice.Dc.solve (E.Verify.opamp_testbench proc ~cl:10e-12 design))
  in
  let grid =
    Ac.sweep_frequencies ~points_per_decade:20 ~fstart:1. ~fstop:1e9 ()
  in
  let sweep () = List.map (Ac.solve_prepared prep) grid in
  let observed on f =
    if on then Ape_obs.enable () else Ape_obs.disable ();
    Fun.protect ~finally:Ape_obs.disable f
  in
  let identical = same_bits (observed false sweep) (observed true sweep) in
  let trials =
    Ape_gate.run ~pairs:40
      ~a:(fun () -> observed true (block 40 sweep))
      ~b:(fun () -> observed false (block 40 sweep))
  in
  timing_row "obs overhead, %" (Printf.sprintf "%+.2f") (Ape_gate.At_most 2.)
    (List.map (fun r -> 100. *. (r -. 1.)) trials)
    [ ("obs changes the solutions", identical) ]

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

(* Per-frequency refactors ([Ac.solve_prepared] at every point) over
   the blocked panels of [Ac.sweep_prepared] on a 200-section RC
   ladder's 61-point sweep. *)
let blocked_gate () =
  let prep = Ac.prepare (Ape_spice.Dc.solve (ladder_deck 200)) in
  let grid =
    Ac.sweep_frequencies ~points_per_decade:10 ~fstart:1e2 ~fstop:1e8 ()
  in
  let scalar () = List.map (Ac.solve_prepared prep) grid in
  let blocked () = (Ac.sweep_prepared prep grid).Ac.points in
  let identical = same_bits (scalar ()) (blocked ()) in
  let trials =
    Ape_gate.run ~pairs:30 ~a:(block 4 scalar) ~b:(block 4 blocked)
  in
  timing_row "blocked sweep, x" (Printf.sprintf "%.2f") (Ape_gate.At_least 2.)
    trials
    [ ("panels change the solutions", identical) ]

(* One chain over four, each annealing row oa6 from seed 1 on a fresh
   problem (and cache) until it reaches the full sequential anneal's
   final cost. *)
let chains_gate () =
  let row = List.nth (F.opamp_rows ()) 6 in
  let design = S.Opamp_problem.strawman_design proc row in
  let anneal ~chains ~stop_below =
    let p = S.Opamp_problem.build proc ~mode:S.Opamp_problem.Wide row design in
    snd
      (S.Anneal.optimize ~schedule:S.Anneal.default_schedule ~stop_below
         ~chains ~rng:(Ape_util.Rng.create 1) ~dim:p.S.Opamp_problem.dim
         ~cost:p.S.Opamp_problem.cost ~start:p.S.Opamp_problem.start ())
  in
  let target =
    (anneal ~chains:1 ~stop_below:neg_infinity).S.Anneal.best_cost *. 1.0001
  in
  let reached = ref true in
  let time_to_target chains () =
    let stats = anneal ~chains ~stop_below:target in
    reached := !reached && stats.S.Anneal.best_cost < target;
    stats.S.Anneal.seconds
  in
  let trials =
    Ape_gate.run ~pairs:6 ~a:(time_to_target 1) ~b:(time_to_target 4)
  in
  timing_row "4-chain time-to-target, x" (Printf.sprintf "%.2f")
    (Ape_gate.At_least 2.) trials
    [ ("a run missed the target", !reached) ]

(* An 8-synth-job batch through a fresh runner (empty caches) per job,
   over the batch through one runner whose caches a first pass filled. *)
let serve_gate () =
  let module Sv = Ape_serve in
  (* Two problems x four seeds: the warm pass exercises both cross-job
     sharing and the bit-identical replay of each trajectory. *)
  let batch =
    Sv.Job.parse_batch
      (String.concat "\n"
         (List.concat_map
            (fun (gain, ugf) ->
              List.map
                (fun seed ->
                  Printf.sprintf
                    "(job synth (id g%g-s%d) (gain %g) (ugf %g) (seed %d) \
                     (schedule quick))"
                    gain seed gain ugf seed)
                [ 1; 2; 3; 4 ])
            [ (200., 2e6); (150., 1e6) ]))
  in
  let config =
    { Sv.Scheduler.default with Sv.Scheduler.jobs = 1; queue = 16 }
  in
  let run runner jobs =
    Sv.Scheduler.run_batch config runner ~batch:"gate" ~emit:ignore jobs
  in
  let cold () =
    snd
      (timed (fun () ->
           List.iter (fun job -> ignore (run (Sv.Runner.create proc) [ job ])) batch))
  in
  let runner = Sv.Runner.create proc in
  ignore (run runner batch);
  let hit = ref true in
  let warm () =
    let summary, seconds = timed (fun () -> run runner batch) in
    hit := !hit && summary.Sv.Record.cache_hits > 0;
    seconds
  in
  let trials = Ape_gate.run ~pairs:2 ~a:cold ~b:warm in
  timing_row "serve warm/cold, x" (Printf.sprintf "%.2f") (Ape_gate.At_least 2.)
    trials
    [ ("a warm pass hit no cache", !hit) ]

(* A card fitted to a 16-point grid against the Tables 2/3/5 catalog:
   its max calibratable error must fall strictly below the raw one, so
   the card does no harm and helps. *)
let calib_gate () =
  let module C = Ape_check in
  let module Cal = Ape_calib in
  let grid =
    Cal.Grid.run proc { Cal.Grid.default with Cal.Grid.points = 16; seed = 7 }
  in
  let card = C.Calibrate.fit ~slew:false ~extra:grid.Cal.Grid.samples proc in
  let errors =
    List.filter
      (fun e -> Cal.Fit.calibratable e.C.Golden.e_attr)
      (C.Check.error_table (C.Check.run ~slew:false ~calibration:card proc))
  in
  let max_of f = List.fold_left (fun acc e -> Float.max acc (f e)) 0. errors in
  let raw = max_of (fun e -> e.C.Golden.raw_max) in
  let cal = max_of (fun e -> e.C.Golden.cal_max) in
  let pass = cal < raw in
  ( [
      "calibrated catalog max error, %";
      Printf.sprintf "raw %.2f" (100. *. raw);
      Printf.sprintf "%.2f" (100. *. cal);
      "< raw";
      verdict pass [];
    ],
    pass )

let run_gate () =
  heading
    (Printf.sprintf
       "Benchmark gates: %d interleaved trials per timing gate, threshold on \
        the unfavourable quartile"
       Ape_gate.trials);
  let rows =
    List.map
      (fun gate -> gate ())
      [ obs_gate; blocked_gate; chains_gate; serve_gate; calib_gate ]
  in
  print_string
    (Table.render
       ~header:[ "gate"; "trials"; "statistic"; "threshold"; "verdict" ]
       (List.map fst rows));
  if not (List.for_all snd rows) then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table.                 *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  [
    Test.make ~name:"table1_ape_front_end"
      (Staged.stage (fun () ->
           ignore (Ape_synth.Opamp_problem.ape_design proc (List.hd (F.opamp_rows ())))));
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
         (let row = List.hd (F.opamp_rows ()) in
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
         (let row = List.hd (F.opamp_rows ()) in
          let design = Ape_synth.Opamp_problem.ape_design proc row in
          let op =
            Ape_spice.Dc.solve (E.Verify.opamp_testbench proc ~cl:10e-12 design)
          in
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
  run_micro ();
  run_gate ()

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
  | "gate" -> run_gate ()
  | "micro" -> run_micro ()
  | "all" -> all ()
  | other ->
    pf
      "unknown experiment %s (table1..table5, synth-seeds [N], hierarchy, \
       timing, ablation, mc, gate, micro, all)\n"
      other;
    exit 1
