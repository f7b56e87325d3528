(* The paper's reference design points, as bench/main.ml uses them for
   Tables 1 and 5: the ten opamp synthesis rows, the five Table 5
   module kinds, the synthesis schedule the tables run with, and the
   estimate/simulation attribute pairs a module is judged on. *)

module E = Ape_estimator
module S = Ape_synth

let proc = Ape_process.Process.c12

(* The tables' schedule (bench/main.ml without APE_BENCH_FAST). *)
let table_schedule =
  {
    S.Anneal.t_start = 1.0;
    t_end = 1e-3;
    cooling = 0.88;
    moves_per_stage = 25;
    max_evaluations = 1_500;
  }

(* The paper's ten specs (Table 1, left), area budgets re-derived as
   1.3x the APE estimate for this process deck. *)
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
      let ape = S.Opamp_problem.ape_design proc proto in
      {
        proto with
        S.Opamp_problem.area = 1.3 *. ape.E.Opamp.perf.E.Perf.gate_area;
      })
    base

(* Table 3's four opamp specs. *)
let table3_specs =
  [
    E.Opamp.spec ~buffer:true ~zout:1e3 ~bias_topology:E.Bias.Wilson ~av:206. ~ugf:1.3e6
      ~ibias:1e-6 ~cl:10e-12 ();
    E.Opamp.spec ~buffer:true ~zout:1e3 ~bias_topology:E.Bias.Wilson ~av:374. ~ugf:8e6
      ~ibias:2e-6 ~cl:10e-12 ();
    E.Opamp.spec ~buffer:true ~zout:2e3 ~bias_topology:E.Bias.Wilson ~av:167. ~ugf:12.4e6
      ~ibias:1.5e-6 ~cl:10e-12 ();
    E.Opamp.spec ~bias_topology:E.Bias.Simple ~av:514. ~ugf:2.6e6 ~ibias:1e-6 ~cl:10e-12 ();
  ]

(* Table 5's five module specs. *)
let table5_kinds =
  [
    S.Module_problem.M_sh { gain = 2.0; bandwidth = 20e3; sr = 1e4 };
    S.Module_problem.M_audio { gain = 100.; bandwidth = 20e3 };
    S.Module_problem.M_adc { bits = 4; delay = 5e-6 };
    S.Module_problem.M_lpf { order = 4; f_cutoff = 1e3 };
    S.Module_problem.M_bpf { f_center = 1e3; q = 1.; gain = 1.5 };
  ]

(* The attributes each module kind is specified by (Table 5's rows). *)
let spec_keys = function
  | S.Module_problem.M_sh _ | S.Module_problem.M_audio _ ->
    [ "gain"; "bandwidth" ]
  | S.Module_problem.M_adc _ -> [ "delay" ]
  | S.Module_problem.M_lpf _ -> [ "gain"; "f3db"; "f20db" ]
  | S.Module_problem.M_bpf _ -> [ "f0"; "gain"; "bandwidth" ]

let somes l = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) l

let module_estimates design =
  let p = E.Module_lib.perf design in
  let extra =
    match design with
    | E.Module_lib.D_lpf d ->
      [ ("f3db", Some d.E.Filter.f3db_est); ("f20db", Some d.E.Filter.f20db_est) ]
    | E.Module_lib.D_bpf d -> [ ("f0", Some d.E.Filter.f0_est) ]
    | E.Module_lib.D_adc d -> [ ("delay", Some d.E.Data_conv.Flash_adc.delay_est) ]
    | E.Module_lib.D_sh _ | E.Module_lib.D_audio _ | E.Module_lib.D_dac _
    | E.Module_lib.D_closed _ | E.Module_lib.D_comp _ ->
      []
  in
  somes
    ([
       ("gain", p.E.Perf.gain);
       ("bandwidth", p.E.Perf.bandwidth);
       ("area", Some p.E.Perf.gate_area);
     ]
    @ extra)

let module_measurements (sim : E.Verify.module_sim) =
  let p = sim.E.Verify.perf in
  somes
    [
      ("gain", p.E.Perf.gain);
      ("bandwidth", p.E.Perf.bandwidth);
      ("f3db", p.E.Perf.bandwidth);
      ("f20db", sim.E.Verify.f_20db);
      ("f0", sim.E.Verify.f0);
      ("delay", sim.E.Verify.response_time);
      ("area", Some p.E.Perf.gate_area);
    ]
