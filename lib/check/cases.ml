module E = Ape_estimator
module Mos = Ape_device.Mos
module Proc = Ape_process.Process
module B = Ape_circuit.Builder

module Card = Ape_calib.Card

let gate_of tols attr =
  match Tolerance.find tols attr with
  | Some t -> t.Tolerance.gate
  | None -> Tolerance.Report_only

(* Re-gate one level's rows through a calibration card.  The card is
   keyed by tolerance-level name; opamp cases carry their own operating
   region (from the spec that produced them), everything else uses the
   region-free [All] entries. *)
let apply_card ?calibration ~level ~region rows =
  match calibration with
  | None -> rows
  | Some card ->
    let level = Tolerance.level_name level in
    List.map
      (Diff.calibrate ~f:(fun attr v ->
           match Card.find card ~level ~attr ~region with
           | None -> None
           | Some e -> Some (Card.correct e.Card.corr v)))
      rows

(* ------------------------------------------------------------------ *)
(* Level 1: single sized transistors.  The estimate side is the sized
   object's closed-form gm/gds/ids (paper eqs. (1)-(4)); the simulation
   side biases the same geometry at the same terminal voltages in the
   MNA engine and reads back the smooth-model values.                  *)
(* ------------------------------------------------------------------ *)

let device_bench ~(process : Proc.t) card ~pmos (sized : Mos.sized) =
  let b = B.create ~title:"level-1 device bench" in
  let w = sized.Mos.geom.Mos.w and l = sized.Mos.geom.Mos.l in
  (if pmos then (
     let vdd = process.Proc.vdd in
     B.vsource b ~p:"vdd" ~n:"0" vdd;
     B.mosfet b card ~d:"d" ~g:"g" ~s:"vdd" ~b:"vdd" ~w ~l;
     B.vsource b ~p:"g" ~n:"0" (vdd -. sized.Mos.vgs);
     B.vsource b ~p:"d" ~n:"0" (vdd -. sized.Mos.vds))
   else (
     B.mosfet b card ~d:"d" ~g:"g" ~s:"0" ~b:"0" ~w ~l;
     B.vsource b ~p:"g" ~n:"0" sized.Mos.vgs;
     B.vsource b ~p:"d" ~n:"0" sized.Mos.vds));
  B.finish b

let device_case ~process ~name card ~pmos spec =
  let sized = Mos.size ~process card spec in
  let netlist = device_bench ~process card ~pmos sized in
  let op = Ape_spice.Dc.solve netlist in
  let sim_ids =
    match Ape_spice.Dc.mosfet_regions op with
    | (_, _, ids) :: _ -> Some (Float.abs ids)
    | [] -> None
  in
  let sim_gm, sim_gds =
    match
      Ape_spice.Engine.mosfet_small_signal op.Ape_spice.Dc.netlist
        op.Ape_spice.Dc.index op.Ape_spice.Dc.x
    with
    | (_, ss) :: _ -> (Some ss.Mos.gm, Some ss.Mos.gds)
    | [] -> (None, None)
  in
  let tols = Tolerance.for_level Tolerance.Device in
  [
    Diff.make ~case:name ~attr:"ids" ~gate:(gate_of tols "ids")
      ~est:(Some sized.Mos.ids) ~sim:sim_ids;
    Diff.make ~case:name ~attr:"gm" ~gate:(gate_of tols "gm")
      ~est:(Some sized.Mos.gm) ~sim:sim_gm;
    Diff.make ~case:name ~attr:"gds" ~gate:(gate_of tols "gds")
      ~est:(Some sized.Mos.gds) ~sim:sim_gds;
  ]

let device_rows ?calibration process =
  ignore calibration;
  (* Level-1 closed forms are the model itself; there is nothing to
     calibrate them against that would not just be the simulator. *)
  let l2 = 2. *. process.Proc.lmin in
  let c ~name card ~pmos spec = device_case ~process ~name card ~pmos spec in
  List.concat
    [
      c ~name:"nmos gm=100u id=10u" process.Proc.nmos ~pmos:false
        (Mos.By_gm_id { gm = 100e-6; ids = 10e-6; l = l2 });
      c ~name:"nmos gm=50u id=5u L=2x" process.Proc.nmos ~pmos:false
        (Mos.By_gm_id { gm = 50e-6; ids = 5e-6; l = 2. *. l2 });
      c ~name:"nmos id=20u vov=0.3" process.Proc.nmos ~pmos:false
        (Mos.By_id_vov { ids = 20e-6; vov = 0.3; l = l2 });
      c ~name:"pmos gm=100u id=10u" process.Proc.pmos ~pmos:true
        (Mos.By_gm_id { gm = 100e-6; ids = 10e-6; l = l2 });
      c ~name:"pmos id=10u vov=0.25" process.Proc.pmos ~pmos:true
        (Mos.By_id_vov { ids = 10e-6; vov = 0.25; l = l2 });
    ]

(* ------------------------------------------------------------------ *)
(* Level 2: the paper's Table 2 basic-component set.                   *)
(* ------------------------------------------------------------------ *)

let basic_cases process =
  let dc_volt =
    let d =
      E.Bias.Dc_volt.design process { E.Bias.Dc_volt.vout = 2.5; i = 100e-6 }
    in
    ("DCVolt", d.E.Bias.Dc_volt.perf, E.Verify.sim_dc_volt process d)
  in
  let mirror topology =
    let d =
      E.Bias.Current_mirror.design process
        (E.Bias.Current_mirror.spec ~topology ~iout:100e-6 ())
    in
    ( E.Bias.mirror_topology_name topology,
      d.E.Bias.Current_mirror.perf,
      E.Verify.sim_mirror process d )
  in
  let stage kind av i =
    let d =
      E.Gain_stage.design process (E.Gain_stage.spec ~av ~cl:1e-12 kind ~i)
    in
    ( E.Gain_stage.kind_name kind,
      d.E.Gain_stage.perf,
      E.Verify.sim_gain_stage process d )
  in
  let diff load av =
    let d =
      E.Diff_pair.design process
        (E.Diff_pair.spec ~av ~cl:1e-12 load ~itail:1e-6)
    in
    ( E.Diff_pair.load_name load,
      d.E.Diff_pair.perf,
      E.Verify.sim_diff_pair process d )
  in
  [
    dc_volt;
    mirror E.Bias.Simple;
    mirror E.Bias.Wilson;
    mirror E.Bias.Cascode;
    stage E.Gain_stage.Gain_nmos 8.5 120e-6;
    stage E.Gain_stage.Gain_cmos 19. 120e-6;
    stage E.Gain_stage.Gain_cmosh 5.1 45e-6;
    stage E.Gain_stage.Follower_stage 0.8 100e-6;
    diff E.Diff_pair.Nmos_diode 4.;
    diff E.Diff_pair.Cmos_mirror 1000.;
  ]

let basic_rows ?calibration process =
  let tols = Tolerance.for_level Tolerance.Basic in
  apply_card ?calibration ~level:Tolerance.Basic ~region:Card.All
    (List.concat_map
       (fun (case, est, sim) -> Diff.rows_of_perf ~case ~tols est sim)
       (basic_cases process))

(* ------------------------------------------------------------------ *)
(* Level 3: the paper's Table 3 opamps.                                *)
(* ------------------------------------------------------------------ *)

let opamp_specs () =
  [
    ( "OpAmp1",
      E.Opamp.spec ~buffer:true ~zout:1e3 ~bias_topology:E.Bias.Wilson
        ~av:206. ~ugf:1.3e6 ~ibias:1e-6 ~cl:10e-12 () );
    ( "OpAmp2",
      E.Opamp.spec ~buffer:true ~zout:1e3 ~bias_topology:E.Bias.Wilson
        ~av:374. ~ugf:8e6 ~ibias:2e-6 ~cl:10e-12 () );
    ( "OpAmp3",
      E.Opamp.spec ~buffer:true ~zout:2e3 ~bias_topology:E.Bias.Wilson
        ~av:167. ~ugf:12.4e6 ~ibias:1.5e-6 ~cl:10e-12 () );
    ( "OpAmp4",
      E.Opamp.spec ~bias_topology:E.Bias.Simple ~av:514. ~ugf:2.6e6
        ~ibias:1e-6 ~cl:10e-12 () );
  ]

let opamp_cases ?slew process =
  List.map
    (fun (case, spec) ->
      let d = E.Opamp.design process spec in
      (case, d, E.Verify.sim_opamp ?slew process d))
    (opamp_specs ())

let opamp_rows ?(slew = true) ?calibration process =
  let tols = Tolerance.for_level Tolerance.Opamp in
  let tols =
    (* Without the transient step there is nothing to gate slew on. *)
    if slew then tols
    else List.filter (fun t -> t.Tolerance.attr <> "slew_rate") tols
  in
  List.concat_map
    (fun (case, (d : E.Opamp.design), sim) ->
      let spec = d.E.Opamp.spec in
      let region =
        Card.region_of ~ugf:spec.E.Opamp.ugf ~ibias:spec.E.Opamp.ibias
          ~cl:spec.E.Opamp.cl
      in
      apply_card ?calibration ~level:Tolerance.Opamp ~region
        (Diff.rows_of_perf ~case ~tols d.E.Opamp.perf sim))
    (opamp_cases ~slew process)

(* ------------------------------------------------------------------ *)
(* Level 4: the paper's Table 5 module examples.  The same est/sim
   attribute extraction prints bench/main.ml's Table 5; the S&H response
   time travels as "delay" so both timed modules share one gate.       *)
(* ------------------------------------------------------------------ *)

let module_specs () =
  [
    ( "S&H",
      E.Module_lib.Sample_hold_m
        (E.Sample_hold.spec ~gain:2.0 ~bandwidth:20e3 ~sr:1e4 ()) );
    ("AudioAmp", E.Module_lib.Audio_amp { gain = 100.; bandwidth = 20e3 });
    ( "FlashADC",
      E.Module_lib.Flash_adc_m (E.Data_conv.Flash_adc.spec ~bits:4 ~delay:5e-6 ())
    );
    ( "LPF4",
      E.Module_lib.Lowpass_m
        { E.Filter.order = 4; f_cutoff = 1e3; r_base = 1e6 } );
    ( "BPF",
      E.Module_lib.Bandpass_m
        { E.Filter.f_center = 1e3; q = 1.; gain = 1.5; c_base = 10e-9 } );
  ]

let module_est_metrics design =
  let p = E.Module_lib.perf design in
  let common =
    [
      ("gain", p.E.Perf.gain);
      ("bandwidth", p.E.Perf.bandwidth);
      ("area", Some p.E.Perf.gate_area);
      ("power", Some p.E.Perf.dc_power);
    ]
  in
  let extra =
    match design with
    | E.Module_lib.D_lpf d ->
      [
        ("f3db", Some d.E.Filter.f3db_est);
        ("f20db", Some d.E.Filter.f20db_est);
      ]
    | E.Module_lib.D_bpf d -> [ ("f0", Some d.E.Filter.f0_est) ]
    | E.Module_lib.D_adc d ->
      [ ("delay", Some d.E.Data_conv.Flash_adc.delay_est) ]
    | E.Module_lib.D_sh d ->
      [ ("delay", Some d.E.Sample_hold.response_time_est) ]
    | E.Module_lib.D_audio _ | E.Module_lib.D_dac _ | E.Module_lib.D_closed _
    | E.Module_lib.D_comp _ ->
      []
  in
  List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) (common @ extra)

let module_sim_metrics (sim : E.Verify.module_sim) =
  let p = sim.E.Verify.perf in
  List.filter_map
    (fun (k, v) -> Option.map (fun v -> (k, v)) v)
    [
      ("gain", p.E.Perf.gain);
      ("bandwidth", p.E.Perf.bandwidth);
      ("f3db", p.E.Perf.bandwidth);
      ("f20db", sim.E.Verify.f_20db);
      ("f0", sim.E.Verify.f0);
      ("delay", sim.E.Verify.response_time);
      ("area", Some p.E.Perf.gate_area);
      ("power", Some p.E.Perf.dc_power);
    ]

(* Which attributes make sense for which module — mirrors the row
   selection of the paper's Table 5 (e.g. the ADC is judged on delay,
   the band-pass on its centre frequency, not the other way round). *)
let module_keys = function
  | E.Module_lib.Sample_hold_m _ ->
    [ "gain"; "bandwidth"; "delay"; "area"; "power" ]
  | E.Module_lib.Flash_adc_m _ -> [ "delay"; "area"; "power" ]
  | E.Module_lib.Lowpass_m _ ->
    [ "gain"; "bandwidth"; "f3db"; "f20db"; "area"; "power" ]
  | E.Module_lib.Bandpass_m _ ->
    [ "gain"; "bandwidth"; "f0"; "area"; "power" ]
  | E.Module_lib.Audio_amp _ | E.Module_lib.Dac_m _
  | E.Module_lib.Closed_loop_m _ | E.Module_lib.Comparator_m _ ->
    [ "gain"; "bandwidth"; "area"; "power" ]

let module_rows ?calibration process =
  let tols = Tolerance.for_level Tolerance.Module_level in
  apply_card ?calibration ~level:Tolerance.Module_level ~region:Card.All
  @@ List.concat_map
    (fun (case, spec) ->
      let keys = module_keys spec in
      let design = E.Module_lib.design process spec in
      let est = module_est_metrics design in
      let sim = module_sim_metrics (E.Verify.sim_module process design) in
      List.filter_map
        (fun (t : Tolerance.t) ->
          let attr = t.Tolerance.attr in
          if not (List.mem attr keys) then None
          else
            let r =
              Diff.make ~case ~attr ~gate:t.Tolerance.gate
                ~est:(List.assoc_opt attr est) ~sim:(List.assoc_opt attr sim)
            in
            if r.Diff.status = Diff.Skipped then None else Some r)
        tols)
    (module_specs ())

(* ------------------------------------------------------------------ *)

let rows_for ?slew ?calibration process = function
  | Tolerance.Device -> device_rows ?calibration process
  | Tolerance.Basic -> basic_rows ?calibration process
  | Tolerance.Opamp -> opamp_rows ?slew ?calibration process
  | Tolerance.Module_level -> module_rows ?calibration process
