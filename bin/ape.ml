(* The APE command-line tool.

     ape opamp --gain 200 --ugf 2meg [--buffer --zout 1k --wilson]
                [--verify] [--netlist]
     ape module (lpf|bpf|sh|adc|dac|amp|comparator) [options] [--verify]
     ape synth --gain 200 --ugf 2meg [--mode standalone|ape] [--seed N]
                [--chains 4 --jobs 4] [--area 4n] [--calibration CARD]
                [--mc-samples 200]
     ape mc opamp --gain 200 --ugf 2meg --samples 500 --jobs 4
                [--level estimate|simulate] [--sigma-scale 1.5] [--hist gain]
     ape sim FILE.sp [--out NODE] [--deterministic]
     ape verify [--level device|basic|opamp|module]... [--golden DIR]
                [--update] [--tsv] [--no-slew] [--no-golden]
                [--calibration CARD]
     ape calibrate [GRID.scm] --out card.calib [--points N] [--seed N]
                [--jobs N] [--tol 0.02] [--slew]
     ape serve [FILE... | -] [--watch DIR --once] [--jobs N --queue N]
                [--shed --fail-fast --timeout SEC] [--deterministic]
                [--out PATH]
     ape vase FILE.scm

   opamp, synth, mc and sim turn their flags into a serve job
   (Ape_serve.Job) and run it through Ape_serve.Runner, as `ape serve`
   does; they print their text from the runner's result.

   Numbers accept SPICE suffixes (2meg, 10u, 4.7k). *)

module E = Ape_estimator
module S = Ape_synth
module Mc = Ape_mc
module Sv = Ape_serve
let proc = Ape_process.Process.c12
let pf = Printf.printf
let eng = Ape_util.Units.to_eng

(* Numbers: the rules of every input file's fields, so a flag rejects
   exactly what the same job field rejects (here a usage error, 124). *)
let rule_conv rule =
  Cmdliner.Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (rule s)),
      fun fmt v -> Format.fprintf fmt "%g" v )

let number_conv = rule_conv Ape_util.Sexpr.finite
let positive_conv = rule_conv Ape_util.Sexpr.positive

(* Counts: a count out of range is a usage error (exit 124). *)
let count_conv ~what ?(map = Fun.id) ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok (map n)
    | _ -> Error (`Msg (Printf.sprintf "not a %s integer: %s" what s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

let positive_int_conv = count_conv ~what:"positive" (fun n -> n >= 1)
let non_negative_int_conv = count_conv ~what:"non-negative" (fun n -> n >= 0)

(* --jobs of every command: 0 means the hardware-recommended count. *)
let jobs_conv =
  count_conv ~what:"non-negative"
    ~map:(function 0 -> Ape_util.Pool.recommended_jobs () | n -> n)
    (fun n -> n >= 0)

open Cmdliner

(* ---------- shared infrastructure ---------- *)

(* Exit-code discipline: an exception in the runner's failure table
   prints its message, exiting 1 for an engine failure and 3 for an
   unreadable or malformed input (the README's exit-code table), never
   a raw backtrace or cmdliner's 125. *)
let guard f =
  try f () with
  | e -> (
    match Sv.Runner.failure e with
    | None -> raise e
    | Some (cls, msg) ->
      print_string msg;
      if not (String.ends_with ~suffix:"\n" msg) then print_char '\n';
      (match cls with Sv.Runner.Engine -> 1 | Sv.Runner.Input -> 3))

(* The CLI's job runs: one job built from the command's flags, through
   a fresh runner. *)
let execute ?jobs payload =
  Sv.Runner.execute ?jobs (Sv.Runner.create proc)
    { Sv.Job.id = "cli"; timeout = None; payload }

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record observability data (solver counters, span timings, \
           histograms) during the run and print it afterwards.  Results \
           are bit-identical with or without this flag.")

let with_trace trace f =
  if not trace then f ()
  else begin
    Ape_obs.enable ();
    Ape_obs.reset ();
    let finish () =
      pf "\n-- observability (--trace) --\n%s"
        (Ape_obs.render (Ape_obs.snapshot ()))
    in
    match f () with
    | code ->
      finish ();
      code
    | exception e ->
      finish ();
      raise e
  end

(* ---------- shared arguments ---------- *)

let calibration_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "calibration" ] ~docv:"CARD"
        ~doc:
          "Calibration card (from $(b,ape calibrate)): apply its affine \
           per-attribute, per-region corrections to the estimates.")

let gain_arg =
  Arg.(
    required
    & opt (some positive_conv) None
    & info [ "gain" ] ~doc:"DC gain requirement.")

let ugf_arg =
  Arg.(
    required
    & opt (some positive_conv) None
    & info [ "ugf" ] ~doc:"Unity-gain frequency requirement (Hz).")

let ibias_arg =
  Arg.(
    value & opt positive_conv 1e-6
    & info [ "ibias" ] ~doc:"Bias reference current (A).")

let cl_arg =
  Arg.(
    value & opt positive_conv 10e-12
    & info [ "cl" ] ~doc:"Load capacitance (F).")

let buffer_arg =
  Arg.(value & flag & info [ "buffer" ] ~doc:"Include an output buffer.")

let zout_arg =
  Arg.(
    value & opt (some positive_conv) None
    & info [ "zout" ] ~doc:"Output impedance requirement (Ohm).")

let wilson_arg =
  Arg.(value & flag & info [ "wilson" ] ~doc:"Wilson tail current source.")

let cascode_arg =
  Arg.(value & flag & info [ "cascode" ] ~doc:"Cascode tail current source.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ] ~doc:"Also simulate the sized design (MNA).")

let netlist_arg =
  Arg.(value & flag & info [ "netlist" ] ~doc:"Print the elaborated SPICE netlist.")

(* The opamp spec of opamp, synth and mc jobs. *)
let opamp_spec =
  let spec gain ugf ibias cl buffer zout wilson cascode =
    let bias =
      if wilson then E.Bias.Wilson
      else if cascode then E.Bias.Cascode
      else E.Bias.Simple
    in
    { Sv.Job.gain; ugf; ibias; cl; bias; zout; buffer }
  in
  Term.(
    const spec $ gain_arg $ ugf_arg $ ibias_arg $ cl_arg $ buffer_arg
    $ zout_arg $ wilson_arg $ cascode_arg)

(* --jobs of synth, mc and serve. *)
let jobs_arg what =
  Arg.(
    value & opt jobs_conv 1
    & info [ "jobs" ]
        ~doc:
          (what
         ^ " (0 = the hardware-recommended count).  Fixed-seed results \
            are identical for every value."))

(* FILE and GRID positionals are plain strings, not cmdliner's [file]:
   an unreadable input is an input-side failure and must exit 3
   through [guard], not cmdliner's 124. *)
let file_arg ~doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let print_perf label p = pf "%s: %s\n" label (Format.asprintf "%a" E.Perf.pp p)

(* ---------- ape opamp ---------- *)

let opamp_cmd =
  let run spec verify netlist =
    guard @@ fun () ->
    match execute (Sv.Job.Estimate spec) with
    | Sv.Runner.Estimated d ->
      pf "topology: %s\n" (E.Opamp.describe d);
      print_perf "estimate" d.E.Opamp.perf;
      if verify then print_perf "simulated" (E.Verify.sim_opamp proc d);
      if netlist then begin
        let frag = E.Opamp.fragment proc d in
        print_string (Ape_circuit.Netlist.to_spice frag.E.Fragment.netlist)
      end;
      0
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "opamp" ~doc:"Size and estimate an operational amplifier.")
    Term.(const run $ opamp_spec $ verify_arg $ netlist_arg)

(* ---------- ape module ---------- *)

(* Each kind's spec from its flags.  [Module_lib.check] holds it to
   the range its designer accepts before designing: a value outside it
   is a usage error (exit 124), never an [Invalid_argument] from deep
   inside a designer. *)
let module_spec kind ~order ~fc ~gain ~bw ~bits ~delay =
  match kind with
  | `Lpf ->
    E.Module_lib.Lowpass_m { E.Filter.order; f_cutoff = fc; r_base = 1e6 }
  | `Bpf ->
    E.Module_lib.Bandpass_m
      { E.Filter.f_center = fc; q = 1.; gain = Float.min gain 1.8;
        c_base = 10e-9 }
  | `Sh ->
    E.Module_lib.Sample_hold_m
      (E.Sample_hold.spec ~gain ~bandwidth:bw ~sr:1e4 ())
  | `Adc ->
    E.Module_lib.Flash_adc_m (E.Data_conv.Flash_adc.spec ~bits ~delay ())
  | `Dac -> E.Module_lib.Dac_m (E.Data_conv.Dac.spec ~bits ~settling:delay ())
  | `Amp -> E.Module_lib.Audio_amp { gain; bandwidth = bw }
  | `Comparator ->
    E.Module_lib.Comparator_m (E.Data_conv.Comparator.spec ~delay ())

(* The spec field each flag sets, where the names differ. *)
let flag_of_field = function
  | "bandwidth" -> "bw"
  | "settling" -> "delay"
  | f -> f

let module_cmd =
  let kind_arg =
    let doc = "Module kind: lpf, bpf, sh, adc, dac, amp, comparator." in
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("lpf", `Lpf); ("bpf", `Bpf); ("sh", `Sh); ("adc", `Adc);
                  ("dac", `Dac); ("amp", `Amp); ("comparator", `Comparator);
                ]))
          None
      & info [] ~docv:"KIND" ~doc)
  in
  let order_arg =
    Arg.(value & opt int 4 & info [ "order" ] ~doc:"Filter order (even, lpf).")
  in
  let fc_arg =
    Arg.(value & opt number_conv 1e3 & info [ "fc" ] ~doc:"Corner/centre frequency (Hz).")
  in
  let g_arg =
    Arg.(value & opt number_conv 2. & info [ "gain" ] ~doc:"Gain requirement.")
  in
  let bw_arg =
    Arg.(value & opt number_conv 20e3 & info [ "bw" ] ~doc:"Bandwidth requirement (Hz).")
  in
  let bits_arg =
    Arg.(
      value & opt int 4
      & info [ "bits" ] ~doc:"Converter resolution (adc 2-6, dac 1-12).")
  in
  let delay_arg =
    Arg.(value & opt number_conv 5e-6 & info [ "delay" ] ~doc:"Delay/settling requirement (s).")
  in
  let run kind order fc gain bw bits delay verify netlist =
    let spec = module_spec kind ~order ~fc ~gain ~bw ~bits ~delay in
    match E.Module_lib.check spec with
    | Some (field, complaint) ->
      `Error (false, Printf.sprintf "--%s %s" (flag_of_field field) complaint)
    | None ->
      `Ok
        (guard @@ fun () ->
         let d = E.Module_lib.design proc spec in
         pf "module: %s\n" (E.Module_lib.name d);
         print_perf "estimate" (E.Module_lib.perf d);
         if verify then begin
           let sim = E.Verify.sim_module proc d in
           print_perf "simulated" sim.E.Verify.perf;
           (match sim.E.Verify.response_time with
           | Some t -> pf "response/delay: %ss\n" (eng t)
           | None -> ());
           match sim.E.Verify.f0 with
           | Some f -> pf "f0: %sHz\n" (eng f)
           | None -> ()
         end;
         if netlist then begin
           let frag = E.Module_lib.fragment proc d in
           print_string (Ape_circuit.Netlist.to_spice frag.E.Fragment.netlist)
         end;
         0)
  in
  Cmd.v
    (Cmd.info "module" ~doc:"Size and estimate a level-4 analog module.")
    Term.(
      ret
        (const run $ kind_arg $ order_arg $ fc_arg $ g_arg $ bw_arg $ bits_arg
        $ delay_arg $ verify_arg $ netlist_arg))

(* ---------- ape synth ---------- *)

let synth_cmd =
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("standalone", Sv.Job.Wide_mode); ("ape", Sv.Job.Ape_mode) ])
          Sv.Job.Ape_mode
      & info [ "mode" ] ~doc:"standalone (wide intervals) or ape (+/-20%).")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed.") in
  let area_arg =
    Arg.(
      value & opt (some number_conv) None
      & info [ "area" ]
          ~doc:"Gate-area budget (m^2); default 1.3x the APE estimate.")
  in
  let mc_samples_arg =
    Arg.(
      value & opt non_negative_int_conv 0
      & info [ "mc-samples" ]
          ~doc:
            "Monte Carlo yield check on the synthesised design (0 = off).")
  in
  let chains_arg =
    Arg.(
      value & opt positive_int_conv 1
      & info [ "chains" ]
          ~doc:
            "Independent annealing chains, each on its own random \
             stream; the best result wins (1 = classic sequential \
             annealing).")
  in
  let run spec mode seed area mc_samples jobs chains calibration trace =
    with_trace trace @@ fun () ->
    guard @@ fun () ->
    let job =
      Sv.Job.Synth
        {
          spec;
          mode;
          seed = Some seed;
          chains;
          schedule = Sv.Job.Full;
          area;
          calibration;
        }
    in
    match execute ~jobs job with
    | Sv.Runner.Synthesized r ->
      pf "%s\n" r.S.Driver.comment;
      pf "gain=%s ugf=%s area=%.0f um^2 power=%s (%d evaluations)\n"
        (match r.S.Driver.gain with
        | Some g -> Printf.sprintf "%.1f" g
        | None -> "-")
        (match r.S.Driver.ugf with Some u -> eng u | None -> "-")
        (r.S.Driver.area /. 1e-12)
        (eng r.S.Driver.power)
        r.S.Driver.stats.S.Anneal.evaluations;
      List.iter
        (fun (k, v) -> pf "  %-12s %s\n" k (eng v))
        r.S.Driver.best_values;
      (* Wall time and cache statistics depend on scheduling and cannot
         be bit-identical across --jobs; keep them on their own prefixed
         lines so the CI determinism gate can filter them. *)
      pf "time: %.2f s\n" r.S.Driver.stats.S.Anneal.seconds;
      pf "cache: %d/%d hits (%.1f%%)\n" r.S.Driver.cache_hits
        r.S.Driver.cache_lookups
        (if r.S.Driver.cache_lookups = 0 then 0.
         else
           100. *. float_of_int r.S.Driver.cache_hits
           /. float_of_int r.S.Driver.cache_lookups);
      if mc_samples > 0 then begin
        let report =
          S.Driver.yield_check proc r.S.Driver.row r.S.Driver.best_netlist
            { Mc.Run.samples = mc_samples; jobs; seed }
        in
        pf "\npost-synthesis yield check:\n";
        print_string (Mc.Report.to_string report)
      end;
      if r.S.Driver.meets_spec then 0 else 2
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesise an opamp by simulated annealing.")
    Term.(
      const run $ opamp_spec $ mode_arg $ seed_arg $ area_arg $ mc_samples_arg
      $ jobs_arg
          "Worker domains: annealing chains run on a persistent pool of \
           this many domains, and the yield check fans out over the same \
           count"
      $ chains_arg $ calibration_arg $ trace_arg)

(* ---------- ape mc ---------- *)

let mc_cmd =
  let kind_arg =
    let doc = "Workload: opamp (more kinds as the library grows)." in
    Arg.(value & pos 0 (enum [ ("opamp", ()) ]) () & info [] ~docv:"KIND" ~doc)
  in
  let samples_arg =
    Arg.(
      value & opt positive_int_conv 500
      & info [ "samples" ] ~doc:"Monte Carlo samples.")
  in
  let seed_arg = Arg.(value & opt int 1999 & info [ "seed" ] ~doc:"RNG seed.") in
  let level_arg =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun l -> (Mc.Scenario.level_name l, l))
                [ Mc.Scenario.Estimate; Mc.Scenario.Simulate ]))
          Mc.Scenario.Estimate
      & info [ "level" ]
          ~doc:
            "estimate re-sizes with APE per die (fast); simulate re-measures \
             one nominal design per die with the SPICE substitute.")
  in
  let sigma_scale_arg =
    Arg.(
      value & opt number_conv 1.0
      & info [ "sigma-scale" ]
          ~doc:"Scale every variation sigma by this factor.")
  in
  let hist_arg =
    Arg.(
      value & opt_all string []
      & info [ "hist" ] ~docv:"METRIC"
          ~doc:"Print an ASCII histogram of this metric (repeatable).")
  in
  let run () spec samples jobs seed level sigma_scale hists trace =
    with_trace trace @@ fun () ->
    guard @@ fun () ->
    match
      execute ~jobs
        (Sv.Job.Mc { spec; samples; level; sigma_scale; seed = Some seed })
    with
    | Sv.Runner.Sampled report ->
      pf "workload: opamp (%s level), sigma scale %g\n"
        (Mc.Scenario.level_name level)
        sigma_scale;
      print_string (Mc.Report.to_string ~histograms:hists report);
      if report.Mc.Run.yield >= 1.0 then 0 else 2
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Monte Carlo process-variation and yield analysis.")
    Term.(
      const run $ kind_arg $ opamp_spec $ samples_arg
      $ jobs_arg "Worker domains sampling dies" $ seed_arg
      $ level_arg $ sigma_scale_arg $ hist_arg $ trace_arg)

(* ---------- ape sim ---------- *)

let sim_cmd =
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~doc:"Output node for AC measurements.")
  in
  let det_arg =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~doc:
            "Diffable output: sorted node voltages and AC measurements \
             with fixed formatting, omitting data that may legitimately \
             differ between equivalent decks (Newton iteration counts).  \
             Used by CI to diff a hierarchical deck against its \
             flattened form.")
  in
  let run file out det trace =
    with_trace trace @@ fun () ->
    guard @@ fun () ->
    match execute (Sv.Job.Sim { file; out }) with
    | Sv.Runner.Simulated { op; ac; _ } ->
      let module Dc = Ape_spice.Dc in
      if det then
        List.iter
          (fun n -> pf "V(%s) = %.6g\n" n (Dc.voltage op n))
          (List.sort compare (Ape_circuit.Netlist.nodes op.Dc.netlist))
      else pf "%s" (Format.asprintf "%a" Dc.pp op);
      Option.iter
        (fun (a : Sv.Runner.ac) ->
          let hz f =
            if det then Printf.sprintf "%.4g Hz" f else eng f ^ "Hz"
          in
          pf "AC (node %s):\n" a.node;
          pf "  |H(0)| = %.4g\n" a.dc_gain;
          Option.iter (fun f -> pf "  f-3dB  = %s\n" (hz f)) a.f_minus_3db;
          Option.iter (fun f -> pf "  UGF    = %s\n" (hz f)) a.ugf;
          Option.iter (pf "  PM     = %.1f deg\n") a.phase_margin;
          (* %.4g keeps the hier/flat --deterministic diff byte-clean. *)
          Option.iter (pf "  in-noise = %.4g V/rtHz @ 1kHz\n") a.in_noise)
        ac;
      0
    | _ -> assert false
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Solve a SPICE netlist (DC + AC measurements).")
    Term.(
      const run $ file_arg ~doc:"SPICE netlist." $ out_arg $ det_arg
      $ trace_arg)

(* ---------- ape convert ---------- *)

let convert_cmd =
  let module Sp = Ape_circuit.Spice_parser in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Write the canonical deck to $(docv) instead of stdout.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Treat parser warnings as errors (exit 1).")
  in
  let dialect_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("ngspice", Sp.Ngspice); ("hspice", Sp.Hspice);
               ("spice2", Sp.Spice2);
             ])
          Sp.Ngspice
      & info [ "dialect" ] ~docv:"DIALECT"
          ~doc:
            "Input dialect, which governs inline-comment characters: \
             ngspice (default; \\$ and ;), hspice (\\$ only) or spice2 \
             (none).")
  in
  let run file out strict dialect =
    guard @@ fun () ->
    let text = Ape_util.File.read file in
    let r = Sp.parse_result ~process:proc ~dialect ~path:file ~title:"" text in
    List.iter
      (fun d -> Printf.eprintf "%s" (Sp.render d))
      r.Sp.diagnostics;
    if Sp.errors r <> [] || (strict && Sp.warnings r <> []) then 1
    else begin
      let canonical = Sp.to_canonical r in
      (match out with
      | None -> print_string canonical
      | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc canonical));
      0
    end
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Ingest a netlist (dialect-aware: .INCLUDE/.LIB, parameterized \
          .SUBCKT flattening, .PARAM expressions, analysis directives) and \
          print the flattened canonical form.  Diagnostics go to stderr \
          with source spans; the output reaches a print/parse fixpoint, so \
          converting the output again is byte-identical.")
    Term.(
      const run $ file_arg ~doc:"SPICE netlist." $ out_arg $ strict_arg
      $ dialect_arg)

(* ---------- ape verify ---------- *)

let verify_cmd =
  let module C = Ape_check in
  let level_arg =
    Arg.(
      value & opt_all string []
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:
            "Hierarchy level to verify: device, basic, opamp, module \
             (repeatable; default all).")
  in
  let golden_arg =
    Arg.(
      value & opt (some string) (Some "test/golden")
      & info [ "golden" ] ~docv:"DIR"
          ~doc:"Golden-table directory; --no-golden skips the comparison.")
  in
  let no_golden_arg =
    Arg.(
      value & flag
      & info [ "no-golden" ] ~doc:"Tolerance gates only, no golden tables.")
  in
  let update_arg =
    Arg.(
      value & flag
      & info [ "update" ]
          ~doc:
            "Promote the fresh values into the golden tables (equivalent to \
             APE_UPDATE_GOLDEN=1).")
  in
  let tsv_arg =
    Arg.(value & flag & info [ "tsv" ] ~doc:"Machine-readable TSV output.")
  in
  let no_slew_arg =
    Arg.(
      value & flag
      & info [ "no-slew" ]
          ~doc:"Skip the opamp transient slew measurement (faster).")
  in
  let run levels golden no_golden update tsv no_slew calibration trace =
    with_trace trace @@ fun () ->
    guard @@ fun () ->
    let calibration = Option.map Ape_calib.Card.load calibration in
    let levels =
      match levels with
      | [] -> C.Tolerance.all_levels
      | names ->
        List.map
          (fun n ->
            match C.Tolerance.level_of_name n with
            | Some l -> l
            | None ->
              pf "unknown level %s (device, basic, opamp, module)\n" n;
              exit 1)
          names
    in
    let golden_dir = if no_golden then None else golden in
    let outcome =
      C.Check.run ~slew:(not no_slew) ?calibration ?golden_dir ~update
        ~levels proc
    in
    print_string (C.Check.render ~tsv outcome);
    if C.Check.ok outcome then 0 else 2
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Differential verification: size with APE, simulate, gate every \
          attribute against its tolerance and the golden tables.")
    Term.(
      const run $ level_arg $ golden_arg $ no_golden_arg $ update_arg
      $ tsv_arg $ no_slew_arg $ calibration_arg $ trace_arg)

(* ---------- ape calibrate ---------- *)

let calibrate_cmd =
  let module C = Ape_check in
  let module Cal = Ape_calib in
  let grid_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"GRID"
          ~doc:
            "Grid spec file, e.g. (grid (points 32) (ugf 800k 14meg)); \
             every field optional, defaults bracket the paper's Table 3 \
             specs.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"CARD" ~doc:"Where to write the fitted card.")
  in
  let points_arg =
    Arg.(
      value
      & opt (some non_negative_int_conv) None
      & info [ "points" ] ~docv:"N"
          ~doc:"Override the grid point count (0 fits on the catalog alone).")
  in
  let seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~doc:"Override the grid RNG seed.")
  in
  let jobs_arg =
    Arg.(
      value & opt (some jobs_conv) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains evaluating grid points (0 = the \
             hardware-recommended count).  The card is bit-identical for \
             every value.")
  in
  let tol_arg =
    Arg.(
      value & opt number_conv 0.02
      & info [ "tol" ]
          ~doc:
            "Keep the identity correction wherever the raw max relative \
             error is already within this tolerance.")
  in
  let slew_arg =
    Arg.(
      value & flag
      & info [ "slew" ]
          ~doc:"Also run the transient slew measurement (slower).")
  in
  let run grid out points seed jobs tol slew trace =
    with_trace trace @@ fun () ->
    guard @@ fun () ->
    let spec =
      match grid with
      | Some file -> Cal.Grid.load_spec file
      | None -> Cal.Grid.default
    in
    let spec =
      {
        spec with
        Cal.Grid.points = Option.value ~default:spec.Cal.Grid.points points;
        seed = Option.value ~default:spec.Cal.Grid.seed seed;
        jobs = Option.value ~default:spec.Cal.Grid.jobs jobs;
        slew = spec.Cal.Grid.slew || slew;
      }
    in
    let grid = Cal.Grid.run proc spec in
    pf "grid: %d points, %d evaluated, %d skipped\n"
      spec.Cal.Grid.points grid.Cal.Grid.evaluated grid.Cal.Grid.skipped;
    let card =
      C.Calibrate.fit ~slew:spec.Cal.Grid.slew ~tol
        ~extra:grid.Cal.Grid.samples proc
    in
    Cal.Card.save out card;
    let fitted =
      List.filter
        (fun e -> not (Cal.Card.is_identity e.Cal.Card.corr))
        card.Cal.Card.entries
    in
    pf "%-8s %-12s %-8s %12s %12s %5s %9s %9s\n" "level" "attr" "region"
      "scale" "bias" "n" "raw err" "cal err";
    List.iter
      (fun e ->
        pf "%-8s %-12s %-8s %12.6g %12.6g %5d %8.2f%% %8.2f%%\n"
          e.Cal.Card.level e.Cal.Card.attr
          (Cal.Card.region_name e.Cal.Card.region)
          e.Cal.Card.corr.Cal.Card.scale e.Cal.Card.corr.Cal.Card.bias
          e.Cal.Card.n
          (100. *. e.Cal.Card.raw_err)
          (100. *. e.Cal.Card.cal_err))
      card.Cal.Card.entries;
    pf "wrote %s (%d fits, %d non-identity)\n" out
      (List.length card.Cal.Card.entries)
      (List.length fitted);
    0
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Sweep a design grid with the estimator and the simulator, fit \
          per-attribute affine corrections and write a calibration card \
          for $(b,ape verify --calibration) / $(b,ape synth \
          --calibration).")
    Term.(
      const run $ grid_arg $ out_arg $ points_arg $ seed_arg $ jobs_arg
      $ tol_arg $ slew_arg $ trace_arg)

(* ---------- ape serve ---------- *)

let serve_cmd =
  let module Sv = Ape_serve in
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"Job batch files ($(b,-) reads one batch from stdin).")
  in
  let watch_arg =
    Arg.(
      value & opt (some dir) None
      & info [ "watch" ] ~docv:"DIR"
          ~doc:
            "Spool directory: process every *.jobs file dropped there \
             (each is renamed *.jobs.done once answered).")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"With --watch, drain the spool once and exit instead of \
                polling forever.")
  in
  let queue_arg =
    Arg.(
      value & opt positive_int_conv 64
      & info [ "queue" ]
          ~doc:"Bounded in-flight window: at most this many admitted jobs \
                at once.")
  in
  let shed_arg =
    Arg.(
      value & flag
      & info [ "shed" ]
          ~doc:
            "When the window is full, refuse further jobs of the batch \
             with typed overloaded records instead of blocking \
             (backpressure policy).")
  in
  let fail_fast_arg =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:
            "Stop admitting jobs once a failure is collected; the \
             unsubmitted remainder is recorded cancelled.")
  in
  let timeout_arg =
    Arg.(
      value & opt (some number_conv) None
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Default per-job queue deadline: a job not started within \
             SEC seconds of submission records a timeout.  A job's own \
             (timeout ...) field wins.")
  in
  let deterministic_arg =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~doc:
            "Omit scheduling-dependent record fields (wall seconds, \
             cache statistics) so fixed-seed batches render \
             bit-identically at any --jobs.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:
            "Result stream destination.  A directory gets one \
             $(i,batch).jsonl per batch; anything else is appended to \
             as a single file.  Default: stdout.")
  in
  let poll_arg =
    Arg.(
      value & opt number_conv 0.5
      & info [ "poll" ] ~docv:"SEC" ~doc:"Spool scan period for --watch.")
  in
  let max_batches_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-batches" ]
          ~doc:"Exit after this many batches (mainly for tests).")
  in
  let run files watch once jobs queue shed fail_fast timeout deterministic
      out poll max_batches trace =
    with_trace trace @@ fun () ->
    guard @@ fun () ->
    let config =
      {
        Sv.Scheduler.jobs;
        queue;
        policy = (if shed then Sv.Scheduler.Shed else Sv.Scheduler.Block);
        fail_fast;
        default_timeout = timeout;
      }
    in
    let runner = Sv.Runner.create proc in
    let pool = Ape_util.Pool.create ~workers:jobs in
    let stopping = ref false in
    let request_stop _ = stopping := true in
    (* SIGINT/SIGTERM finish the in-flight batch, then fall through to
       the one idempotent Pool.shutdown below. *)
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    (* Exit-code evidence across every batch (worst wins, 3 > 4 > 2). *)
    let saw_parse = ref false
    and saw_failed = ref false
    and saw_overloaded = ref false in
    let note (r : Sv.Record.t) =
      match r.Sv.Record.status with
      | Sv.Record.Parse_error _ -> saw_parse := true
      | Sv.Record.Failed _ | Sv.Record.Unmet | Sv.Record.Timeout
      | Sv.Record.Cancelled ->
        saw_failed := true
      | Sv.Record.Overloaded -> saw_overloaded := true
      | Sv.Record.Done -> ()
    in
    let out_channel_for batch =
      match out with
      | None -> (stdout, false)
      | Some path when Sys.file_exists path && Sys.is_directory path ->
        let base = Filename.remove_extension (Filename.basename batch) in
        let file = Filename.concat path (base ^ ".jsonl") in
        (open_out file, true)
      | Some path ->
        (open_out_gen [ Open_append; Open_creat ] 0o644 path, true)
    in
    let run_batch ~batch text =
      let oc, close = out_channel_for batch in
      Fun.protect
        ~finally:(fun () -> if close then close_out oc else flush oc)
        (fun () ->
          let emit r =
            note r;
            output_string oc (Sv.Record.render ~deterministic r);
            output_char oc '\n';
            flush oc
          in
          let summary =
            Sv.Scheduler.run_batch ~pool config runner ~batch ~emit
              (Sv.Job.parse_batch text)
          in
          output_string oc
            (Sv.Record.render_summary ~deterministic summary);
          output_char oc '\n')
    in
    List.iter
      (fun file ->
        if file = "-" then
          run_batch ~batch:"-" (In_channel.input_all In_channel.stdin)
        else run_batch ~batch:file (Ape_util.File.read file))
      files;
    (match watch with
    | None ->
      if files = [] then
        run_batch ~batch:"-" (In_channel.input_all In_channel.stdin)
    | Some dir ->
      ignore
        (Sv.Spool.watch ~poll ?max_batches
           ~stop:(fun () -> !stopping)
           ~once dir
           ~process:(fun path -> run_batch ~batch:path (Ape_util.File.read path))));
    Ape_util.Pool.shutdown pool;
    if !saw_parse then 3
    else if !saw_overloaded then 4
    else if !saw_failed then 2
    else 0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Batch job service: run declarative estimate/synth/mc/sim/verify \
          jobs from files, stdin or a spool directory, streaming one \
          JSON-lines record per job.")
    Term.(
      const run $ files_arg $ watch_arg $ once_arg
      $ jobs_arg "Worker domains running jobs concurrently" $ queue_arg
      $ shed_arg $ fail_fast_arg $ timeout_arg $ deterministic_arg $ out_arg
      $ poll_arg $ max_batches_arg $ trace_arg)

(* ---------- ape stats ---------- *)

let stats_cmd =
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("synth", `Synth); ("verify", `Verify) ]) `Synth
      & info [ "workload" ]
          ~doc:
            "Instrumented workload: synth (anneal a reference 200x/2MHz \
             opamp) or verify (run the differential checker without golden \
             tables).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the ape-obs/1 JSON document instead of ASCII tables.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Smaller workload: quick annealing schedule (synth) or no slew \
             transient (verify).")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"RNG seed (synth workload).")
  in
  let run workload json quick seed =
    Ape_obs.enable ();
    Ape_obs.reset ();
    guard @@ fun () ->
    (match workload with
    | `Synth ->
      let spec =
        { Sv.Job.gain = 200.; ugf = 2e6; ibias = 1e-6; cl = 10e-12;
          bias = E.Bias.Simple; zout = None; buffer = false }
      in
      ignore
        (execute
           (Sv.Job.Synth
              {
                spec;
                mode = Sv.Job.Ape_mode;
                seed = Some seed;
                chains = 1;
                schedule = (if quick then Sv.Job.Quick else Sv.Job.Full);
                area = None;
                calibration = None;
              }))
    | `Verify ->
      let module C = Ape_check in
      ignore (C.Check.run ~slew:(not quick) proc));
    let snap = Ape_obs.snapshot () in
    print_string (if json then Ape_obs.render_json snap else Ape_obs.render snap);
    0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an instrumented workload and print the observability snapshot \
          (counters, gauges, histograms, span timings).")
    Term.(const run $ workload_arg $ json_arg $ quick_arg $ seed_arg)

(* ---------- ape vase ---------- *)

let vase_cmd =
  let run file =
    guard @@ fun () ->
    let text = Ape_util.File.read file in
    match Ape_vase.System.parse text with
    | exception Ape_vase.System.Spec_error { pos; msg } ->
      pf "spec error: %d:%d: %s\n" pos.Ape_util.Sexpr.line
        pos.Ape_util.Sexpr.col msg;
      3
    | system ->
      let est = Ape_vase.System.estimate proc system in
      pf "system %s:\n" system.Ape_vase.System.name;
      List.iter
        (fun (label, d) ->
          pf "  %-14s %s\n" label
            (Format.asprintf "%a" E.Perf.pp (E.Module_lib.perf d)))
        est.Ape_vase.System.designs;
      pf "totals: gain=%.2f bw=%sHz area=%.0f um^2 power=%s\n"
        est.Ape_vase.System.gain_total
        (eng est.Ape_vase.System.bandwidth_min)
        (est.Ape_vase.System.area_total /. 1e-12)
        (eng est.Ape_vase.System.power_total);
      List.iter
        (fun (name, ok) -> pf "  %-12s %s\n" name (if ok then "MET" else "VIOLATED"))
        est.Ape_vase.System.meets;
      if List.for_all snd est.Ape_vase.System.meets then 0 else 2
  in
  Cmd.v
    (Cmd.info "vase" ~doc:"Estimate a system-level specification (VASE flow).")
    Term.(const run $ file_arg ~doc:"System spec (S-expression).")

let () =
  let doc = "Analog Performance Estimator (DATE 1999 reproduction)" in
  let info = Cmd.info "ape" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            opamp_cmd; module_cmd; synth_cmd; mc_cmd; sim_cmd; convert_cmd;
            verify_cmd; calibrate_cmd; serve_cmd; stats_cmd; vase_cmd;
          ]))
