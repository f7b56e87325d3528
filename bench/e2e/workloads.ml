(* The four workloads.  Each is a closed loop with one client: the
   harness runs op [i] only after op [i-1] returned.  Inputs come from
   the seed alone — [setup] turns it into an op list (cycled if a fast
   machine gets through all of it) and the library only ever sees the
   generated specs, decks and job texts.  Three warm-up ops from a
   stream disjoint from the timed ops end every setup.

   Calls into each layer are wrapped in harness spans named
   [<layer>.<call>]; they cost one branch when no trace is recording. *)

module E = Ape_estimator
module S = Ape_synth
module Sv = Ape_serve
module Ac = Ape_spice.Ac
module F = Fixtures

let now = Ape_util.Clock.now_s
let span = Spans.span

type sample = { latency : float;  (** seconds *) failed : bool }

type op = {
  samples : sample list;  (** one per op; one per job for serve *)
  digest : string;  (** the op's deterministic outputs *)
}

type check = { c_name : string; ok : bool; detail : string }

type 'st def = {
  name : string;
  tail_pct : float;  (** nearest-rank percentile reported as op_tail_ms *)
  pace : float;
      (** ops per second on the machine the benchmark was built on: a
          run of [s] seconds times [pace * s] op runs *)
  digest_ops : int;  (** leading ops whose outputs form the output digest *)
  setup : seed:int -> 'st;
  run_op : 'st -> int -> op;
  teardown : 'st -> unit;
  check : 'st -> seed:int -> check list;
  extra : 'st -> (string * float) list;
      (** per-layer values only the workload can compute: quality of
          the outputs, setup-time filtering, serve's per-job split *)
}

type t = W : 'st def -> t

(* ------------------------------------------------------------------ *)
(* Input generation                                                    *)
(* ------------------------------------------------------------------ *)

(* Independent streams keyed by [seed] and a path of integers: the
   first key component names the purpose (timed ops or warm-up), so no
   two purposes ever share a draw. *)
let stream seed key = Random.State.make (Array.of_list (seed :: key))
let uniform st lo hi = lo +. Random.State.float st (hi -. lo)
let log_uniform st lo hi = exp (uniform st (log lo) (log hi))
let log_scale u lo hi = lo *. ((hi /. lo) ** u)

let radical_inverse base n =
  let rec go n scale acc =
    if n = 0 then acc
    else go (n / base) (scale /. float_of_int base) (acc +. (scale *. float_of_int (n mod base)))
  in
  go n (1. /. float_of_int base) 0.

(* Point [j] of coordinate [dim] of a Halton sequence: a uniform draw in
   [0, 1) whose every prefix covers the interval evenly.  The sizes and
   specs that set an op's cost come from it, the same for every seed:
   when a seed-drawn offset shifted them, the slowest ops of a run moved
   by up to one gap of the sequence, and sim's op_tail_ms ranged from 73
   to 91 ms over ten seeds.  The seed draws the rest: component values,
   jitter, redraws, job parameters. *)
let halton ~dim j = radical_inverse [| 2; 3; 5; 7; 11; 13; 17 |].(dim) (j + 1)

let op_seed seed key i = Random.State.bits (stream seed (key @ [ i ]))

let hex x = Printf.sprintf "%h" x
let hex_opt = function Some x -> hex x | None -> "-"

let guarded f = match f () with v -> Ok v | exception e -> Error e

let rel_err ~est ~sim =
  if sim = 0. || not (Float.is_finite est && Float.is_finite sim) then None
  else Some (Float.abs (est -. sim) /. Float.abs sim)

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------------ *)
(* synth: Table 1 standalone synthesis, full table schedule            *)
(* ------------------------------------------------------------------ *)

(* Op i synthesises Table 1 row i mod 10 in Wide mode with a fresh
   estimate cache and its own seed.  Relaxed-KCL/AWE cost evaluations
   and cache fills dominate and DC/AC solves are a small share: the
   workload that isolates the annealer, and the one that should not
   move when the solver engine changes. *)

type synth_st = {
  rows : S.Opamp_problem.row array;
  seeds : int array;
  mutable met : int;
  mutable n : int;
  mutable costs : float list;
  mutable kept : (S.Opamp_problem.row * S.Driver.result) list;
      (** the first few results, re-measured by the check *)
}

let synth_list = 400
let synth_kept = 3

let synthesize row seed =
  S.Driver.run ~schedule:F.table_schedule ~rng:(Ape_util.Rng.create seed)
    F.proc ~mode:S.Opamp_problem.Wide row

let synth_setup ~seed =
  let rows = Array.of_list (F.opamp_rows ()) in
  for w = 0 to 2 do
    ignore (synthesize rows.(w) (op_seed seed [ 1 ] w))
  done;
  {
    rows;
    seeds = Array.init synth_list (op_seed seed [ 0 ]);
    met = 0;
    n = 0;
    costs = [];
    kept = [];
  }

let synth_run st i =
  let row = st.rows.(i mod Array.length st.rows) in
  let seed = st.seeds.(i mod synth_list) in
  let result, latency =
    timed (fun () -> guarded (fun () -> span "synth.driver" (fun () -> synthesize row seed)))
  in
  match result with
  | Error e ->
    { samples = [ { latency; failed = true } ]; digest = Printexc.to_string e }
  | Ok r ->
    st.n <- st.n + 1;
    if r.S.Driver.meets_spec then st.met <- st.met + 1;
    st.costs <- r.S.Driver.stats.S.Anneal.best_cost :: st.costs;
    if List.length st.kept < synth_kept then st.kept <- st.kept @ [ (row, r) ];
    {
      samples = [ { latency; failed = false } ];
      digest =
        Printf.sprintf "%s %b %s" row.S.Opamp_problem.name r.S.Driver.meets_spec
          (hex r.S.Driver.stats.S.Anneal.best_cost);
    }

(* The reported figures must be what an independent full measurement of
   the returned netlist gives, and a "meets spec" verdict must hold on
   those measured figures. *)
let synth_check st ~seed:_ =
  List.mapi
    (fun k ((row : S.Opamp_problem.row), (r : S.Driver.result)) ->
      let m = S.Opamp_problem.measure_netlist F.proc row r.S.Driver.best_netlist in
      let find key = Option.bind m (fun m -> S.Cost.find m key) in
      let same = find "gain" = r.S.Driver.gain && find "ugf" = r.S.Driver.ugf in
      let verdict_holds =
        (not r.S.Driver.meets_spec)
        || (match (find "gain", find "ugf", find "area") with
           | Some g, Some u, Some a ->
             g >= row.S.Opamp_problem.gain && u >= row.S.Opamp_problem.ugf
             && a <= row.S.Opamp_problem.area
           | _ -> false)
      in
      {
        c_name = Printf.sprintf "synth op %d re-measured" k;
        ok = same && verdict_holds;
        detail =
          Printf.sprintf "%s: gain %s ugf %s, meets_spec %b" row.S.Opamp_problem.name
            (hex_opt r.S.Driver.gain) (hex_opt r.S.Driver.ugf) r.S.Driver.meets_spec;
      })
    st.kept

let synth_extra st =
  if st.n = 0 then []
  else
    [
      ("synth.spec_met_frac", float_of_int st.met /. float_of_int st.n);
      ("synth.cost_p50", Stats.nearest_rank 50. st.costs);
    ]

let synth =
  W
    {
      name = "synth";
      pace = 17.;
      tail_pct = 80.;
      digest_ops = 20;
      setup = synth_setup;
      run_op = synth_run;
      teardown = ignore;
      check = synth_check;
      extra = synth_extra;
    }

(* ------------------------------------------------------------------ *)
(* verify: estimate then simulate (Tables 3 and 5 testbenches)         *)
(* ------------------------------------------------------------------ *)

(* The paper's small testbenches, 10-60 unknowns: servoed Newton, many
   single-frequency AC probes and transients.  The small side of any
   engine choice, and the source of the estimator-error figures. *)

type vop =
  | Opamp of E.Opamp.spec
  | Module of S.Module_problem.kind

type verify_st = {
  vops : vop array;
  drawn : int;
  rejected : int;
  mutable errs : float list;
}

let verify_list = 300

(* Four opamp ops then one module op, repeating. *)
let is_module i = i mod 5 = 4
let opamp_index i = (i / 5 * 4) + (i mod 5)

(* Opamp specs over the calibration grid's default ranges: gain, UGF,
   tail current, load and a buffer's output impedance log-uniform (a
   Halton point for the first attempt), half of them buffered, Simple or
   Wilson tail.  Specs the estimator rejects are redrawn at random. *)
let opamp_spec ~seed ~key j attempt =
  let d = Ape_calib.Grid.default in
  let st = stream seed (key @ [ j; attempt ]) in
  let u dim = if attempt = 0 then halton ~dim j else Random.State.float st 1. in
  let pick (lo, hi) dim = log_scale (u dim) lo hi in
  let av = pick d.Ape_calib.Grid.av 0 in
  let ugf = pick d.Ape_calib.Grid.ugf 1 in
  let ibias = pick d.Ape_calib.Grid.ibias 2 in
  let cl = pick d.Ape_calib.Grid.cl 3 in
  let buffer = u 4 < 0.5 in
  let bias_topology = if u 5 < 0.5 then E.Bias.Simple else E.Bias.Wilson in
  if buffer then
    let zout = log_scale (u 6) 8e2 2.5e3 in
    E.Opamp.spec ~buffer ~zout ~bias_topology ~av ~ugf ~ibias ~cl ()
  else E.Opamp.spec ~bias_topology ~av ~ugf ~ibias ~cl ()

(* Table 5's kinds in rotation, every continuous spec jittered by up to
   20 % either way; the flash ADC alternates 3 and 4 bits (a 6-bit one
   takes seconds to simulate and would be the whole workload). *)
let module_kind ~seed ~key m attempt =
  let st = stream seed (key @ [ m; attempt ]) in
  let j x = x *. uniform st 0.8 1.2 in
  match List.nth F.table5_kinds (m mod List.length F.table5_kinds) with
  | S.Module_problem.M_sh { gain; bandwidth; sr } ->
    S.Module_problem.M_sh { gain = j gain; bandwidth = j bandwidth; sr = j sr }
  | S.Module_problem.M_audio { gain; bandwidth } ->
    S.Module_problem.M_audio { gain = j gain; bandwidth = j bandwidth }
  | S.Module_problem.M_adc { bits = _; delay } ->
    S.Module_problem.M_adc { bits = 3 + (m / 5 mod 2); delay = j delay }
  | S.Module_problem.M_lpf { order; f_cutoff } ->
    S.Module_problem.M_lpf { order; f_cutoff = j f_cutoff }
  | S.Module_problem.M_bpf { f_center; q; gain } ->
    S.Module_problem.M_bpf { f_center = j f_center; q = j q; gain = j gain }

(* Draw until the estimator accepts; returns the op and the attempts. *)
let first_feasible draw accept =
  let rec go attempt =
    let v = draw attempt in
    match accept v with
    | () -> (v, attempt + 1)
    | exception _ when attempt < 50 -> go (attempt + 1)
  in
  go 0

let verify_op_list ~seed ~key n =
  let drawn = ref 0 in
  let vops =
    Array.init n (fun i ->
        let v, attempts =
          if is_module i then
            let m = i / 5 in
            let k, a =
              first_feasible (module_kind ~seed ~key m) (fun k ->
                  ignore (S.Module_problem.ape_module F.proc k))
            in
            (Module k, a)
          else
            let s, a =
              first_feasible (opamp_spec ~seed ~key (opamp_index i)) (fun s ->
                  ignore (E.Opamp.design F.proc s))
            in
            (Opamp s, a)
        in
        drawn := !drawn + attempts;
        v)
  in
  (vops, !drawn, !drawn - n)

(* Estimate/simulation pairs: gain, UGF, power, area and slew of an
   opamp; the specified attributes of a module.  CMRR is left out: its
   simulated value is ill-conditioned (ROADMAP item 4). *)
let verify_pairs = function
  | Opamp spec ->
    let d = span "estimator.design" (fun () -> E.Opamp.design F.proc spec) in
    let sim = span "estimator.sim" (fun () -> E.Verify.sim_opamp ~slew:true F.proc d) in
    let est = d.E.Opamp.perf in
    [
      ("gain", est.E.Perf.gain, sim.E.Perf.gain);
      ("ugf", est.E.Perf.ugf, sim.E.Perf.ugf);
      ("power", Some est.E.Perf.dc_power, Some sim.E.Perf.dc_power);
      ("area", Some est.E.Perf.gate_area, Some sim.E.Perf.gate_area);
      ("slew", est.E.Perf.slew_rate, sim.E.Perf.slew_rate);
    ]
  | Module kind ->
    let d = span "estimator.design" (fun () -> S.Module_problem.ape_module F.proc kind) in
    let sim = span "estimator.sim" (fun () -> E.Verify.sim_module F.proc d) in
    let est = F.module_estimates d and meas = F.module_measurements sim in
    List.map
      (fun k -> (k, List.assoc_opt k est, List.assoc_opt k meas))
      (F.spec_keys kind)

let verify_run st i =
  let v = st.vops.(i mod Array.length st.vops) in
  let result, latency = timed (fun () -> guarded (fun () -> verify_pairs v)) in
  match result with
  | Error e ->
    { samples = [ { latency; failed = true } ]; digest = Printexc.to_string e }
  | Ok pairs ->
    List.iter
      (fun (_, e, s) ->
        match (e, s) with
        | Some est, Some sim -> (
          match rel_err ~est ~sim with
          | Some r -> st.errs <- r :: st.errs
          | None -> ())
        | _ -> ())
      pairs;
    {
      samples = [ { latency; failed = false } ];
      digest =
        String.concat " "
          (List.map (fun (k, e, s) -> k ^ "=" ^ hex_opt e ^ "/" ^ hex_opt s) pairs);
    }

(* Warm-up: three of Table 3's opamps, the same for every seed so that
   set-up time does not depend on it. *)
let verify_setup ~seed =
  let vops, drawn, rejected = verify_op_list ~seed ~key:[ 0 ] verify_list in
  List.iter
    (fun spec -> ignore (guarded (fun () -> verify_pairs (Opamp spec))))
    (List.filteri (fun k _ -> k < 3) F.table3_specs);
  { vops; drawn; rejected; errs = [] }

let golden_dir = "test/golden"

let verify_check _ ~seed:_ =
  let outcome =
    span "check.catalog" (fun () ->
        Ape_check.Check.run ~golden_dir F.proc)
  in
  [
    {
      c_name = "verify catalog vs " ^ golden_dir;
      ok = Ape_check.Check.ok outcome;
      detail =
        Printf.sprintf "%d tolerance failure(s), %d golden drift(s)"
          (List.length (Ape_check.Check.failures outcome))
          (List.length (Ape_check.Check.drifts outcome));
    };
  ]

let verify_extra st =
  ("estimator.infeasible_frac", float_of_int st.rejected /. float_of_int st.drawn)
  ::
  (if st.errs = [] then []
   else
     [
       ("estimator.err_p50", Stats.nearest_rank 50. st.errs);
       ("estimator.err_p90", Stats.nearest_rank 90. st.errs);
     ])

let verify =
  W
    {
      name = "verify";
      pace = 22.;
      tail_pct = 85.;
      digest_ops = 20;
      setup = verify_setup;
      run_op = verify_run;
      teardown = ignore;
      check = verify_check;
      extra = verify_extra;
    }

(* ------------------------------------------------------------------ *)
(* sim: parse a deck, DC, AC sweep, measurements, noise                *)
(* ------------------------------------------------------------------ *)

(* The only workload whose system size and parse/flatten cost grow:
   LU refactors, 181-point panel sweeps and the dense/sparse crossover
   dominate.  The large side of the engine choice. *)

type deck = {
  title : string;
  text : string;
  path : string option;  (** for decks read from a file *)
  out : string;
  ladder : (int * float * float) option;  (** sections, r, c *)
}

type sim_meas = {
  v_out : float;
  dc_gain : float;
  f3db : float option;
  ugf : float option;
  noise : float;
}

type sim_st = {
  decks : deck array;
  mutable measured : (int * string * sim_meas) list;  (** first ops, newest first *)
  mutable ladder_probes : (deck * float * Complex.t) list;
      (** (ladder, its f-3dB, simulated V(out) there) *)
  mutable recorded : int;  (** ops recorded so far *)
}

let sim_list = 800
let sim_recorded = 100

(* The checked-in decks and their output nodes. *)
let file_decks =
  [
    ("test/golden/decks/rc_ladder.sp", "out");
    ("test/golden/decks/mos_amp.sp", "d");
    ("test/golden/decks/mirror.sp", "out");
    ("test/golden/decks/sc_track.sp", "out");
    ("examples/jobs/rc.sp", "out");
    ("examples/decks/two_stage.sp", "out");
  ]

(* A degenerated common-source stage driving a source follower; each
   instance has a gain of magnitude below one, so a long cascade's DC
   levels settle on one fixed point instead of railing. *)
let cascade_deck ~title k =
  let b = Buffer.create 1024 in
  Printf.bprintf b
    "* %s\n\
     .MODEL NCH NMOS (LEVEL=1 VTO=0.7 KP=100u LAMBDA=0.02 TOX=20n)\n\
     .SUBCKT amp2 in out vdd rd=8k rs=10k\n\
     M1 d1 in s1 0 NCH W=20u L=2u\n\
     RS1 s1 0 {rs}\n\
     RD1 vdd d1 {rd}\n\
     C1 d1 0 0.5p\n\
     M2 vdd d1 out 0 NCH W=20u L=2u\n\
     RS2 out 0 20k\n\
     C2 out 0 1p\n\
     .ENDS\n\
     VDD vdd 0 DC 5\n\
     VIN n0 0 DC 2 AC 1\n"
    title;
  for x = 1 to k do
    Printf.bprintf b "X%d n%d n%d vdd amp2\n" x (x - 1) x
  done;
  Buffer.add_string b ".END\n";
  { title; text = Buffer.contents b; path = None; out = Printf.sprintf "n%d" k; ladder = None }

(* An RC ladder with resistor and capacitor values drawn from [st]. *)
let ladder_deck ~title ~sections st =
  let r = log_uniform st 500. 2e3 and c = log_uniform st 0.5e-9 2e-9 in
  {
    title;
    text = Ladder_ref.deck ~title ~sections ~r ~c;
    path = None;
    out = Ladder_ref.out_node sections;
    ladder = Some (sections, r, c);
  }

(* Per block of five: two ladders (8-96 sections), two cascades (1-16
   instances), one checked-in deck in rotation. *)
let sim_deck ~seed ~key ~files i =
  let b = i / 5 in
  let title = Printf.sprintf "op%d" i in
  match i mod 5 with
  | (0 | 1) as p ->
    let j = (2 * b) + p in
    let sections = int_of_float (Float.round (log_scale (halton ~dim:0 j) 8. 96.)) in
    ladder_deck ~title ~sections (stream seed (key @ [ 11; j ]))
  | 2 | 3 ->
    let j = (2 * b) + (i mod 5) - 2 in
    let k = int_of_float (Float.round (log_scale (halton ~dim:1 j) 1. 16.)) in
    cascade_deck ~title k
  | _ -> files.(b mod Array.length files)

let read_decks () =
  Array.of_list
    (List.map
       (fun (file, out) ->
         {
           title = file;
           text = In_channel.with_open_bin file In_channel.input_all;
           path = Some file;
           out;
           ladder = None;
         })
       file_decks)

let sweep_grid = Ac.sweep_frequencies ~points_per_decade:20 ~fstart:1. ~fstop:1e9 ()

let simulate deck =
  let module M = Ape_spice.Measure.Prepared in
  let parsed =
    span "circuit.parse" (fun () ->
        Ape_circuit.Spice_parser.parse_result ~process:F.proc ?path:deck.path
          ~title:deck.title deck.text)
  in
  (match Ape_circuit.Spice_parser.errors parsed with
  | [] -> ()
  | d :: _ -> failwith (Ape_circuit.Spice_parser.render_short d));
  let op = span "spice.dc" (fun () -> Ape_spice.Dc.solve parsed.netlist) in
  let prep = span "spice.ac_prepare" (fun () -> Ac.prepare op) in
  let sweep = span "spice.ac_sweep" (fun () -> Ac.sweep_prepared prep sweep_grid) in
  let out = deck.out in
  let dc_gain, f3db, ugf =
    span "spice.measure" (fun () ->
        let g = M.dc_gain ~out prep in
        let f = M.f_minus_3db ~out prep in
        (g, f, M.unity_gain_frequency ~out prep))
  in
  let noise =
    span "spice.noise" (fun () ->
        Ape_spice.Noise.integrated_output_prepared ~out ~fstart:10. ~fstop:1e8 prep)
  in
  let checksum =
    List.fold_left
      (fun acc s -> acc +. Complex.norm (Ac.voltage_prepared prep s out))
      0. sweep.Ac.points
  in
  ( prep,
    { v_out = Ape_spice.Dc.voltage op out; dc_gain; f3db; ugf; noise },
    checksum )

let meas_fields m =
  [ hex m.v_out; hex m.dc_gain; hex_opt m.f3db; hex_opt m.ugf; hex m.noise ]

let sim_run st i =
  let deck = st.decks.(i mod Array.length st.decks) in
  let result, latency = timed (fun () -> guarded (fun () -> simulate deck)) in
  match result with
  | Error e ->
    { samples = [ { latency; failed = true } ]; digest = Printexc.to_string e }
  | Ok (prep, m, checksum) ->
    (* Record each op once, on its first run. *)
    if i >= st.recorded then begin
      st.recorded <- i + 1;
      if i < sim_recorded then st.measured <- (i, deck.title, m) :: st.measured;
      match (deck.ladder, m.f3db) with
      | Some _, Some f ->
        let v = Ac.voltage_prepared prep (Ac.solve_prepared prep f) deck.out in
        st.ladder_probes <- (deck, f, v) :: st.ladder_probes
      | _ -> ()
    end;
    {
      samples = [ { latency; failed = false } ];
      digest = String.concat " " (deck.title :: hex checksum :: meas_fields m);
    }

(* Warm-up: one mid-sized ladder (values from the warm-up stream), one
   mid-sized cascade and one checked-in deck — fixed sizes, so set-up
   time does not depend on the seed. *)
let sim_setup ~seed =
  let files = read_decks () in
  let decks = Array.init sim_list (sim_deck ~seed ~key:[ 0 ] ~files) in
  List.iter
    (fun deck -> ignore (guarded (fun () -> simulate deck)))
    [
      ladder_deck ~title:"warm-up" ~sections:28 (stream seed [ 1 ]);
      cascade_deck ~title:"warm-up" 4;
      files.(0);
    ];
  { decks; measured = []; ladder_probes = []; recorded = 0 }

let expected_file = "bench/e2e/expected/sim-seed1.tsv"

let tsv_fields m =
  let f x = Printf.sprintf "%.17g" x in
  let fo = function Some x -> f x | None -> "-" in
  [ f m.v_out; f m.dc_gain; fo m.f3db; fo m.ugf; f m.noise ]

let tsv_line (i, title, m) = String.concat "\t" (string_of_int i :: title :: tsv_fields m)

let close_to ~rtol a b =
  match (float_of_string_opt a, float_of_string_opt b) with
  | Some x, Some y -> Float.abs (x -. y) <= rtol *. Float.max (Float.abs x) (Float.abs y)
  | _ -> String.equal a b

let sim_check st ~seed =
  let ladder =
    let worst =
      List.fold_left
        (fun acc (deck, f, v) ->
          match deck.ladder with
          | Some (sections, r, c) ->
            let h = Ladder_ref.transfer ~sections ~r ~c f in
            Float.max acc (Complex.norm (Complex.sub v h) /. Complex.norm h)
          | None -> acc)
        0. st.ladder_probes
    in
    {
      c_name = "ladder AC at f-3dB vs ABCD cascade";
      ok = worst <= 1e-9;
      detail =
        Printf.sprintf "%d ladders, worst relative error %.3g (rtol 1e-9)"
          (List.length st.ladder_probes) worst;
    }
  in
  if seed <> 1 then [ ladder ]
  else
    let expected =
      In_channel.with_open_bin expected_file In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
      |> List.map (String.split_on_char '\t')
    in
    let mismatches =
      List.filter
        (fun (i, title, m) ->
          match List.nth_opt expected i with
          | Some (idx :: t :: fields) ->
            not
              (idx = string_of_int i && t = title
              && List.length fields = 5
              && List.for_all2 (close_to ~rtol:1e-6) fields (tsv_fields m))
          | _ -> true)
        st.measured
    in
    [
      ladder;
      {
        c_name = "sim measurements vs " ^ expected_file;
        ok = mismatches = [];
        detail =
          Printf.sprintf "%d ops compared, %d mismatched (rtol 1e-6)"
            (List.length st.measured) (List.length mismatches);
      };
    ]

(* The frozen reference: the first [sim_recorded] ops at seed 1. *)
let sim_expected () =
  let files = read_decks () in
  List.init sim_recorded (fun i ->
      let deck = sim_deck ~seed:1 ~key:[ 0 ] ~files i in
      let _, m, _ = simulate deck in
      tsv_line (i, deck.title, m))

let sim =
  W
    {
      name = "sim";
      pace = 52.;
      tail_pct = 93.;
      digest_ops = 20;
      setup = sim_setup;
      run_op = sim_run;
      teardown = ignore;
      check = sim_check;
      extra = (fun _ -> []);
    }

(* ------------------------------------------------------------------ *)
(* serve: mixed job batches through the scheduler                      *)
(* ------------------------------------------------------------------ *)

(* The only workload with queueing, warm cross-batch estimate caches,
   tempered chains and APE-mode searches that stop after a few
   evaluations.  One worker: on a 2-vCPU VM with shared cores, two
   workers were no faster and their throughput spread across runs was
   twice as wide (bench/e2e/README.md). *)

type serve_st = {
  mutable runner : Sv.Runner.t;
      (** fresh (cold caches) at the start of every pass, so each pass
          repeats the same cache-warming trajectory *)
  pool : Ape_util.Pool.t;
  batches : string array;
  mutable first : Sv.Record.t list;  (** the first timed batch's records *)
  mutable first_text : string;
  mutable runs : (string * float) list;  (** (kind, run seconds) per job *)
  mutable waits : float list;  (** emit latency minus run time, s *)
  mutable lookups : int;
  mutable hits : int;
  mutable synth_jobs : int;
  mutable synth_met : int;
}

let serve_workers = 1
let serve_list = 100

let config =
  {
    Sv.Scheduler.default with
    Sv.Scheduler.jobs = serve_workers;
    queue = 8;
    policy = Sv.Scheduler.Block;
  }

let num = Ape_util.Units.to_exact

(* Four synthesis fingerprints, reused by every batch. *)
let synth_specs =
  [
    "(gain 200) (ugf 1.3meg) (ibias 1u) (bias wilson) (buffer) (zout 1k)";
    "(gain 250) (ugf 8meg) (ibias 1u)";
    "(gain 200) (ugf 8meg) (ibias 10u)";
    "(gain 200) (ugf 3meg) (ibias 1u) (buffer) (zout 1k)";
  ]

(* The sim workload's decks except the one with an [.INCLUDE]: the
   runner parses job files without their path, so it fails from serve. *)
let sim_jobs = List.filter (fun (f, _) -> f <> "examples/decks/two_stage.sp") file_decks

(* An opamp spec the estimator accepts, as job fields. *)
let feasible_opamp st =
  let rec go () =
    let av = log_uniform st 60. 600. and ugf = log_uniform st 8e5 1.4e7 in
    match E.Opamp.design F.proc (E.Opamp.spec ~av ~ugf ~ibias:1e-6 ()) with
    | _ -> Printf.sprintf "(gain %s) (ugf %s)" (num av) (num ugf)
    | exception E.Opamp.Infeasible _ -> go ()
  in
  go ()

(* Every batch holds the same mix — 12 estimate, 5 synth (APE mode,
   quick schedule, the four fingerprints in turn, the first with two
   tempered chains), 4 Monte Carlo (50 samples), 2 sim (the decks in
   turn) and 1 verify job (basic and device levels in turn) — in a
   shuffled order.  Batch [b]'s order is the same for every seed: where
   the slow synth jobs sit sets how long the others wait, and with a
   seed-drawn order op_p50_ms ranged from 62 to 85 ms over ten seeds. *)
let batch_kinds = [ (12, `Estimate); (5, `Synth); (4, `Mc); (2, `Sim); (1, `Verify) ]

let shuffle st a =
  for k = Array.length a - 1 downto 1 do
    let m = Random.State.int st (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(m);
    a.(m) <- t
  done;
  a

let batch_text ?kinds ~seed ~key b =
  let st = stream seed (key @ [ b ]) in
  let kinds =
    match kinds with
    | Some k -> k
    | None ->
      (* Seeds are non-negative, so -1 keys a stream of its own. *)
      shuffle (stream (-1) (key @ [ b ]))
        (Array.of_list (List.concat_map (fun (n, k) -> List.init n (fun _ -> k)) batch_kinds))
  in
  let synth_n = ref 0 and sim_n = ref 0 in
  let job j kind =
    let id = Printf.sprintf "b%d-j%d" b j in
    let seed () = Random.State.bits st land 0xFFFFFF in
    match kind with
    | `Estimate -> Printf.sprintf "(job estimate (id %s) %s)" id (feasible_opamp st)
    | `Synth ->
      let n = (b * 5) + !synth_n in
      incr synth_n;
      Printf.sprintf "(job synth (id %s) %s (schedule quick) (seed %d)%s)" id
        (List.nth synth_specs (n mod 4))
        (seed ())
        (if n mod 4 = 0 then " (chains 2)" else "")
    | `Mc ->
      Printf.sprintf "(job mc (id %s) %s (samples 50) (seed %d))" id (feasible_opamp st)
        (seed ())
    | `Sim ->
      let n = (b * 2) + !sim_n in
      incr sim_n;
      let file, out = List.nth sim_jobs (n mod List.length sim_jobs) in
      Printf.sprintf "(job sim (id %s) (file %S) (out %s))" id file out
    | `Verify ->
      Printf.sprintf "(job verify (id %s) (levels %s))" id
        (if b mod 2 = 0 then "basic" else "device")
  in
  String.concat "\n" (Array.to_list (Array.mapi job kinds))

let failed_status = function
  | Sv.Record.Done | Sv.Record.Unmet -> false
  | Sv.Record.Failed _ | Sv.Record.Parse_error _ | Sv.Record.Overloaded
  | Sv.Record.Timeout | Sv.Record.Cancelled ->
    true

(* Submit one batch; returns its records with their emit latencies
   (from submission, parse included) and the batch summary. *)
let submit runner pool ~id text =
  let t0 = now () in
  let jobs = span "serve.parse_batch" (fun () -> Sv.Job.parse_batch text) in
  let emitted = ref [] in
  let summary =
    span "serve.run_batch" (fun () ->
        Sv.Scheduler.run_batch ~pool config runner ~batch:id
          ~emit:(fun r -> emitted := (r, now () -. t0) :: !emitted)
          jobs)
  in
  (List.rev !emitted, summary)

let render r = Sv.Record.render ~deterministic:true r

let serve_setup ~seed =
  let runner = Sv.Runner.create F.proc in
  let pool = Ape_util.Pool.create ~workers:serve_workers in
  let batches = Array.init serve_list (batch_text ~seed ~key:[ 0 ]) in
  (* Warm-up: one estimate, one synth and one Monte Carlo job from the
     warm-up stream. *)
  ignore
    (submit runner pool ~id:"warm-up"
       (batch_text ~kinds:[| `Estimate; `Synth; `Mc |] ~seed ~key:[ 1 ] 0));
  {
    runner;
    pool;
    batches;
    first = [];
    first_text = "";
    runs = [];
    waits = [];
    lookups = 0;
    hits = 0;
    synth_jobs = 0;
    synth_met = 0;
  }

let serve_run st i =
  if i = 0 then st.runner <- Sv.Runner.create F.proc;
  let text = st.batches.(i mod serve_list) in
  let records, summary = submit st.runner st.pool ~id:(Printf.sprintf "batch%d" i) text in
  if i = 0 then begin
    st.first <- List.map fst records;
    st.first_text <- text
  end;
  st.lookups <- st.lookups + summary.Sv.Record.cache_lookups;
  st.hits <- st.hits + summary.Sv.Record.cache_hits;
  List.iter
    (fun ((r : Sv.Record.t), latency) ->
      st.runs <- (r.kind, r.seconds) :: st.runs;
      st.waits <- (latency -. r.seconds) :: st.waits;
      if r.kind = "synth" then begin
        st.synth_jobs <- st.synth_jobs + 1;
        if List.assoc_opt "meets_spec" r.payload = Some (Sv.Record.Bool true) then
          st.synth_met <- st.synth_met + 1
      end)
    records;
  {
    samples = List.map (fun ((r : Sv.Record.t), latency) -> { latency; failed = failed_status r.status }) records;
    digest = String.concat "\n" (List.map (fun (r, _) -> render r) records);
  }

let serve_teardown st = Ape_util.Pool.shutdown st.pool

(* A job's record depends only on its spec: the first timed batch, run
   through the warm, concurrent service, must render exactly as its
   jobs run one by one on a fresh runner. *)
let serve_check st ~seed:_ =
  if st.first = [] then []
  else
    let runner = Sv.Runner.create F.proc in
    let direct =
      List.filter_map
        (function
          | Ok (job : Sv.Job.t) ->
            let status, payload = Sv.Runner.run runner job in
            Some
              (render
                 { Sv.Record.id = job.id; kind = Sv.Job.kind_name job; status; seconds = 0.; payload })
          | Error _ -> None)
        (Sv.Job.parse_batch st.first_text)
    in
    let served = List.map render st.first in
    [
      {
        c_name = "serve records vs direct runs";
        ok = direct = served;
        detail = Printf.sprintf "%d jobs of the first batch" (List.length served);
      };
    ]

let ms_p p xs = if xs = [] then 0. else 1000. *. Stats.nearest_rank p xs

let serve_extra st =
  let runs = List.map snd st.runs in
  let kind k =
    let xs = List.filter_map (fun (k', s) -> if k' = k then Some s else None) st.runs in
    ( Printf.sprintf "serve.kind.%s.run_ms" k,
      if xs = [] then 0. else 1000. *. List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) )
  in
  [
    ("serve.job_run_ms.p50", ms_p 50. runs);
    ("serve.job_run_ms.p90", ms_p 90. runs);
    ("serve.job_wait_ms.p50", ms_p 50. st.waits);
    ("serve.job_wait_ms.p90", ms_p 90. st.waits);
    ("serve.cache_hit_frac", if st.lookups = 0 then 0. else float_of_int st.hits /. float_of_int st.lookups);
    ("synth.spec_met_frac", if st.synth_jobs = 0 then 0. else float_of_int st.synth_met /. float_of_int st.synth_jobs);
  ]
  @ List.map kind [ "estimate"; "synth"; "mc"; "sim"; "verify" ]

let serve =
  W
    {
      name = "serve";
      pace = 7.;
      tail_pct = 98.;
      digest_ops = 5;
      setup = serve_setup;
      run_op = serve_run;
      teardown = serve_teardown;
      check = serve_check;
      extra = serve_extra;
    }

let all = [ synth; verify; sim; serve ]
let name (W d) = d.name
let find n = List.find_opt (fun w -> name w = n) all
