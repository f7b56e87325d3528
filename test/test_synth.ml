(* Tests for Ape_synth: the annealer, parameter templates, the cost
   model, and the Table-1/Table-4 driver behaviour. *)

module S = Ape_synth
module E = Ape_estimator
module N = Ape_circuit.Netlist
module I = Ape_util.Interval
module F = Ape_util.Float_ext

let proc = Ape_process.Process.c12
let sq x = x *. x

(* ---------- anneal ---------- *)

let test_anneal_quadratic () =
  let rng = Ape_util.Rng.create 5 in
  let target = [| 0.3; 0.7; 0.5 |] in
  let cost x =
    Array.to_list (Array.mapi (fun i v -> sq (v -. target.(i))) x)
    |> List.fold_left ( +. ) 0.
  in
  let best, stats =
    S.Anneal.optimize ~schedule:S.Anneal.quick_schedule ~rng ~dim:3 ~cost
      ~start:(fun _ -> [| 0.; 0.; 0. |]) ()
  in
  Alcotest.(check bool) "found minimum" true (stats.S.Anneal.best_cost < 1e-2);
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "coordinate %d near target" i)
        true
        (Float.abs (v -. target.(i)) < 0.1))
    best

let test_anneal_early_stop () =
  let rng = Ape_util.Rng.create 5 in
  let cost _ = 0.001 in
  let _, stats =
    S.Anneal.optimize ~stop_below:0.01 ~rng ~dim:2 ~cost
      ~start:(fun _ -> [| 0.5; 0.5 |]) ()
  in
  Alcotest.(check int) "stopped after first eval" 1 stats.S.Anneal.evaluations

let test_anneal_budget () =
  let rng = Ape_util.Rng.create 5 in
  let schedule = { S.Anneal.quick_schedule with S.Anneal.max_evaluations = 50 } in
  let evals = ref 0 in
  let cost _ = incr evals; 1.0 in
  let _, stats =
    S.Anneal.optimize ~schedule ~rng ~dim:2 ~cost
      ~start:(fun _ -> [| 0.5; 0.5 |]) ()
  in
  Alcotest.(check bool) "respects budget" true (stats.S.Anneal.evaluations <= 50)

let test_anneal_nan_hostile () =
  let rng = Ape_util.Rng.create 5 in
  let cost x = if x.(0) > 0.5 then Float.nan else x.(0) in
  let best, _ =
    S.Anneal.optimize ~schedule:S.Anneal.quick_schedule ~rng ~dim:1 ~cost
      ~start:(fun _ -> [| 0.4 |]) ()
  in
  Alcotest.(check bool) "avoids NaN region" true (best.(0) <= 0.5)

(* ---------- template ---------- *)

let base_netlist () =
  let b = Ape_circuit.Builder.create ~title:"t" in
  Ape_circuit.Builder.vsource b ~p:"vdd" ~n:"0" 5.;
  Ape_oracle.Support.nmos b proc ~d:"vdd" ~g:"vdd" ~s:"0" ~w:10e-6 ~l:2e-6;
  Ape_oracle.Support.nmos b proc ~d:"vdd" ~g:"vdd" ~s:"0" ~w:10e-6 ~l:2e-6;
  Ape_circuit.Builder.resistor b ~a:"vdd" ~b:"0" 1e3;
  Ape_circuit.Builder.capacitor b ~a:"vdd" ~b:"0" 1e-12;
  Ape_circuit.Builder.finish b

let test_template_instantiate () =
  let nl = base_netlist () in
  let t =
    S.Template.make nl
      [
        S.Template.param ~name:"w" ~range:(I.make 1e-6 100e-6)
          (S.Template.Mos_width [ "M1"; "M2" ]);
        S.Template.param ~name:"r" ~range:(I.make 100. 1e6)
          (S.Template.Res_value [ "R1" ]);
      ]
  in
  Alcotest.(check int) "dim" 2 (S.Template.dim t);
  let out = S.Template.instantiate t [| 1.; 0. |] in
  List.iter
    (fun e ->
      match e with
      | N.Mosfet { geom; _ } ->
        Alcotest.(check (float 1e-9)) "w at max" 100e-6 geom.Ape_device.Mos.w
      | N.Resistor { r; _ } ->
        Alcotest.(check (float 1e-6)) "r at min" 100. r
      | _ -> ())
    (N.elements out)

let test_template_bad_references () =
  let nl = base_netlist () in
  let bad name target =
    match S.Template.make nl [ S.Template.param ~name ~range:(I.make 1. 2.) target ] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail ("expected Invalid_argument for " ^ name)
  in
  bad "missing" (S.Template.Mos_width [ "M99" ]);
  bad "wrong kind" (S.Template.Cap_value [ "R1" ])

let test_center_point () =
  let nl = base_netlist () in
  let t =
    S.Template.make nl
      [
        S.Template.param ~log_scale:false ~name:"r" ~range:(I.make 100. 300.)
          (S.Template.Res_value [ "R1" ]);
      ]
  in
  let values =
    S.Template.values_of_point t (Array.make (S.Template.dim t) 0.5)
  in
  Alcotest.(check (float 1e-6)) "linear center" 200. (List.assoc "r" values)

(* ---------- cost ---------- *)

let test_cost_violations () =
  let model =
    S.Cost.make
      [ S.Cost.at_least "gain" 100.; S.Cost.at_most "area" 1e-9 ]
      [ S.Cost.minimize "power" ~scale:1e-3 ]
  in
  let good = [ ("gain", 150.); ("area", 0.5e-9); ("power", 1e-4) ] in
  let bad = [ ("gain", 50.); ("area", 2e-9); ("power", 1e-4) ] in
  Alcotest.(check bool) "good satisfied" true (S.Cost.all_satisfied model good);
  Alcotest.(check bool) "bad violates" false (S.Cost.all_satisfied model bad);
  Alcotest.(check bool) "good cheaper" true
    (S.Cost.evaluate model (Some good) < S.Cost.evaluate model (Some bad));
  Alcotest.(check bool) "failure is most expensive" true
    (S.Cost.evaluate model None > S.Cost.evaluate model (Some bad));
  (* Missing metric = gross violation. *)
  Alcotest.(check bool) "missing metric violates" false
    (S.Cost.all_satisfied model [ ("area", 0.5e-9) ])

(* ---------- opamp problem / driver ---------- *)

let small_row =
  {
    S.Opamp_problem.name = "t1";
    gain = 150.;
    ugf = 2e6;
    area = 1.;
    ibias = 1e-6;
    curr_src = E.Bias.Simple;
    buffer = false;
    zout = None;
    cl = 10e-12;
  }

let row_with_budget () =
  { small_row with
    S.Opamp_problem.area = S.Opamp_problem.area_budget proc small_row
  }

let test_ape_centered_meets_fast () =
  let row = row_with_budget () in
  let rng = Ape_util.Rng.create 31 in
  let r =
    S.Driver.run ~schedule:S.Anneal.quick_schedule ~rng proc
      ~mode:(S.Opamp_problem.Ape_centered 0.2) row
  in
  Alcotest.(check bool) "meets spec" true r.S.Driver.meets_spec;
  (* The relaxed in-loop metrics carry safety margins, so the annealer
     may use its whole (small) budget even though the start point already
     satisfies the true specs. *)
  Alcotest.(check bool) "stays within the quick budget" true
    (r.S.Driver.stats.S.Anneal.evaluations
    <= S.Anneal.quick_schedule.S.Anneal.max_evaluations)

let test_template_groups_matched () =
  let row = row_with_budget () in
  let design = S.Opamp_problem.ape_design proc row in
  let problem =
    S.Opamp_problem.build proc ~mode:(S.Opamp_problem.Ape_centered 0.2) row
      design
  in
  (* Instantiating any point must keep the diff pair matched. *)
  let rng = Ape_util.Rng.create 9 in
  for _ = 1 to 5 do
    let point =
      Array.init problem.S.Opamp_problem.dim (fun _ ->
          Ape_util.Rng.uniform rng 0. 1.)
    in
    let nl, _ = problem.S.Opamp_problem.final point in
    let w name =
      List.find_map
        (fun e ->
          match e with
          | N.Mosfet { name = n; geom; _ } when n = name ->
            Some geom.Ape_device.Mos.w
          | _ -> None)
        (N.elements nl)
    in
    match (w "d1.M1", w "d1.M2") with
    | Some w1, Some w2 ->
      Alcotest.(check (float 1e-15)) "pair matched" w1 w2
    | _ -> Alcotest.fail "pair devices missing"
  done

let test_measure_keys () =
  let row = row_with_budget () in
  let design = S.Opamp_problem.ape_design proc row in
  let problem =
    S.Opamp_problem.build proc ~mode:(S.Opamp_problem.Ape_centered 0.2) row
      design
  in
  let rng = Ape_util.Rng.create 9 in
  let start = problem.S.Opamp_problem.start rng in
  (* The true measurement of the APE-centred candidate carries all the
     verdict keys. *)
  (match snd (problem.S.Opamp_problem.final start) with
  | None -> Alcotest.fail "measurement failed at APE center"
  | Some m ->
    List.iter
      (fun key ->
        Alcotest.(check bool) ("has " ^ key) true (S.Cost.find m key <> None))
      [ "gain"; "ugf"; "area"; "power"; "vout_center" ]);
  (* At the APE centre, KCL is satisfied and the relaxed cost is small
     (specs met + tiny pressure). *)
  let c = problem.S.Opamp_problem.cost start in
  Alcotest.(check bool)
    (Printf.sprintf "relaxed cost small at APE centre (%.4f)" c)
    true (c < 0.3)

let test_comment_classification () =
  let row = { small_row with S.Opamp_problem.area = 1e-9 } in
  Alcotest.(check string) "none = doesn't work" "doesn't work."
    (S.Driver.comment_of row None);
  Alcotest.(check string) "railed = doesn't work" "doesn't work."
    (S.Driver.comment_of row (Some [ ("vout_center", 2.0) ]));
  Alcotest.(check string) "meets"
    "Meets spec"
    (S.Driver.comment_of row
       (Some
          [
            ("gain", 200.); ("ugf", 3e6); ("area", 0.5e-9); ("vout_center", 0.1);
          ]));
  Alcotest.(check string) "gain collapse" "Gain << Spec"
    (S.Driver.comment_of row
       (Some [ ("gain", 1.); ("ugf", 3e6); ("area", 0.5e-9); ("vout_center", 0.1) ]));
  Alcotest.(check string) "area blowup" "Area >> Spec"
    (S.Driver.comment_of row
       (Some [ ("gain", 200.); ("ugf", 3e6); ("area", 9e-9); ("vout_center", 0.1) ]))

(* ---------- estimation cache ---------- *)

let test_est_cache_hits_and_quantization () =
  let cache = S.Est_cache.create () in
  let evals = ref 0 in
  let f v = fun _rep -> incr evals; v in
  Alcotest.(check (float 0.)) "miss computes" 1.
    (S.Est_cache.find_or_add cache [| 0.5; 0.5 |] (f 1.));
  Alcotest.(check (float 0.)) "exact revisit hits" 1.
    (S.Est_cache.find_or_add cache [| 0.5; 0.5 |] (f 99.));
  (* Within half a quantum (1e-2): same key. *)
  Alcotest.(check (float 0.)) "sub-quantum alias hits" 1.
    (S.Est_cache.find_or_add cache [| 0.504; 0.5 |] (f 99.));
  (* A full quantum away: different key. *)
  Alcotest.(check (float 0.)) "next cell misses" 2.
    (S.Est_cache.find_or_add cache [| 0.51; 0.5 |] (f 2.));
  Alcotest.(check int) "two evaluations ran" 2 !evals;
  Alcotest.(check int) "hits" 2 (S.Est_cache.hits cache);
  Alcotest.(check int) "lookups" 4 (S.Est_cache.lookups cache)

let test_est_cache_full_table () =
  (* The table holds 8192 keys: those keep hitting; the next new key
     empties the table and is stored, so it hits from then on while an
     earlier key is evaluated again; every value is f at the key's
     representative point throughout. *)
  let capacity = 8192 in
  let cache = S.Est_cache.create () in
  let f rep = (3. *. rep.(0)) +. 1. in
  let evals = ref 0 in
  let counted rep = incr evals; f rep in
  (* Off the grid, so a value computed at the raw point would differ. *)
  let point k = [| (float_of_int k +. 0.3) *. 1e-2 |] in
  let ok = ref true in
  let check k =
    let rep = [| float_of_int k *. 1e-2 |] in
    if S.Est_cache.find_or_add cache (point k) counted <> f rep then
      ok := false
  in
  let hits () = S.Est_cache.hits cache in
  for k = 0 to capacity - 1 do check k done;
  Alcotest.(check int) "every key evaluated once" capacity !evals;
  Alcotest.(check int) "no hits while filling" 0 (hits ());
  for k = 0 to capacity - 1 do check k done;
  Alcotest.(check int) "held keys hit" capacity (hits ());
  Alcotest.(check int) "held keys not re-evaluated" capacity !evals;
  check capacity;
  Alcotest.(check int) "a key past capacity is evaluated" (capacity + 1)
    !evals;
  for _ = 1 to 3 do check capacity done;
  Alcotest.(check int) "and stored once the table resets" (capacity + 3)
    (hits ());
  check 0;
  Alcotest.(check int) "an earlier key is evaluated again" (capacity + 2)
    !evals;
  check 0;
  Alcotest.(check int) "and stored again" (capacity + 4) (hits ());
  Alcotest.(check int) "lookups" ((2 * capacity) + 6)
    (S.Est_cache.lookups cache);
  Alcotest.(check bool) "every value is f(representative)" true !ok

let test_driver_reports_cache_stats () =
  let row = row_with_budget () in
  let rng = Ape_util.Rng.create 31 in
  let r =
    S.Driver.run ~schedule:S.Anneal.quick_schedule ~rng proc
      ~mode:(S.Opamp_problem.Ape_centered 0.2) row
  in
  (* Every annealer evaluation goes through the cache. *)
  Alcotest.(check int) "lookups = evaluations"
    r.S.Driver.stats.S.Anneal.evaluations r.S.Driver.cache_lookups;
  Alcotest.(check bool) "hits within lookups" true
    (r.S.Driver.cache_hits >= 0
    && r.S.Driver.cache_hits <= r.S.Driver.cache_lookups)

(* ---------- module problems ---------- *)

let test_module_problem_ape_centered () =
  let rng = Ape_util.Rng.create 17 in
  let kind = S.Module_problem.M_sh { gain = 2.0; bandwidth = 20e3; sr = 1e4 } in
  let design = S.Module_problem.ape_module proc kind in
  let area_max = 1.4 *. (E.Module_lib.perf design).E.Perf.gate_area in
  let r =
    S.Module_problem.run ~schedule:S.Anneal.quick_schedule ~rng proc
      ~mode:(S.Module_problem.Ape_centered 0.2) ~area_max kind
  in
  Alcotest.(check bool) "s&h ape-centered meets" true r.S.Module_problem.meets_spec

let test_module_problem_adc_scaling () =
  let kind = S.Module_problem.M_adc { bits = 4; delay = 5e-6 } in
  let problem =
    S.Module_problem.build proc ~mode:(S.Module_problem.Ape_centered 0.2)
      ~area_max:1e-7 kind
  in
  Alcotest.(check (float 1e-9)) "adc area scale = 2^n - 1" 15.
    problem.S.Module_problem.area_scale

(* ---------- relax ---------- *)

let relax_divider () =
  let b = Ape_circuit.Builder.create ~title:"relax_div" in
  Ape_circuit.Builder.vsource b ~p:"vdd" ~n:"0" 5.;
  Ape_circuit.Builder.resistor b ~a:"vdd" ~b:"mid" 1e3;
  Ape_circuit.Builder.resistor b ~a:"mid" ~b:"0" 1e3;
  Ape_circuit.Builder.finish b

let test_relax_centered_zero_penalty () =
  let nl = relax_divider () in
  let t = S.Relax.create ~mode:`Centered ~vdd:5. nl in
  Alcotest.(check bool) "has free nodes" true (S.Relax.n_free t >= 1);
  (* `Centered` seeds the unknowns from a true DC solve, so Kirchhoff
     holds exactly at the centre point. *)
  let pen =
    S.Relax.with_stamp t nl
      (S.Relax.x_engine t (S.Relax.centers_unit t))
      (S.Relax.kcl_penalty t)
  in
  Alcotest.(check bool)
    (Printf.sprintf "penalty ~0 at the DC solution (got %g)" pen)
    true (pen < 1e-3);
  let x = S.Relax.x_engine t (S.Relax.centers_unit t) in
  Alcotest.(check (float 1e-2))
    "centre decodes to the solved 2.5 V" 2.5
    (S.Relax.node_voltage t x "mid")

let test_relax_wide_mapping () =
  let nl = relax_divider () in
  let t = S.Relax.create ~mode:`Wide ~vdd:5. nl in
  let n = S.Relax.n_free t in
  let at u =
    S.Relax.node_voltage t (S.Relax.x_engine t (Array.make n u)) "mid"
  in
  Alcotest.(check (float 1e-9)) "u=0 maps to 0 V" 0. (at 0.);
  Alcotest.(check (float 1e-9)) "u=1 maps to vdd" 5. (at 1.);
  Alcotest.(check (float 1e-9)) "u=0.5 maps to mid-rail" 2.5 (at 0.5);
  Array.iter
    (fun c -> Alcotest.(check (float 1e-9)) "wide centres mid-rail" 0.5 c)
    (S.Relax.centers_unit t)

let test_relax_fake_op_reads_back () =
  let nl = relax_divider () in
  let t = S.Relax.create ~mode:`Centered ~vdd:5. nl in
  let u = S.Relax.centers_unit t in
  let op = S.Relax.fake_op t nl (S.Relax.x_engine t u) in
  Alcotest.(check (float 1e-9))
    "fake op exposes the relaxed voltage"
    (S.Relax.node_voltage t (S.Relax.x_engine t u) "mid")
    (Ape_spice.Dc.voltage op "mid")

(* The paper's Table 1 rows, area budgets 1.3x the APE estimate (as
   bench/main.ml builds them). *)
let table1_rows () =
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
      { proto with S.Opamp_problem.area = S.Opamp_problem.area_budget proc proto })
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

let oa0 () = List.hd (table1_rows ())
let bits = Int64.bits_of_float
let same_floats a b = List.equal (fun x y -> bits x = bits y) a b

let same_slots a dense =
  let module Sp = Ape_util.Sparse in
  let pat = Sp.Real.pattern a in
  let ok = ref true in
  Sp.iter pat (fun s row col ->
      if bits (Sp.Real.get_slot a s) <> bits (Ape_oracle.Rmat.get dense row col)
      then ok := false);
  (* Every entry off the pattern is the dense stamp's untouched zero. *)
  let on = Hashtbl.create 64 in
  Sp.iter pat (fun _ row col -> Hashtbl.replace on (row, col) ());
  let n = Ape_oracle.Rmat.rows dense in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if (not (Hashtbl.mem on (i, j))) && bits (Ape_oracle.Rmat.get dense i j) <> bits 0.
      then ok := false
    done
  done;
  !ok

(* The relaxed opamp cost stamps f, G and C in one device pass and reads
   them twice.  Every reading must equal, bit for bit, what separately
   stamped matrices give: the KCL penalty over a stamp without C, G
   over the oracle's dense Jacobian, C from the test oracle's
   element-by-element stamp (one [Mos.small_signal] per device), and
   the AWE approximant from AWE stamping its own G and C on a fresh
   workspace. *)
let test_relax_shared_stamp_bitwise () =
  let module Awe = Ape_spice.Awe in
  let row = oa0 () in
  let design = S.Opamp_problem.ape_design proc row in
  let problem =
    S.Opamp_problem.build proc ~mode:S.Opamp_problem.Wide row design
  in
  let rng = Ape_util.Rng.create 5 in
  let draw n = Array.init n (fun _ -> Ape_util.Rng.uniform rng 0. 1.) in
  let candidate () =
    fst (problem.S.Opamp_problem.final (draw problem.S.Opamp_problem.dim))
  in
  let relax =
    S.Relax.create ~mode:`Wide ~vdd:proc.Ape_process.Process.vdd (candidate ())
  in
  let complex_parts l =
    List.concat_map (fun (c : Complex.t) -> [ c.Complex.re; c.Complex.im ]) l
  in
  let approx_floats (a : Awe.approximant) =
    (a.Awe.dc_value :: Array.to_list a.Awe.moments)
    @ complex_parts a.Awe.poles @ complex_parts a.Awe.residues
  in
  let fitted = ref 0 in
  for k = 1 to 6 do
    let nl = candidate () in
    let x = S.Relax.x_engine relax (draw (S.Relax.n_free relax)) in
    let op = S.Relax.fake_op relax nl x in
    let index = op.Ape_spice.Dc.index in
    let f, g = Ape_oracle.residual_jacobian ~gmin:1e-12 nl index x in
    let c = Ape_oracle.capacitances nl index x in
    let check what ok =
      Alcotest.(check bool) (Printf.sprintf "candidate %d: %s" k what) true ok
    in
    let plain = S.Relax.with_stamp relax nl x (S.Relax.kcl_penalty relax) in
    S.Relax.with_stamp ~caps:true relax nl x (fun shared ->
        check "kcl penalty bitwise"
          (bits (S.Relax.kcl_penalty relax shared) = bits plain);
        check "f bitwise"
          (same_floats (Array.to_list shared.S.Relax.f) (Array.to_list f));
        check "G bitwise" (same_slots shared.S.Relax.g g);
        check "one-pass C = oracle capacitances bitwise"
          (match shared.S.Relax.c with
          | Some shared_c -> same_slots shared_c c
          | None -> false);
        let own =
          match Awe.pade ~q:2 ~out:"out" op with
          | a -> Some (approx_floats a)
          | exception Awe.Moment_failure _ -> None
        in
        let relaxed =
          match S.Relax.pade relax shared ~out:"out" with
          | a -> Some (approx_floats a)
          | exception Awe.Moment_failure _ -> None
        in
        if relaxed <> None then incr fitted;
        check "AWE approximant from the shared stamp bitwise"
          (Option.equal same_floats relaxed own));
    check "no C unless asked for"
      (S.Relax.with_stamp relax nl x (fun s -> s.S.Relax.c = None))
  done;
  Alcotest.(check bool) "some candidates fit an approximant" true (!fitted > 0)

(* Random relaxed points of every Table 1 row, wide and APE-centred:
   each as its problem's relaxation, the candidate netlist and the
   engine state of its node voltages. *)
let relaxed_points ~seed ~per_row =
  let rng = Ape_util.Rng.create seed in
  List.concat_map
    (fun row ->
      let design = S.Opamp_problem.ape_design proc row in
      List.concat_map
        (fun mode ->
          let problem = S.Opamp_problem.build proc ~mode row design in
          let template = problem.S.Opamp_problem.template in
          let base = S.Template.base template in
          let relax =
            S.Relax.create
              ~mode:
                (match mode with
                | S.Opamp_problem.Wide -> `Wide
                | S.Opamp_problem.Ape_centered _ -> `Centered)
              ~vdd:proc.Ape_process.Process.vdd base
          in
          List.init per_row (fun _ ->
              let sizes =
                Array.init (S.Template.dim template) (fun _ ->
                    Ape_util.Rng.uniform rng 0. 1.)
              in
              let nodes =
                Array.init (S.Relax.n_free relax) (fun _ ->
                    Ape_util.Rng.uniform rng 0. 1.)
              in
              (relax, S.Template.instantiate template sizes, S.Relax.x_engine relax nodes)))
        [ S.Opamp_problem.Wide; S.Opamp_problem.Ape_centered 0.2 ])
    (table1_rows ())

(* Two pole (or residue) lists agree to [rtol] of their largest
   magnitude under some pairing: each list has at most two entries. *)
let close ~rtol (a : Complex.t list) (b : Complex.t list) =
  let scale =
    List.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 0. (a @ b)
  in
  let near x y = Complex.norm (Complex.sub x y) <= rtol *. scale in
  match (a, b) with
  | [], [] -> true
  | [ x ], [ y ] -> near x y
  | [ x1; x2 ], [ y1; y2 ] ->
    (near x1 y1 && near x2 y2) || (near x1 y2 && near x2 y1)
  | _ -> false

(* The relaxed cost's moments (slot stamps, in-place LU, slot-wise C·m)
   equal the oracle's dense [Matrix] moments bit for bit at random
   points of every Table 1 row.  Where the 2×2 Hankel determinant is at
   least 1e-3 of its larger product, the closed-form poles and residues
   agree with the Durand–Kerner reference to 1e-12.  The reference
   iterates to its 500-step limit ([~tol:0.]): at its default tolerance
   it stops once a step falls below 1e-12 of the monic constant
   coefficient, p1·p2, which on these 1e5–1e10 rad/s poles leaves them
   up to 7e-9 off (a real pair with an imaginary part, a complex pair
   that is not conjugate).  Below that determinant the residues of
   widely split poles cancel, and the two solves part by up to 5e-12. *)
let test_relaxed_moments_match_dense () =
  let module Awe = Ape_spice.Awe in
  let fitted = ref 0 and compared = ref 0 in
  List.iteri
    (fun k (relax, nl, x) ->
      let what = Printf.sprintf "point %d" k in
      let ours =
        S.Relax.with_stamp ~caps:true relax nl x (fun stamp ->
            match S.Relax.pade relax stamp ~out:"out" with
            | a -> Some a
            | exception Awe.Moment_failure _ -> None)
      in
      let reference =
        match
          Ape_oracle.Awe_ref.moments ~count:4 ~out:"out"
            (S.Relax.fake_op relax nl x)
        with
        | m -> Some m
        | exception Awe.Moment_failure _ -> None
      in
      match (ours, reference) with
      | None, None -> ()
      | Some a, Some m ->
        incr fitted;
        Alcotest.(check bool) (what ^ ": moments bitwise") true
          (same_floats (Array.to_list a.Awe.moments) (Array.to_list m));
        let mu = m in
        let hankel = Float.abs ((mu.(1) *. mu.(1)) -. (mu.(0) *. mu.(2))) in
        let size = Float.max (mu.(1) *. mu.(1)) (Float.abs (mu.(0) *. mu.(2))) in
        if hankel > 1e-3 *. size then begin
          incr compared;
          let dk = Ape_oracle.Awe_ref.of_moments ~q:2 ~tol:0. m in
         Alcotest.(check bool) (what ^ ": poles within 1e-12") true
            (close ~rtol:1e-12 a.Awe.poles dk.Awe.poles);
          Alcotest.(check bool) (what ^ ": residues within 1e-12") true
            (close ~rtol:1e-12 a.Awe.residues dk.Awe.residues)
        end
      | Some _, None | None, Some _ ->
        Alcotest.fail (what ^ ": one path failed, the other fitted"))
    (relaxed_points ~seed:11 ~per_row:12);
  Alcotest.(check bool)
    (Printf.sprintf "most points fit (%d) and compare (%d)" !fitted !compared)
    true
    (!fitted > 150 && !compared > 100)

(* The relaxed cost is a pure function of the point: two problems of
   one row, each with its own cache and stamp pool, cost a list of
   random points forward and backward to the same bits. *)
let test_cost_order_independent () =
  let rng = Ape_util.Rng.create 23 in
  List.iter
    (fun row ->
      let design = S.Opamp_problem.ape_design proc row in
      List.iter
        (fun mode ->
          let build () = S.Opamp_problem.build proc ~mode row design in
          let forward = build () and backward = build () in
          let points =
            List.init 40 (fun _ ->
                Array.init forward.S.Opamp_problem.dim (fun _ ->
                    Ape_util.Rng.uniform rng 0. 1.))
          in
          let costs problem points =
            List.map (fun p -> problem.S.Opamp_problem.cost p) points
          in
          Alcotest.(check bool)
            (row.S.Opamp_problem.name ^ ": forward = backward")
            true
            (same_floats (costs forward points)
               (List.rev (costs backward (List.rev points)))))
        [ S.Opamp_problem.Wide; S.Opamp_problem.Ape_centered 0.2 ])
    (table1_rows ())

(* Module-problem costs read only the KCL penalty of the relaxed stamp
   (G's diagonal slots) plus their own simulation: three random points
   of each Table 5 kind in both modes, pinned (as a digest of their hex
   values) to the costs of the dense stamp. *)
let test_module_costs_frozen () =
  let rng = Ape_util.Rng.create 3 in
  let buf = Buffer.create 1024 in
  List.iter
    (fun kind ->
      List.iter
        (fun mode ->
          let p = S.Module_problem.build proc ~mode ~area_max:1e-7 kind in
          for _ = 1 to 3 do
            let point =
              Array.init p.S.Module_problem.dim (fun _ ->
                  Ape_util.Rng.uniform rng 0. 1.)
            in
            Printf.bprintf buf "%h\n" (p.S.Module_problem.cost point)
          done)
        [ S.Module_problem.Wide; S.Module_problem.Ape_centered 0.2 ])
    [
      S.Module_problem.M_sh { gain = 2.0; bandwidth = 20e3; sr = 1e4 };
      S.Module_problem.M_audio { gain = 100.; bandwidth = 20e3 };
      S.Module_problem.M_adc { bits = 4; delay = 5e-6 };
      S.Module_problem.M_lpf { order = 4; f_cutoff = 1e3 };
      S.Module_problem.M_bpf { f_center = 1e3; q = 1.; gain = 1.5 };
    ];
  Alcotest.(check string) "cost digest" "d0f784f20e0d5de48934a6bfb4d28f20"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* [Template.instantiate] by element name, with a table per value kind
   built for every candidate; the last param naming an element sets
   it.  The template resolves the same rule once, in [make]. *)
let reference_instantiate t point =
  let module T = S.Template in
  let widths = Hashtbl.create 16 in
  let lengths = Hashtbl.create 4 in
  let caps = Hashtbl.create 4 in
  let ress = Hashtbl.create 4 in
  List.iter2
    (fun (p : T.param) (_, v) ->
      let table, names =
        match p.T.target with
        | T.Mos_width names -> (widths, names)
        | T.Mos_length names -> (lengths, names)
        | T.Cap_value names -> (caps, names)
        | T.Res_value names -> (ress, names)
      in
      List.iter (fun name -> Hashtbl.replace table name v) names)
    (Array.to_list (T.params t))
    (T.values_of_point t point);
  let base = T.base t in
  N.make ~title:base.N.title
    (List.map
       (fun e ->
         match e with
         | N.Mosfet ({ name; geom; _ } as m) ->
           let find tbl default =
             Option.value ~default (Hashtbl.find_opt tbl name)
           in
           N.Mosfet
             {
               m with
               geom =
                 Ape_device.Mos.geom
                   ~w:(find widths geom.Ape_device.Mos.w)
                   ~l:(find lengths geom.Ape_device.Mos.l);
             }
         | N.Capacitor ({ name; c; _ } as cap) ->
           N.Capacitor
             { cap with c = Option.value ~default:c (Hashtbl.find_opt caps name) }
         | N.Resistor ({ name; r; _ } as res) ->
           N.Resistor
             { res with r = Option.value ~default:r (Hashtbl.find_opt ress name) }
         | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Switch _ -> e)
       (N.elements base))

let same_netlist a b =
  let values = function
    | N.Mosfet { geom; _ } -> [ geom.Ape_device.Mos.w; geom.Ape_device.Mos.l ]
    | N.Capacitor { c; _ } -> [ c ]
    | N.Resistor { r; _ } -> [ r ]
    | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Switch _ -> []
  in
  a = b
  && List.for_all2
       (fun x y -> same_floats (values x) (values y))
       (N.elements a) (N.elements b)

let test_template_matches_reference () =
  let rng = Ape_util.Rng.create 17 in
  let check_template label t =
    for k = 1 to 8 do
      let point =
        Array.init (S.Template.dim t) (fun _ -> Ape_util.Rng.uniform rng 0. 1.)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s point %d" label k)
        true
        (same_netlist (S.Template.instantiate t point)
           (reference_instantiate t point))
    done
  in
  List.iter
    (fun row ->
      let design = S.Opamp_problem.ape_design proc row in
      List.iter
        (fun (mode, label) ->
          let problem = S.Opamp_problem.build proc ~mode row design in
          check_template
            (row.S.Opamp_problem.name ^ " " ^ label)
            problem.S.Opamp_problem.template)
        [ (S.Opamp_problem.Wide, "wide");
          (S.Opamp_problem.Ape_centered 0.2, "ape") ])
    (table1_rows ());
  (* Two params name M2 (the later one sets it); no param names C1 or
     any length. *)
  let t =
    S.Template.make (base_netlist ())
      [
        S.Template.param ~name:"w12" ~range:(I.make 1e-6 100e-6)
          (S.Template.Mos_width [ "M1"; "M2" ]);
        S.Template.param ~name:"w2" ~range:(I.make 1e-6 100e-6)
          (S.Template.Mos_width [ "M2" ]);
        S.Template.param ~name:"r" ~range:(I.make 100. 1e6)
          (S.Template.Res_value [ "R1" ]);
      ]
  in
  check_template "overlapping params" t;
  let out = S.Template.instantiate t [| 0.; 1.; 0.5 |] in
  let width name =
    List.find_map
      (function
        | N.Mosfet { name = n; geom; _ } when n = name ->
          Some geom.Ape_device.Mos.w
        | _ -> None)
      (N.elements out)
  in
  Alcotest.(check (option (float 1e-12))) "M1 from w12" (Some 1e-6) (width "M1");
  Alcotest.(check (option (float 1e-12))) "M2 from w2" (Some 100e-6) (width "M2");
  Alcotest.(check bool) "C1 untouched" true
    (List.exists
       (function N.Capacitor { c; _ } -> c = 1e-12 | _ -> false)
       (N.elements out))

(* A frozen annealing trajectory: any change to a cost value moves the
   search, so the best cost, the evaluation count and the accepted
   count of one Table 1 run (oa0, wide intervals, the tables' schedule,
   seed 1) pin the relaxed cost bit for bit.  The values were taken
   when the dense LU was [Matrix.Make] over floats and C came from a
   second device pass, so they hold the kernels to that arithmetic. *)
let test_frozen_trajectory () =
  let schedule =
    {
      S.Anneal.t_start = 1.0;
      t_end = 1e-3;
      cooling = 0.88;
      moves_per_stage = 25;
      max_evaluations = 1_500;
    }
  in
  let r =
    S.Driver.run ~schedule ~rng:(Ape_util.Rng.create 1) proc
      ~mode:S.Opamp_problem.Wide (oa0 ())
  in
  let stats = r.S.Driver.stats in
  Alcotest.(check string) "best cost" "0x1.b08e5c811beebp+2"
    (Printf.sprintf "%h" stats.S.Anneal.best_cost);
  Alcotest.(check int) "evaluations" 1376 stats.S.Anneal.evaluations;
  Alcotest.(check int) "accepted" 945 stats.S.Anneal.accepted

(* Verify's simulation of oa0's APE design, pinned in hex at the commit
   before the stamps became one pass per operating point: the servoed
   differential testbench, the AC, CMRR and Zout probes on its held
   preparation, and the unity-feedback slew transient. *)
let test_frozen_oa0_sim () =
  let module P = Ape_estimator.Perf in
  let design = S.Opamp_problem.ape_design proc (oa0 ()) in
  let perf = Ape_estimator.Verify.sim_opamp proc design in
  let hex = function None -> "none" | Some v -> Printf.sprintf "%h" v in
  List.iter
    (fun (what, expected, v) -> Alcotest.(check string) what expected (hex v))
    [
      ("slew rate", "0x1.f6c7554616548p+21", perf.P.slew_rate);
      ("gain", "0x1.0cfb064153a43p+8", perf.P.gain);
      ("ugf", "0x1.8e3f3efb68f09p+20", perf.P.ugf);
      ("cmrr", "0x1.5dee0f3d6f60ep+20", perf.P.cmrr);
      ("zout", "0x1.7aa71b61f0cf4p+9", perf.P.zout);
      ("phase margin", "0x1.3ba425a8e3a95p+6", perf.P.phase_margin);
      ("offset", "-0x1.8f5262664e9fcp-14", perf.P.offset);
    ]

let prop_relax_penalty_monotone =
  (* The divider is linear, so the KCL residual grows linearly along any
     ray from the (exact) centre: penalty(a*d) <= penalty(b*d) for
     0 <= a <= b. *)
  QCheck.Test.make ~name:"kcl penalty monotone along rays" ~count:100
    QCheck.(
      triple (float_range (-1.) 1.) (float_range 0. 0.45) (float_range 0. 1.))
    (fun (d, b, frac) ->
      let nl = relax_divider () in
      let t = S.Relax.create ~mode:`Centered ~vdd:5. nl in
      let centres = S.Relax.centers_unit t in
      let point s =
        S.Relax.x_engine t (Array.map (fun c -> c +. (s *. d)) centres)
      in
      let a = frac *. b in
      let penalty s = S.Relax.with_stamp t nl (point s) (S.Relax.kcl_penalty t) in
      let pa = penalty a and pb = penalty b in
      pa >= 0. && pa <= pb +. 1e-9)

(* ---------- multi-chain search ---------- *)

(* A multimodal test landscape: two basins, the deeper one narrow.
   Cheap to evaluate, so determinism properties can afford many runs. *)
let two_basin x =
  let d2 c =
    Array.fold_left (fun acc v -> acc +. sq (v -. c)) 0. x
    /. float_of_int (Array.length x)
  in
  Float.min (0.5 +. d2 0.2) (40. *. d2 0.85)

(* The sequential annealer's result on [two_basin] from a fixed start,
   pinned bit for bit, plus the caller's stream position afterwards: a
   lone chain anneals on the caller's stream itself, draw for draw, so
   every single-chain search (the paper tables, serve's default jobs)
   keeps its trajectory. *)
let test_single_chain_frozen () =
  let rng = Ape_util.Rng.create 3 in
  let best, stats =
    S.Anneal.optimize ~schedule:S.Anneal.quick_schedule ~chains:1 ~rng ~dim:4
      ~cost:two_basin
      ~start:(fun _ -> [| 0.1; 0.4; 0.6; 0.9 |])
      ()
  in
  Alcotest.(check (array (float 0.)))
    "best vector"
    [|
      0x1.4a147b0498a63p-2;
      0x1.02bac621dfb09p-2;
      0x1.90e0cfae65ca2p-3;
      0x1.a195484ff0064p-3;
    |]
    best;
  Alcotest.(check (float 0.)) "best cost" 0x1.0246736f4a925p-1
    stats.S.Anneal.best_cost;
  Alcotest.(check int) "evaluations" 1076 stats.S.Anneal.evaluations;
  Alcotest.(check int) "accepted" 989 stats.S.Anneal.accepted;
  Alcotest.(check int) "next draw" 586241 (Ape_util.Rng.int rng 1_000_000)

let test_chains_rejected () =
  Alcotest.check_raises "chains 0"
    (Invalid_argument "Anneal.optimize: chains < 1") (fun () ->
      ignore
        (S.Anneal.optimize ~chains:0 ~rng:(Ape_util.Rng.create 1) ~dim:1
           ~cost:(fun _ -> 0.)
           ~start:(fun _ -> [| 0.5 |])
           ()))

(* Returns the search result and the cache's misses. *)
let multi_chain_run ?(schedule = S.Anneal.quick_schedule) ~seed ~jobs ~chains
    () =
  let rng = Ape_util.Rng.create seed in
  let cache = S.Est_cache.create () in
  let cost p = S.Est_cache.find_or_add cache p two_basin in
  let result =
    S.Anneal.optimize ~schedule ~chains ~jobs ~rng ~dim:4 ~cost
      ~start:(fun rng ->
        Array.init 4 (fun _ -> Ape_util.Rng.uniform rng 0. 1.))
      ()
  in
  (result, S.Est_cache.lookups cache - S.Est_cache.hits cache)

let test_chains_find_minimum () =
  let (best, stats), _ = multi_chain_run ~seed:3 ~jobs:2 ~chains:4 () in
  Alcotest.(check bool) "found a basin" true (stats.S.Anneal.best_cost < 0.6);
  Alcotest.(check int) "chains recorded" 4 stats.S.Anneal.chains;
  Alcotest.(check int) "dim preserved" 4 (Array.length best)

let prop_chains_jobs_deterministic =
  (* The determinism contract: same seed, same chain count =>
     bit-identical best vector and stats for any worker count, shared
     cache included.  This schedule makes every run miss more keys than
     the cache holds (one chain: at least 10 695 over seeds 1-1000), so
     the chains also race through its resets. *)
  let schedule =
    { S.Anneal.quick_schedule with t_end = 1e-2; moves_per_stage = 450;
      max_evaluations = 15_000 }
  in
  QCheck.Test.make ~name:"multi-chain result independent of jobs" ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 1 4))
    (fun (seed, chains) ->
      let run jobs =
        let (best, stats), misses =
          multi_chain_run ~schedule ~seed ~jobs ~chains ()
        in
        ((best, { stats with S.Anneal.seconds = 0. }), misses > 8192)
      in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      fst r1 = fst r2 && fst r2 = fst r4 && snd r1 && snd r2 && snd r4)

(* ---------- estimation cache: hardening and concurrency ---------- *)

let test_est_cache_nonfinite_keys () =
  let cache = S.Est_cache.create () in
  let seen = ref [] in
  let record v rep =
    seen := Array.copy rep :: !seen;
    v
  in
  (* Each pathology gets its own cell... *)
  Alcotest.(check (float 0.)) "nan" 1.
    (S.Est_cache.find_or_add cache [| Float.nan |] (record 1.));
  Alcotest.(check (float 0.)) "+inf" 2.
    (S.Est_cache.find_or_add cache [| infinity |] (record 2.));
  Alcotest.(check (float 0.)) "-inf" 3.
    (S.Est_cache.find_or_add cache [| neg_infinity |] (record 3.));
  (* ...and revisiting one hits instead of re-evaluating. *)
  Alcotest.(check (float 0.)) "nan revisit hits" 1.
    (S.Est_cache.find_or_add cache [| Float.nan |] (record 99.));
  Alcotest.(check int) "three evaluations" 3 (List.length !seen);
  (* The representative point hands the evaluator back the non-finite
     value the key stands for. *)
  (match !seen with
  | [ [| ni |]; [| pi |]; [| na |] ] ->
    Alcotest.(check bool) "nan representative" true (Float.is_nan na);
    Alcotest.(check (float 0.)) "+inf representative" infinity pi;
    Alcotest.(check (float 0.)) "-inf representative" neg_infinity ni
  | _ -> Alcotest.fail "expected three recorded representatives");
  (* Out-of-int-range magnitudes clamp onto the ±inf cells instead of
     hitting undefined int_of_float behaviour. *)
  Alcotest.(check (float 0.)) "huge positive clamps to the +inf cell" 2.
    (S.Est_cache.find_or_add cache [| 1e300 |] (fun _ -> 99.));
  Alcotest.(check (float 0.)) "huge negative clamps to the -inf cell" 3.
    (S.Est_cache.find_or_add cache [| -1e300 |] (fun _ -> 99.))

let test_est_cache_representative_evaluation () =
  (* The callback sees the cell's representative, not the raw point:
     this is what makes the stored value a pure function of the key. *)
  let cache = S.Est_cache.create () in
  let got = ref [||] in
  ignore
    (S.Est_cache.find_or_add cache [| 0.5434; 0.2965 |] (fun rep ->
         got := Array.copy rep;
         0.));
  Alcotest.(check (float 1e-12)) "snapped x" 0.54 !got.(0);
  Alcotest.(check (float 1e-12)) "snapped y" 0.30 !got.(1)

let test_est_cache_concurrent_smoke () =
  (* Four domains hammer one cache with overlapping keys from a square
     of 151 x 151 = 22 801 cells, more than the 8192 it holds, so they
     also race through its resets: every returned value must equal the
     pure function of the snapped point, and the books must stay
     consistent. *)
  let cache = S.Est_cache.create () in
  let f rep = (10. *. rep.(0)) +. rep.(1) in
  let worker seed () =
    let rng = Ape_util.Rng.create seed in
    let ok = ref true in
    for _ = 1 to 4_000 do
      let p =
        [| Ape_util.Rng.uniform rng 0. 1.5; Ape_util.Rng.uniform rng 0. 1.5 |]
      in
      let v = S.Est_cache.find_or_add cache p f in
      let expected =
        f (Array.map (fun x -> Float.round (x /. 1e-2) *. 1e-2) p)
      in
      if v <> expected then ok := false
    done;
    !ok
  in
  let domains = Array.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  let all_ok = Array.for_all (fun d -> Domain.join d) domains in
  Alcotest.(check bool) "every value is the pure function of its key" true
    all_ok;
  Alcotest.(check int) "lookups all accounted" 16_000
    (S.Est_cache.lookups cache);
  Alcotest.(check bool) "more misses than the table holds" true
    (S.Est_cache.lookups cache - S.Est_cache.hits cache > 8192)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_synth"
    [
      ( "anneal",
        [
          Alcotest.test_case "quadratic" `Quick test_anneal_quadratic;
          Alcotest.test_case "early stop" `Quick test_anneal_early_stop;
          Alcotest.test_case "budget" `Quick test_anneal_budget;
          Alcotest.test_case "nan hostile" `Quick test_anneal_nan_hostile;
        ] );
      ( "template",
        [
          Alcotest.test_case "instantiate" `Quick test_template_instantiate;
          Alcotest.test_case "bad references" `Quick test_template_bad_references;
          Alcotest.test_case "center point" `Quick test_center_point;
          Alcotest.test_case "resolved = name-based reference" `Quick
            test_template_matches_reference;
        ] );
      ( "cost",
        [
          Alcotest.test_case "violations" `Quick test_cost_violations;
        ] );
      ( "driver",
        [
          Alcotest.test_case "ape-centered meets quickly" `Quick
            test_ape_centered_meets_fast;
          Alcotest.test_case "matched groups" `Quick test_template_groups_matched;
          Alcotest.test_case "measurement keys" `Quick test_measure_keys;
          Alcotest.test_case "comment classification" `Quick
            test_comment_classification;
        ] );
      ( "multi-chain",
        [
          Alcotest.test_case "single chain frozen" `Quick
            test_single_chain_frozen;
          Alcotest.test_case "chains < 1 rejected" `Quick test_chains_rejected;
          Alcotest.test_case "finds minimum" `Quick test_chains_find_minimum;
        ] );
      qsuite "annealing-properties" [ prop_chains_jobs_deterministic ];
      ( "est-cache",
        [
          Alcotest.test_case "hits and quantization" `Quick
            test_est_cache_hits_and_quantization;
          Alcotest.test_case "full table" `Quick test_est_cache_full_table;
          Alcotest.test_case "non-finite hardening" `Quick
            test_est_cache_nonfinite_keys;
          Alcotest.test_case "representative evaluation" `Quick
            test_est_cache_representative_evaluation;
          Alcotest.test_case "concurrent smoke" `Quick
            test_est_cache_concurrent_smoke;
          Alcotest.test_case "driver reports stats" `Quick
            test_driver_reports_cache_stats;
        ] );
      ( "relax",
        [
          Alcotest.test_case "centered penalty ~0" `Quick
            test_relax_centered_zero_penalty;
          Alcotest.test_case "wide unit-cube mapping" `Quick
            test_relax_wide_mapping;
          Alcotest.test_case "fake op reads back" `Quick
            test_relax_fake_op_reads_back;
          Alcotest.test_case "shared stamp = separate stamps" `Quick
            test_relax_shared_stamp_bitwise;
          Alcotest.test_case "table 1 moments = dense moments" `Quick
            test_relaxed_moments_match_dense;
          Alcotest.test_case "cost order independent" `Quick
            test_cost_order_independent;
          Alcotest.test_case "frozen oa0 trajectory" `Quick
            test_frozen_trajectory;
          Alcotest.test_case "frozen oa0 simulation" `Quick
            test_frozen_oa0_sim;
        ] );
      qsuite "relax-properties" [ prop_relax_penalty_monotone ];
      ( "module-problems",
        [
          Alcotest.test_case "s&h ape-centered" `Quick
            test_module_problem_ape_centered;
          Alcotest.test_case "adc area scaling" `Quick
            test_module_problem_adc_scaling;
          Alcotest.test_case "costs frozen" `Quick test_module_costs_frozen;
        ] );
    ]
