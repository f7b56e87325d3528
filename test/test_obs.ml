(* Tests for Ape_obs: registry semantics, span hierarchy, per-domain
   sink merging through Pool, the metamorphic bit-identity guarantee
   (observation on/off and jobs=1/N never change numeric results), the
   JSON export, and the CLI contract: exit codes (singular deck, usage
   errors, unreadable inputs) and agreement with serve's runner. *)

module Obs = Ape_obs
module B = Ape_circuit.Builder
module Dc = Ape_spice.Dc
module Ac = Ape_spice.Ac
module Pool = Ape_util.Pool

(* Every test leaves the registry disabled so suites running after this
   one see the default-off behaviour. *)
let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable f

let counter_value snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)

(* ---------- registry ---------- *)

let test_registry_idempotent () =
  with_obs @@ fun () ->
  let a = Obs.counter "test.obs.idem" in
  let b = Obs.counter "test.obs.idem" in
  Obs.incr a;
  Obs.incr b;
  Obs.add a 3;
  let snap = Obs.snapshot () in
  Alcotest.(check int)
    "same name accumulates into one counter" 5
    (counter_value snap "test.obs.idem")

let test_registry_kind_mismatch () =
  ignore (Obs.counter "test.obs.kind");
  match Obs.gauge "test.obs.kind" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"
  | exception Invalid_argument _ -> ()

let test_disabled_is_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.counter "test.obs.off" in
  let g = Obs.gauge "test.obs.off.g" in
  let h = Obs.histogram "test.obs.off.h" in
  Obs.incr c;
  Obs.set g 1.0;
  Obs.observe h 1e-3;
  Alcotest.(check int)
    "disabled recording leaves nothing" 0
    (counter_value (Obs.snapshot ()) "test.obs.off");
  Alcotest.(check bool)
    "disabled gauge unwritten" true
    (List.assoc_opt "test.obs.off.g" (Obs.snapshot ()).Obs.gauges = None);
  Alcotest.(check bool)
    "disabled histogram empty" true
    (List.assoc_opt "test.obs.off.h" (Obs.snapshot ()).Obs.histograms = None)

let test_reset_clears () =
  with_obs @@ fun () ->
  let c = Obs.counter "test.obs.reset" in
  Obs.incr c;
  Obs.reset ();
  Alcotest.(check int)
    "reset zeroes the accumulator" 0
    (counter_value (Obs.snapshot ()) "test.obs.reset")

let test_histogram_summary () =
  with_obs @@ fun () ->
  let h = Obs.histogram "test.obs.hist" in
  let samples = [ 1e-6; 1e-5; 1e-4; 1e-4 ] in
  List.iter (Obs.observe h) samples;
  match List.assoc_opt "test.obs.hist" (Obs.snapshot ()).Obs.histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
    let sum = List.fold_left ( +. ) 0. samples in
    Alcotest.(check int) "count" (List.length samples) s.Obs.s_count;
    Alcotest.(check (float 1e-12)) "sum" sum s.Obs.s_sum;
    Alcotest.(check (float 1e-12))
      "mean" (sum /. float_of_int (List.length samples)) s.Obs.s_mean;
    Alcotest.(check (float 0.)) "min" 1e-6 s.Obs.s_min;
    Alcotest.(check (float 0.)) "max" 1e-4 s.Obs.s_max;
    Alcotest.(check bool) "std positive" true (s.Obs.s_std > 0.);
    (* Three distinct decades -> three non-empty buckets, counts 1/1/2. *)
    Alcotest.(check (list int))
      "bucket counts" [ 1; 1; 2 ]
      (List.map snd s.Obs.s_buckets)

(* ---------- spans ---------- *)

let test_span_hierarchy () =
  with_obs @@ fun () ->
  let r =
    Obs.span "outer" (fun () ->
        Obs.span "inner" (fun () -> 21) + Obs.span "inner" (fun () -> 21))
  in
  Alcotest.(check int) "span returns the thunk's value" 42 r;
  let spans = (Obs.snapshot ()).Obs.spans in
  let count path =
    match List.assoc_opt path spans with
    | Some s -> s.Obs.s_count
    | None -> 0
  in
  Alcotest.(check int) "outer recorded once" 1 (count "outer");
  Alcotest.(check int) "nested path recorded twice" 2 (count "outer/inner")

let test_span_exception_safe () =
  with_obs @@ fun () ->
  (match Obs.span "boom" (fun () -> failwith "expected") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  (* The stack must have been popped: a sibling span is not nested
     under the failed one. *)
  Obs.span "after" (fun () -> ());
  let spans = (Obs.snapshot ()).Obs.spans in
  Alcotest.(check bool)
    "failed span still timed" true
    (List.mem_assoc "boom" spans);
  Alcotest.(check bool)
    "stack popped on exception" true
    (List.mem_assoc "after" spans)

(* ---------- per-domain sinks and Pool merging ---------- *)

let test_pool_merges_worker_sinks () =
  with_obs @@ fun () ->
  let c = Obs.counter "test.obs.pool" in
  let results = Pool.map ~jobs:4 100 (fun i -> Obs.incr c; i * i) in
  Alcotest.(check int) "map results intact" (99 * 99) results.(99);
  Alcotest.(check int)
    "all worker increments merged" 100
    (counter_value (Obs.snapshot ()) "test.obs.pool")

(* ---------- metamorphic bit-identity ---------- *)

let golden_decks () =
  let dir =
    List.find Sys.file_exists
      [ Filename.concat "golden" "decks"; Filename.concat "test" "golden/decks" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sp")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat dir f)

let bits = Int64.bits_of_float

let same_solution (a : Ac.solution) (b : Ac.solution) =
  Array.length a.Ac.x = Array.length b.Ac.x
  && Array.for_all2
       (fun (p : Complex.t) (q : Complex.t) ->
         Int64.equal (bits p.Complex.re) (bits q.Complex.re)
         && Int64.equal (bits p.Complex.im) (bits q.Complex.im))
       a.Ac.x b.Ac.x

let deck_measurements file =
  let text = In_channel.with_open_text file In_channel.input_all in
  let nl = Ape_oracle.Support.parse ~title:file text in
  match Dc.solve nl with
  | exception Dc.No_convergence _ -> None
  | op ->
    let p = Ac.prepare op in
    Some
      ( Array.copy op.Dc.x,
        List.map (Ac.solve_prepared p) [ 0.; 1.; 1e3; 4.567e4; 1e6; 1e9 ] )

let test_golden_decks_obs_on_off_identical () =
  let verified = ref 0 in
  List.iter
    (fun file ->
      Obs.disable ();
      let off = deck_measurements file in
      let on = with_obs (fun () -> deck_measurements file) in
      match (off, on) with
      | None, None -> ()
      | Some (x_off, ac_off), Some (x_on, ac_on) ->
        incr verified;
        Alcotest.(check bool)
          (file ^ ": DC solution bit-identical") true
          (Array.for_all2
             (fun a b -> Int64.equal (bits a) (bits b))
             x_off x_on);
        List.iter2
          (fun a b ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: AC at %g Hz bit-identical" file a.Ac.freq)
              true (same_solution a b))
          ac_off ac_on
      | _ ->
        Alcotest.fail (file ^ ": convergence differs with observation on"))
    (golden_decks ());
  Alcotest.(check bool) "verified several decks" true (!verified >= 3)

(* ---------- JSON export ---------- *)

let test_json_smoke () =
  with_obs @@ fun () ->
  Obs.incr (Obs.counter "test.obs.json");
  Obs.set (Obs.gauge "test.obs.json.g") 2.5;
  Obs.observe (Obs.histogram "test.obs.json.h") 1e-3;
  Obs.span "test_json" (fun () -> ());
  let doc = Obs.render_json (Obs.snapshot ()) in
  let contains needle =
    let nl = String.length needle and dl = String.length doc in
    let rec go i = i + nl <= dl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema tag" true (contains "\"schema\": \"ape-obs/1\"");
  List.iter
    (fun n -> Alcotest.(check bool) n true (contains n))
    [ "test.obs.json"; "test.obs.json.g"; "test.obs.json.h"; "test_json" ];
  let balance opens closes =
    String.fold_left
      (fun acc c -> if c = opens then acc + 1 else if c = closes then acc - 1 else acc)
      0 doc
  in
  Alcotest.(check int) "braces balanced" 0 (balance '{' '}');
  Alcotest.(check int) "brackets balanced" 0 (balance '[' ']')

(* ---------- CLI exit codes ---------- *)

let ape_exe () =
  (* dune runtest runs in test/, `dune exec test/test_obs.exe` (ci.sh)
     in the project root. *)
  List.find_opt Sys.file_exists
    [
      Filename.concat ".." (Filename.concat "bin" "ape.exe");
      Filename.concat "bin" "ape.exe";
      Filename.concat "_build" (Filename.concat "default" "bin/ape.exe");
    ]

let run_cli exe args =
  Sys.command
    (Filename.quote_command exe ~stdout:Filename.null ~stderr:Filename.null
       args)

(* Exit code and stdout of one run. *)
let run_cli_output exe args =
  let out = Filename.temp_file "ape_cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let code =
    Sys.command
      (Filename.quote_command exe ~stdout:out ~stderr:Filename.null args)
  in
  (code, In_channel.with_open_bin out In_channel.input_all)

let with_temp_file suffix text f =
  let file = Filename.temp_file "ape_cli" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Out_channel.with_open_text file (fun oc -> output_string oc text);
  f file

let singular_deck =
  "* two parallel sources disagree: no DC solution exists\n\
   V1 a 0 5\n\
   V2 a 0 3\n\
   R1 a 0 1k\n\
   .end\n"

let test_cli_singular_deck_exits_nonzero () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    with_temp_file ".sp" singular_deck @@ fun deck ->
    Alcotest.(check int) "sim on singular deck exits 1" 1
      (run_cli exe [ "sim"; deck ])

let test_cli_valid_deck_exits_zero () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    let deck = Filename.temp_file "ape_rc" ".sp" in
    Fun.protect ~finally:(fun () -> Sys.remove deck) @@ fun () ->
    Out_channel.with_open_text deck (fun oc ->
        output_string oc
          "* rc divider\nV1 in 0 DC 1 AC 1\nR1 in out 1k\nC1 out 0 1u\n.end\n");
    Alcotest.(check int) "sim on a healthy deck exits 0" 0
      (run_cli exe [ "sim"; deck; "--out"; "out" ]);
    Alcotest.(check int) "sim --trace exits 0" 0
      (run_cli exe [ "sim"; deck; "--trace" ])

(* Usage errors are cmdliner's exit 124; the required --gain/--ugf are
   given so that the option under test is what fails. *)
(* ci.sh's synth determinism diff, under dune runtest: three chains on
   one and on three worker domains print the same result, evaluations
   and sizes (wall time and cache hits aside).  The chains share the
   problem's cost, so this also holds its pooled stamp storage to one
   evaluation per scratch. *)
let test_cli_synth_chains_jobs () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    let run jobs =
      let code, out =
        run_cli_output exe
          [ "synth"; "--gain"; "200"; "--ugf"; "2meg"; "--seed"; "7";
            "--chains"; "3"; "--jobs"; jobs ]
      in
      Alcotest.(check int) ("synth --jobs " ^ jobs ^ " exits 0") 0 code;
      String.split_on_char '\n' out
      |> List.filter (fun l ->
             not
               (String.starts_with ~prefix:"time:" l
               || String.starts_with ~prefix:"cache:" l))
    in
    let one = run "1" in
    Alcotest.(check bool) "prints a result" true (List.length one > 3);
    Alcotest.(check (list string)) "jobs 1 = jobs 3" one (run "3")

let test_cli_synth_usage_errors () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    let synth extra =
      run_cli exe ([ "synth"; "--gain"; "200"; "--ugf"; "2meg" ] @ extra)
    in
    Alcotest.(check int) "synth --chains 0 exits 124" 124
      (synth [ "--chains"; "0" ]);
    Alcotest.(check int) "synth --exchange-period exits 124" 124
      (synth [ "--exchange-period"; "1" ]);
    (* Every count has a converter: no hand check, no silent skip. *)
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args ^ " exits 124") 124
          (run_cli exe args))
      [
        [ "mc"; "opamp"; "--gain"; "200"; "--ugf"; "2meg"; "--samples"; "0" ];
        [ "synth"; "--gain"; "200"; "--ugf"; "2meg"; "--mc-samples=-5" ];
        [ "calibrate"; "--points=-2"; "--out"; Filename.null ];
        [ "serve"; "--queue"; "0" ];
      ];
    (* The estimate cache has no knobs: its grid and size are fixed, so
       the old flags are unknown options, with a valid value. *)
    List.iter
      (fun (cmd, args) ->
        List.iter
          (fun flag ->
            Alcotest.(check int)
              (cmd ^ " " ^ flag ^ " exits 124")
              124
              (run_cli exe ((cmd :: args) @ [ flag; "8192" ])))
          [ "--cache-quantum"; "--cache-capacity" ])
      [
        ("synth", [ "--gain"; "200"; "--ugf"; "2meg" ]);
        ("serve", [ Filename.null ]);
      ];
    (* One --jobs rule for every command: 0 is the hardware count, a
       negative count is a usage error. *)
    List.iter
      (fun (cmd, args) ->
        Alcotest.(check int) (cmd ^ " --jobs=-1 exits 124") 124
          (run_cli exe ((cmd :: args) @ [ "--jobs=-1" ])))
      [
        ("synth", [ "--gain"; "200"; "--ugf"; "2meg" ]);
        ("mc", [ "opamp"; "--gain"; "200"; "--ugf"; "2meg" ]);
        ("calibrate", [ "--out"; Filename.null ]);
        ("serve", []);
      ]

(* A module flag outside the range its kind's designer accepts, and an
   unknown module or Monte Carlo kind, are usage errors (exit 124),
   checked before designing; a spec inside the ranges that no design
   meets is an engine failure (exit 1). *)
let test_cli_kind_domains () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args ^ " exits 124") 124
          (run_cli exe args))
      [
        [ "module"; "lpf"; "--order"; "3" ];
        [ "module"; "adc"; "--bits"; "0" ];
        [ "module"; "dac"; "--bits"; "13" ];
        [ "module"; "lpf"; "--fc"; "0" ];
        [ "module"; "comparator"; "--delay"; "0" ];
        [ "module"; "bogus" ];
        [ "mc"; "bogus"; "--gain"; "200"; "--ugf"; "2meg" ];
      ];
    Alcotest.(check (pair int string))
      "unreachable amp gain"
      (1, "infeasible: gain 1000000 unreachable: two stages deliver only 0\n")
      (run_cli_output exe [ "module"; "amp"; "--gain"; "1e6" ]);
    Alcotest.(check int) "module lpf exits 0" 0
      (run_cli exe [ "module"; "lpf"; "--order"; "2" ]);
    Alcotest.(check int) "mc opamp exits 0" 0
      (run_cli exe
         [ "mc"; "opamp"; "--gain"; "200"; "--ugf"; "2meg"; "--samples"; "5" ])

(* Malformed system specs are input-side failures (exit 3) with a
   positioned message, never an uncaught reader exception (125) or a
   spec silently completed. *)
let test_cli_vase_malformed_specs () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    List.iter
      (fun text ->
        let spec = Filename.temp_file "ape_spec" ".scm" in
        Fun.protect ~finally:(fun () -> Sys.remove spec) @@ fun () ->
        Out_channel.with_open_text spec (fun oc -> output_string oc text);
        Alcotest.(check int) ("vase exits 3 on " ^ text) 3
          (run_cli exe [ "vase"; spec ]))
      [
        "(system demo (chain (amplifier (gain ten) (bandwidth 20k))) \
         (require (total_gain 10) (bandwidth 1k)))";
        ")";
        "(system demo (chain (amplifier (gain 10) (bandwidth 20k))) \
         (require (total_gain 10) (bandwidth 1k))";
      ]

(* Every input file is read inside the CLI's failure guard: a directory
   or a missing file is an input-side failure (exit 3), never an
   uncaught exception (125) or cmdliner's file check (124). *)
let test_cli_unreadable_inputs_exit_3 () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    let dir = Filename.get_temp_dir_name () in
    let missing = Filename.concat dir "ape_no_such_input" in
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args ^ " exits 3") 3
          (run_cli exe args))
      [
        [ "sim"; dir ]; [ "vase"; dir ]; [ "sim"; missing ];
        [ "vase"; missing ]; [ "calibrate"; missing; "--out"; Filename.null ];
      ];
    (* A directory opens and fails only when read: the message still
       names the path. *)
    List.iter
      (fun args ->
        Alcotest.(check (pair int string))
          (String.concat " " args ^ " names the path")
          (3, dir ^ ": Is a directory\n")
          (run_cli_output exe args))
      [
        [ "sim"; dir ]; [ "vase"; dir ];
        [ "calibrate"; dir; "--out"; Filename.null ];
        [ "synth"; "--gain"; "200"; "--ugf"; "2meg"; "--calibration"; dir ];
        [ "convert"; dir ];
      ];
    (* A bad count in a grid file is positioned and labelled as the
       grid spec's. *)
    with_temp_file ".scm" "(grid (points -2))" @@ fun grid ->
    Alcotest.(check (pair int string))
      "negative grid points"
      (3, "grid spec: 1:15: points must be non-negative, got -2\n")
      (run_cli_output exe [ "calibrate"; grid; "--out"; Filename.null ])

(* One failure table: [ape sim] prints exactly the error a serve record
   of the same deck carries, a newline added when it lacks one. *)
let test_cli_sim_failure_is_serve_error () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    let serve_error deck =
      match
        Ape_serve.Job.parse_batch (Printf.sprintf "(job sim (file %S))" deck)
      with
      | [ Ok job ] -> (
        match
          Ape_serve.Runner.run
            (Ape_serve.Runner.create Ape_process.Process.c12)
            job
        with
        | Ape_serve.Record.Failed msg, _ -> msg
        | _ -> Alcotest.fail (deck ^ " did not fail"))
      | _ -> Alcotest.fail "bad job"
    in
    let check deck =
      let msg = serve_error deck in
      Alcotest.(check (pair int string))
        deck
        (1, if String.ends_with ~suffix:"\n" msg then msg else msg ^ "\n")
        (run_cli_output exe [ "sim"; deck ])
    in
    with_temp_file ".sp" singular_deck check;
    let bad_expr =
      List.find Sys.file_exists
        [ "golden/decks/bad/bad_expr.sp"; "test/golden/decks/bad/bad_expr.sp" ]
    in
    check bad_expr;
    (* Both of the deck's errors, not just the first. *)
    Alcotest.(check int) "every diagnostic" 2
      (List.length
         (List.filter
            (String.starts_with ~prefix:(bad_expr ^ ":"))
            (String.split_on_char '\n' (serve_error bad_expr))))

(* The CLI's synth and a serve synth job of the same spec are one job:
   the same verdict after the same number of evaluations. *)
let test_cli_synth_is_serve_job () =
  match ape_exe () with
  | None -> Alcotest.fail "bin/ape.exe not built"
  | Some exe ->
    let code, cli =
      run_cli_output exe
        [ "synth"; "--gain"; "200"; "--ugf"; "2meg"; "--seed"; "7" ]
    in
    Alcotest.(check int) "synth meets spec" 0 code;
    let verdict, evaluations =
      match String.split_on_char '\n' cli with
      | verdict :: line :: _ ->
        (verdict, Scanf.sscanf line "%_[^(](%d evaluations)" Fun.id)
      | _ -> Alcotest.fail ("short synth output: " ^ cli)
    in
    with_temp_file ".jobs" "(job synth (id cli) (gain 200) (ugf 2meg) (seed 7))"
    @@ fun jobs ->
    let code, served = run_cli_output exe [ "serve"; "--deterministic"; jobs ] in
    Alcotest.(check int) "serve exits 0" 0 code;
    let contains field =
      let n = String.length field in
      let rec at i =
        i + n <= String.length served
        && (String.sub served i n = field || at (i + 1))
      in
      at 0
    in
    List.iter
      (fun field -> Alcotest.(check bool) field true (contains field))
      [
        Printf.sprintf "\"comment\":%S" verdict;
        Printf.sprintf "\"evaluations\":%d}" evaluations;
      ]

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "idempotent by name" `Quick
            test_registry_idempotent;
          Alcotest.test_case "kind mismatch raises" `Quick
            test_registry_kind_mismatch;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "reset clears" `Quick test_reset_clears;
          Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
        ] );
      ( "spans",
        [
          Alcotest.test_case "hierarchy paths" `Quick test_span_hierarchy;
          Alcotest.test_case "exception safe" `Quick test_span_exception_safe;
        ] );
      ( "domains",
        [
          Alcotest.test_case "pool merges worker sinks" `Quick
            test_pool_merges_worker_sinks;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "golden decks obs on/off" `Quick
            test_golden_decks_obs_on_off_identical;
        ] );
      ( "export",
        [ Alcotest.test_case "json smoke" `Quick test_json_smoke ] );
      ( "cli",
        [
          Alcotest.test_case "singular deck exits 1" `Quick
            test_cli_singular_deck_exits_nonzero;
          Alcotest.test_case "healthy deck exits 0" `Quick
            test_cli_valid_deck_exits_zero;
          Alcotest.test_case "synth usage errors exit 124" `Quick
            test_cli_synth_usage_errors;
          Alcotest.test_case "synth --chains 3: jobs 1 = jobs 3" `Quick
            test_cli_synth_chains_jobs;
          Alcotest.test_case "vase malformed specs exit 3" `Quick
            test_cli_vase_malformed_specs;
          Alcotest.test_case "unreadable inputs exit 3" `Quick
            test_cli_unreadable_inputs_exit_3;
          Alcotest.test_case "module and mc kind domains" `Quick
            test_cli_kind_domains;
          Alcotest.test_case "sim failure = serve error" `Quick
            test_cli_sim_failure_is_serve_error;
          Alcotest.test_case "synth = serve synth job" `Quick
            test_cli_synth_is_serve_job;
        ] );
    ]
