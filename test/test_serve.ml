(* The serve subsystem: job-spec parsing with spans, the print → parse
   → print fixpoint, scheduler backpressure/fail-fast/timeout
   semantics, worker-count determinism of the record stream, the
   runner's payload dispatch, and spool-directory ingestion. *)

module Sv = Ape_serve
module Job = Sv.Job
module Record = Sv.Record
module Scheduler = Sv.Scheduler

let proc = Ape_process.Process.c12

let contains ~affix s =
  let la = String.length affix and ls = String.length s in
  let rec at i = i + la <= ls && (String.sub s i la = affix || at (i + 1)) in
  la = 0 || at 0

(* ---------- parsing: values, defaults, spans ---------- *)

let test_parse_values () =
  match
    Job.parse_batch
      "(job synth (id s0) (gain 200) (ugf 2meg) (ibias 2u) (cl 4.7p)\n\
      \ (bias wilson) (zout 1k) (buffer) (seed 9) (chains 3)\n\
      \ (schedule quick) (timeout 2.5) (mode wide) (area 4n)\n\
      \ (calibration c12.calib))"
  with
  | [ Ok j ] ->
    Alcotest.(check string) "id" "s0" j.Job.id;
    Alcotest.(check (option (float 0.))) "timeout" (Some 2.5) j.Job.timeout;
    (match j.Job.payload with
    | Job.Synth { spec; mode; seed; chains; schedule; area; calibration } ->
      Alcotest.(check (float 0.)) "gain" 200. spec.Job.gain;
      Alcotest.(check (float 0.)) "ugf" 2e6 spec.Job.ugf;
      Alcotest.(check (float 1e-12)) "ibias" 2e-6 spec.Job.ibias;
      Alcotest.(check (float 1e-18)) "cl" 4.7e-12 spec.Job.cl;
      Alcotest.(check bool) "wilson" true (spec.Job.bias = Ape_estimator.Bias.Wilson);
      Alcotest.(check (option (float 0.))) "zout" (Some 1e3) spec.Job.zout;
      Alcotest.(check bool) "buffer" true spec.Job.buffer;
      Alcotest.(check bool) "wide" true (mode = Job.Wide_mode);
      Alcotest.(check (option int)) "seed" (Some 9) seed;
      Alcotest.(check int) "chains" 3 chains;
      Alcotest.(check bool) "quick" true (schedule = Job.Quick);
      Alcotest.(check (option (float 1e-24))) "area" (Some 4e-9) area;
      Alcotest.(check (option string)) "calibration" (Some "c12.calib")
        calibration
    | _ -> Alcotest.fail "expected a synth payload")
  | rs -> Alcotest.failf "expected one job, got %d results" (List.length rs)

let test_parse_defaults () =
  match Job.parse_batch "(job mc (gain 100) (ugf 1meg))" with
  | [ Ok j ] ->
    (* No (id _): position-derived default. *)
    Alcotest.(check string) "default id" "job0" j.Job.id;
    Alcotest.(check (option (float 0.))) "no timeout" None j.Job.timeout;
    (match j.Job.payload with
    | Job.Mc { spec; samples; level; sigma_scale; seed } ->
      Alcotest.(check (float 1e-12)) "ibias default" 1e-6 spec.Job.ibias;
      Alcotest.(check (float 1e-18)) "cl default" 10e-12 spec.Job.cl;
      Alcotest.(check bool) "simple bias" true (spec.Job.bias = Ape_estimator.Bias.Simple);
      Alcotest.(check int) "samples default" 200 samples;
      Alcotest.(check bool) "estimate level" true
        (level = Ape_mc.Scenario.Estimate);
      Alcotest.(check (float 0.)) "sigma default" 1.0 sigma_scale;
      Alcotest.(check (option int)) "no seed" None seed
    | _ -> Alcotest.fail "expected an mc payload")
  | _ -> Alcotest.fail "expected one job"

let error_of = function
  | Error (e : Job.error) -> e
  | Ok j -> Alcotest.fail ("expected an error, parsed " ^ Job.print j)

let span_string (e : Job.error) =
  match e.Job.span with
  | Some s -> Ape_util.Sexpr.pp_span s
  | None -> "-"

let test_parse_error_spans () =
  (* The bad field's own span, not the whole form's. *)
  let e =
    error_of (List.hd (Job.parse_batch "(job estimate (gain x) (ugf 1meg))"))
  in
  Alcotest.(check string) "bad number span" "1:15-1:23" (span_string e);
  Alcotest.(check bool) "mentions the token" true
    (String.length e.Job.msg > 0 && e.Job.id = Some "job0");
  (* Line information survives multi-line files. *)
  let rs =
    Job.parse_batch
      "(job estimate (id a) (gain 10) (ugf 1k))\n\
       (job estimate (id b) (gain 10) (ugf 1k)\n\
      \  (bias bogus))"
  in
  (match rs with
  | [ Ok _; Error e ] ->
    Alcotest.(check string) "error id" "b" (Option.get e.Job.id);
    Alcotest.(check string) "bias span on line 3" "3:3-3:15" (span_string e)
  | _ -> Alcotest.fail "expected [Ok; Error]");
  (* Unknown and duplicate keys are rejected, with spans. *)
  let e =
    error_of
      (List.hd (Job.parse_batch "(job estimate (gain 1) (ugf 1) (gian 2))"))
  in
  Alcotest.(check bool) "unknown field" true (contains ~affix:"gian" e.Job.msg);
  let e =
    error_of
      (List.hd (Job.parse_batch "(job estimate (gain 1) (gain 2) (ugf 1))"))
  in
  Alcotest.(check bool) "duplicate field" true
    (String.length (span_string e) > 1)

let test_parse_never_raises () =
  (* Structural garbage: one error record, no exception. *)
  List.iter
    (fun text ->
      match Job.parse_batch text with
      | rs ->
        Alcotest.(check bool)
          ("no Ok for: " ^ text)
          true
          (List.for_all (function Error _ -> true | Ok _ -> false) rs)
      | exception e ->
        Alcotest.failf "parse_batch raised %s on %s" (Printexc.to_string e)
          text)
    [ "(job estimate (gain 1)"; (* unbalanced *)
      ")"; "\"unterminated"; "(job)"; "atom"; "()";
      "(job estimate (gain 1) (ugf))"; (* empty field *)
      "(job sim)"; (* missing file *)
      "(job mc (gain 1) (ugf 1) (samples 0))";
      "(job estimate (gain -3) (ugf 1k))";
      "(job estimate (gain nan) (ugf 1k))";
      "(job verify (levels bogus))";
      "(job estimate (gain 1) (ugf 1k) (buffer yes))";
    ];
  (* And a good job after a bad one still parses. *)
  match Job.parse_batch "(job)\n(job estimate (id g) (gain 5) (ugf 1k))" with
  | [ Error _; Ok j ] -> Alcotest.(check string) "survivor" "g" j.Job.id
  | _ -> Alcotest.fail "expected [Error; Ok]"

(* ---------- print → parse → print (QCheck) ---------- *)

let gen_spec =
  QCheck.Gen.(
    let* gain = float_range 1.5 1e4 in
    let* ugf = float_range 1e3 1e8 in
    let* ibias = float_range 1e-7 1e-4 in
    let* cl = float_range 1e-13 1e-10 in
    let* bias = oneofl Ape_estimator.Bias.[ Simple; Wilson; Cascode ] in
    let* zout = opt (float_range 10. 1e6) in
    let* buffer = bool in
    return { Job.gain; ugf; ibias; cl; bias; zout; buffer })

let gen_id =
  QCheck.Gen.(
    oneof
      [ small_string ~gen:(char_range 'a' 'z');
        small_string ~gen:printable;
        (* force the quoting path *)
        map (fun s -> "weird \"" ^ s ^ "\\\n\t;()") string_printable;
      ])

let gen_job =
  QCheck.Gen.(
    let* id = gen_id in
    let* timeout = opt (float_range 0.001 100.) in
    let* payload =
      oneof
        [ map (fun s -> Job.Estimate s) gen_spec;
          ( let* spec = gen_spec in
            let* mode = oneofl [ Job.Ape_mode; Job.Wide_mode ] in
            let* seed = opt (int_bound 99999) in
            let* chains = int_range 1 5 in
            let* schedule = oneofl [ Job.Quick; Job.Full ] in
            let* area = opt (float_range 1e-11 1e-7) in
            let* calibration = opt gen_id in
            return
              (Job.Synth
                 { spec; mode; seed; chains; schedule; area; calibration }) );
          ( let* spec = gen_spec in
            let* samples = int_range 1 5000 in
            let* level =
              oneofl [ Ape_mc.Scenario.Estimate; Ape_mc.Scenario.Simulate ]
            in
            let* sigma_scale = float_range 0.1 4. in
            let* seed = opt (int_bound 99999) in
            return (Job.Mc { spec; samples; level; sigma_scale; seed }) );
          ( let* file = gen_id in
            let* out = opt (small_string ~gen:(char_range 'a' 'z')) in
            return (Job.Sim { file; out }) );
          ( let* levels =
              oneofl
                Ape_check.Tolerance.
                  [ []; [ Device ]; [ Basic; Opamp ]; all_levels ]
            in
            let* slew = bool in
            let* calibration = opt gen_id in
            return (Job.Verify { levels; slew; calibration }) );
        ]
    in
    return { Job.id; timeout; payload })

let arbitrary_job =
  QCheck.make ~print:Job.print gen_job

let prop_print_parse_print =
  QCheck.Test.make ~name:"print → parse → print is a fixpoint" ~count:500
    arbitrary_job (fun job ->
      let printed = Job.print job in
      match Job.parse_batch printed with
      | [ Ok job' ] ->
        let again = Job.print job' in
        if again <> printed then
          QCheck.Test.fail_reportf "reprint differs:\n  %s\n  %s" printed
            again
        else true
      | [ Error e ] ->
        QCheck.Test.fail_reportf "printed form rejected: %s\n  %s"
          (Job.error_to_string e) printed
      | rs ->
        QCheck.Test.fail_reportf "%d results for one printed job"
          (List.length rs))

let prop_seed_stable =
  QCheck.Test.make ~name:"seed_of is position-independent" ~count:200
    arbitrary_job (fun job ->
      (* Same job, different surrounding batch: same seed. *)
      Job.seed_of job = Job.seed_of { job with Job.timeout = None }
      && Job.seed_of job >= 0)

(* ---------- scheduler semantics ---------- *)

let batch_of_text text = Job.parse_batch text

let run_collect ?(config = Scheduler.default) ?runner text =
  let runner =
    match runner with Some r -> r | None -> Sv.Runner.create proc
  in
  let records = ref [] in
  let summary =
    Scheduler.run_batch config runner ~batch:"test"
      ~emit:(fun r -> records := r :: !records)
      (batch_of_text text)
  in
  (List.rev !records, summary)

let statuses records =
  List.map (fun (r : Record.t) -> Record.status_name r.Record.status) records

let cheap_jobs n =
  String.concat "\n"
    (List.init n (fun i ->
         Printf.sprintf "(job estimate (id e%d) (gain 150) (ugf 1meg))" i))

let test_shed_policy () =
  (* queue=2, shed: a 5-job batch admits two jobs, refuses three with
     typed overloaded records — deterministically, at any job count. *)
  let config =
    { Scheduler.default with Scheduler.queue = 2; policy = Scheduler.Shed;
      jobs = 2 }
  in
  let records, summary = run_collect ~config (cheap_jobs 5) in
  Alcotest.(check (list string))
    "first two run, rest shed"
    [ "ok"; "ok"; "overloaded"; "overloaded"; "overloaded" ]
    (statuses records);
  Alcotest.(check int) "summary.overloaded" 3 summary.Record.overloaded;
  Alcotest.(check int) "summary.ok" 2 summary.Record.ok

let test_fail_fast_parse_error () =
  let config = { Scheduler.default with Scheduler.fail_fast = true } in
  let text = "(job bogus (id bad))\n" ^ cheap_jobs 3 in
  let records, summary = run_collect ~config text in
  Alcotest.(check (list string))
    "parse error cancels the rest"
    [ "parse-error"; "cancelled"; "cancelled"; "cancelled" ]
    (statuses records);
  Alcotest.(check int) "summary.cancelled" 3 summary.Record.cancelled

let test_fail_fast_engine_failure () =
  (* queue=1 so the failure is collected before job 3 is admitted; the
     gain is unreachable, so the estimator raises Infeasible. *)
  let config =
    { Scheduler.default with Scheduler.fail_fast = true; queue = 1 }
  in
  let text =
    "(job estimate (id bad) (gain 1e9) (ugf 1meg))\n" ^ cheap_jobs 2
  in
  let records, _ = run_collect ~config text in
  match statuses records with
  | [ "failed"; s2; "cancelled" ] ->
    (* Job 2 was admitted while job 1 was in flight (window 1 drains
       before each admission), so it may have run or been cancelled
       depending on when the failure was collected — but job 3 is
       always cancelled. *)
    Alcotest.(check bool) "middle ran or cancelled" true
      (s2 = "ok" || s2 = "cancelled")
  | other ->
    Alcotest.failf "unexpected statuses: %s" (String.concat "," other)

let test_continue_on_error_default () =
  let text =
    "(job estimate (id bad) (gain 1e9) (ugf 1meg))\n" ^ cheap_jobs 2
  in
  let records, summary = run_collect text in
  Alcotest.(check (list string))
    "later jobs unaffected"
    [ "failed"; "ok"; "ok" ]
    (statuses records);
  Alcotest.(check int) "summary.failed" 1 summary.Record.failed

let test_missing_calibration_card () =
  (* A verify job naming a card that doesn't exist fails as that job's
     own record — the daemon survives and later jobs still run. *)
  let text =
    "(job verify (id v) (levels device) (no-slew) \
     (calibration /nonexistent/card.calib))\n" ^ cheap_jobs 2
  in
  let records, summary = run_collect text in
  Alcotest.(check (list string))
    "card failure is per-job"
    [ "failed"; "ok"; "ok" ]
    (statuses records);
  Alcotest.(check int) "summary.failed" 1 summary.Record.failed;
  match records with
  | (r : Record.t) :: _ -> (
    match r.Record.status with
    | Record.Failed msg ->
      (* Sys_error text names the path — a clean message, not an
         exception dump. *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message %S names the card" msg)
        true
        (contains msg "/nonexistent/card.calib")
    | _ -> Alcotest.fail "first record did not fail")
  | [] -> Alcotest.fail "no records"

let test_timeout_zero () =
  let records, summary =
    run_collect "(job estimate (id t0) (timeout 1e-9) (gain 150) (ugf 1meg))"
  in
  Alcotest.(check (list string)) "deadline expired" [ "timeout" ]
    (statuses records);
  Alcotest.(check int) "summary.timeout" 1 summary.Record.timed_out

let test_ordered_emission () =
  (* Records come back in input order even with many workers. *)
  let config = { Scheduler.default with Scheduler.jobs = 4; queue = 16 } in
  let records, _ = run_collect ~config (cheap_jobs 12) in
  Alcotest.(check (list string))
    "input order"
    (List.init 12 (fun i -> Printf.sprintf "e%d" i))
    (List.map (fun (r : Record.t) -> r.Record.id) records)

(* ---------- determinism across worker counts ---------- *)

let det_batch =
  "(job synth (id s0) (gain 200) (ugf 2meg) (seed 7) (schedule quick))\n\
   (job mc (id m0) (gain 150) (ugf 1meg) (samples 40) (seed 3))\n\
   (job estimate (id e0) (gain 120) (ugf 500k))"

let rendered_batch ~jobs =
  let config = { Scheduler.default with Scheduler.jobs; queue = 8 } in
  let records, summary = run_collect ~config det_batch in
  String.concat "\n"
    (List.map (Record.render ~deterministic:true) records
    @ [ Record.render_summary ~deterministic:true summary ])

let test_deterministic_across_jobs () =
  let one = rendered_batch ~jobs:1 in
  let three = rendered_batch ~jobs:3 in
  Alcotest.(check string) "jobs=1 equals jobs=3" one three

(* ---------- runner payloads ---------- *)

let run_one job =
  let runner = Sv.Runner.create proc in
  Sv.Runner.run runner job

let parse_one text =
  match Job.parse_batch text with
  | [ Ok j ] -> j
  | _ -> Alcotest.fail ("bad test job: " ^ text)

let assoc key payload =
  match List.assoc_opt key payload with
  | Some v -> v
  | None -> Alcotest.fail ("payload missing " ^ key)

(* dune runtest runs in _build/default/test, `dune exec` in the
   project root. *)
let example_deck name =
  List.find Sys.file_exists
    [ Filename.concat "../examples/decks" name;
      Filename.concat "examples/decks" name ]

let golden_deck name =
  List.find Sys.file_exists
    [ Filename.concat "golden/decks" name;
      Filename.concat "test/golden/decks" name ]

let test_runner_sim () =
  let job =
    parse_one
      (Printf.sprintf "(job sim (id x) (file %S) (out out))"
         (golden_deck "rc_ladder.sp"))
  in
  let status, payload = run_one job in
  Alcotest.(check string) "sim ok" "ok" (Record.status_name status);
  (match assoc "dc_gain" payload with
  | Record.Float g -> Alcotest.(check (float 1e-6)) "unity DC gain" 1.0 g
  | _ -> Alcotest.fail "dc_gain not a float");
  match assoc "f_minus_3db" payload with
  | Record.Float f ->
    Alcotest.(check bool) "corner in band" true (f > 1. && f < 1e6)
  | other ->
    Alcotest.failf "f_minus_3db: unexpected %s"
      (match other with Record.Null -> "null" | _ -> "value")

let test_runner_sim_missing_file () =
  let job = parse_one "(job sim (id x) (file \"no/such/file.sp\"))" in
  let status, _ = run_one job in
  Alcotest.(check string) "failed, not raised" "failed"
    (Record.status_name status)

let test_runner_sim_include () =
  (* An .INCLUDE resolves relative to the deck, not the working
     directory, and the hierarchical deck measures exactly like its
     checked-in flattened form. *)
  let sim file =
    let status, payload =
      run_one
        (parse_one (Printf.sprintf "(job sim (id x) (file %S) (out out))" file))
    in
    Alcotest.(check string) (file ^ " ok") "ok" (Record.status_name status);
    List.remove_assoc "file" payload
  in
  let hier = sim (example_deck "two_stage.sp") in
  Alcotest.(check bool) "hier = flat measurements" true
    (hier = sim (example_deck "two_stage_flat.sp"));
  match assoc "dc_gain" hier with
  | Record.Float g -> Alcotest.(check bool) "measured a gain" true (g > 0.)
  | _ -> Alcotest.fail "dc_gain not a float"

let test_runner_sim_bad_deck () =
  (* Every error diagnostic reaches the failure record, caret and all. *)
  let file = Filename.temp_file "ape_bad" ".sp" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "* bad\nR1 a 0 xyz\nR2 a 0 1k\nR3 a 0 qq\n.END\n");
  let status, _ =
    run_one (parse_one (Printf.sprintf "(job sim (id x) (file %S))" file))
  in
  Sys.remove file;
  match status with
  | Record.Failed msg ->
    (* Each diagnostic opens with a "FILE:LINE:COL: error: ..." line. *)
    let headers =
      List.filter
        (String.starts_with ~prefix:(file ^ ":"))
        (String.split_on_char '\n' msg)
    in
    Alcotest.(check int) "both errors reported" 2 (List.length headers)
  | _ -> Alcotest.fail "bad deck did not fail"

let test_runner_verify () =
  let job = parse_one "(job verify (id v) (levels device) (no-slew))" in
  let status, payload = run_one job in
  Alcotest.(check string) "device level passes" "ok"
    (Record.status_name status);
  match assoc "rows" payload with
  | Record.Int n -> Alcotest.(check bool) "measured rows" true (n > 0)
  | _ -> Alcotest.fail "rows not an int"

let test_runner_cache_shared_by_fingerprint () =
  let runner = Sv.Runner.create proc in
  let j seed id =
    parse_one
      (Printf.sprintf
         "(job synth (id %s) (gain 200) (ugf 2meg) (seed %d) (schedule \
          quick))"
         id seed)
  in
  ignore (Sv.Runner.run runner (j 7 "a"));
  let lookups1, hits1 = Sv.Runner.cache_stats runner in
  (* Same fingerprint, same seed: the whole trajectory is warm. *)
  ignore (Sv.Runner.run runner (j 7 "b"));
  let lookups2, hits2 = Sv.Runner.cache_stats runner in
  Alcotest.(check int) "one fingerprint" 1 (Sv.Runner.cache_count runner);
  Alcotest.(check int) "second run fully cached"
    (lookups2 - lookups1) (hits2 - hits1);
  Alcotest.(check bool) "first run had misses" true (hits1 < lookups1);
  (* A different spec must not share the cache. *)
  ignore
    (Sv.Runner.run runner
       (parse_one
          "(job synth (id c) (gain 150) (ugf 1meg) (seed 7) (schedule \
           quick))"));
  Alcotest.(check int) "second fingerprint" 2 (Sv.Runner.cache_count runner);
  (* The area budget and the calibration card change the cost
     function, so each gets a cache of its own — the card by its
     contents: two paths to the same card share one. *)
  let card file scale =
    let path = Filename.temp_file "ape_runner" file in
    Ape_calib.Card.save path
      { Ape_calib.Card.version = Ape_calib.Card.version;
        process = "c12";
        entries =
          [ { Ape_calib.Card.level = "opamp"; attr = "gain";
              region = Ape_calib.Card.All;
              corr = { Ape_calib.Card.scale; bias = 0. };
              n = 1; raw_err = 0.; cal_err = 0. };
          ];
      };
    path
  in
  let card_a = card "a.calib" 0.9 and card_a' = card "a2.calib" 0.9 in
  let card_b = card "b.calib" 0.8 in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ card_a; card_a'; card_b ])
  @@ fun () ->
  let count_after extra =
    ignore
      (Sv.Runner.run runner
         (parse_one
            (Printf.sprintf
               "(job synth (id d) (gain 200) (ugf 2meg) (seed 7) (schedule \
                quick) %s)"
               extra)));
    Sv.Runner.cache_count runner
  in
  Alcotest.(check int) "explicit area" 3 (count_after "(area 4n)");
  Alcotest.(check int) "same area shares" 3 (count_after "(area 4n)");
  Alcotest.(check int) "other area" 4 (count_after "(area 5n)");
  Alcotest.(check int) "card" 5
    (count_after (Printf.sprintf "(calibration %S)" card_a));
  Alcotest.(check int) "same card shares" 5
    (count_after (Printf.sprintf "(calibration %S)" card_a));
  Alcotest.(check int) "same contents share" 5
    (count_after (Printf.sprintf "(calibration %S)" card_a'));
  Alcotest.(check int) "other card" 6
    (count_after (Printf.sprintf "(calibration %S)" card_b))

(* Each expected exception maps to one class and one message, the text
   of a failed record and of the CLI's stdout alike. *)
let test_runner_failure_table () =
  let pos = Some { Ape_util.Sexpr.line = 1; col = 15 } in
  List.iter
    (fun (e, expected) ->
      Alcotest.(check (option (pair bool string)))
        (Printexc.to_string e) expected
        (Option.map
           (fun (cls, msg) -> (cls = Sv.Runner.Engine, msg))
           (Sv.Runner.failure e)))
    [
      ( Ape_spice.Engine.Engine_error
          { analysis = "ac"; node = Some "out"; detail = "no ground" },
        Some (true, "engine error (ac at out): no ground") );
      ( Ape_spice.Dc.No_convergence "dc(x)",
        Some (true, "no convergence: dc(x)") );
      ( Ape_spice.Transient.Step_failed 1.5e-6,
        Some (true, "transient step failed at t=1.5us") );
      ( Ape_util.Sparse.Singular,
        Some (true, "singular system: the deck has no unique solution") );
      ( Ape_estimator.Opamp.Infeasible "gain unreachable",
        Some (true, "infeasible: gain unreachable") );
      (Sys_error "x.sp: No such file", Some (false, "x.sp: No such file"));
      ( Ape_calib.Card.Parse_error { pos; msg = "bad" },
        Some (false, "calibration card: 1:15: bad") );
      ( Ape_calib.Grid.Parse_error { pos; msg = "bad" },
        Some (false, "grid spec: 1:15: bad") );
      (Not_found, None);
    ]

(* ---------- record rendering ---------- *)

let test_record_rendering () =
  let r =
    { Record.id = "a\"b\n"; kind = "estimate"; status = Record.Done;
      seconds = 1.5;
      payload = [ ("x", Record.Float 0.1); ("s", Record.Str "t\"") ];
    }
  in
  Alcotest.(check string) "escaped, with seconds"
    "{\"schema\":\"ape-serve/1\",\"id\":\"a\\\"b\\n\",\"kind\":\"estimate\",\
     \"status\":\"ok\",\"seconds\":1.5,\"payload\":{\"x\":0.1,\"s\":\"t\\\"\"}}"
    (Record.render ~deterministic:false r);
  Alcotest.(check string) "deterministic drops seconds"
    "{\"schema\":\"ape-serve/1\",\"id\":\"a\\\"b\\n\",\"kind\":\"estimate\",\
     \"status\":\"ok\",\"payload\":{\"x\":0.1,\"s\":\"t\\\"\"}}"
    (Record.render ~deterministic:true r);
  (* Non-finite floats must not produce invalid JSON. *)
  let r2 = { r with Record.payload = [ ("bad", Record.Float Float.nan) ] } in
  Alcotest.(check bool) "nan renders as null" true
    (contains ~affix:"\"bad\":null" (Record.render ~deterministic:true r2))

(* ---------- spool ---------- *)

let test_spool () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ape_spool_test_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  let write name text =
    Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc text)
  in
  write "b.jobs" "(job estimate (id b) (gain 1) (ugf 1))";
  write "a.jobs" "(job estimate (id a) (gain 1) (ugf 1))";
  write "ignored.txt" "not a batch";
  Alcotest.(check (list string))
    "scan finds .jobs sorted"
    [ Filename.concat dir "a.jobs"; Filename.concat dir "b.jobs" ]
    (Sv.Spool.scan dir);
  let seen = ref [] in
  let n =
    Sv.Spool.watch ~once:true dir ~process:(fun path ->
        seen := Filename.basename path :: !seen)
  in
  Alcotest.(check int) "two batches" 2 n;
  Alcotest.(check (list string)) "in name order" [ "a.jobs"; "b.jobs" ]
    (List.rev !seen);
  Alcotest.(check (list string)) "nothing left" [] (Sv.Spool.scan dir);
  Alcotest.(check bool) "renamed done" true
    (Sys.file_exists (Filename.concat dir "a.jobs.done"));
  (* max_batches caps a pass; the un-processed file stays spooled. *)
  write "c.jobs" "x";
  write "d.jobs" "y";
  let n = Sv.Spool.watch ~once:true ~max_batches:1 dir ~process:ignore in
  Alcotest.(check int) "capped" 1 n;
  Alcotest.(check (list string))
    "d still pending"
    [ Filename.concat dir "d.jobs" ]
    (Sv.Spool.scan dir)

(* ---------- suite ---------- *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "serve"
    [
      ( "job-parse",
        [
          Alcotest.test_case "field values" `Quick test_parse_values;
          Alcotest.test_case "defaults" `Quick test_parse_defaults;
          Alcotest.test_case "error spans" `Quick test_parse_error_spans;
          Alcotest.test_case "never raises" `Quick test_parse_never_raises;
        ] );
      qsuite "job-roundtrip" [ prop_print_parse_print; prop_seed_stable ];
      ( "scheduler",
        [
          Alcotest.test_case "shed policy" `Quick test_shed_policy;
          Alcotest.test_case "fail-fast on parse error" `Quick
            test_fail_fast_parse_error;
          Alcotest.test_case "fail-fast on engine failure" `Quick
            test_fail_fast_engine_failure;
          Alcotest.test_case "continue on error" `Quick
            test_continue_on_error_default;
          Alcotest.test_case "missing calibration card" `Quick
            test_missing_calibration_card;
          Alcotest.test_case "timeout" `Quick test_timeout_zero;
          Alcotest.test_case "ordered emission" `Quick test_ordered_emission;
          Alcotest.test_case "deterministic across jobs" `Slow
            test_deterministic_across_jobs;
        ] );
      ( "runner",
        [
          Alcotest.test_case "sim payload" `Quick test_runner_sim;
          Alcotest.test_case "sim missing file" `Quick
            test_runner_sim_missing_file;
          Alcotest.test_case "sim .INCLUDE deck" `Quick test_runner_sim_include;
          Alcotest.test_case "sim bad deck diagnostics" `Quick
            test_runner_sim_bad_deck;
          Alcotest.test_case "verify payload" `Quick test_runner_verify;
          Alcotest.test_case "cache by fingerprint" `Slow
            test_runner_cache_shared_by_fingerprint;
          Alcotest.test_case "failure table" `Quick test_runner_failure_table;
        ] );
      ( "record",
        [ Alcotest.test_case "rendering" `Quick test_record_rendering ] );
      ( "spool", [ Alcotest.test_case "scan/watch/done" `Quick test_spool ] );
    ]
