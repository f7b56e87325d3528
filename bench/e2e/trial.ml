(* One trial: set up, run the timed closed loop, check the outputs,
   report.  An untraced trial reports the end-to-end metrics; a traced
   one runs the loop twice — untraced, then with harness spans and
   Ape_obs on — and reports the per-layer metrics. *)

module W = Workloads

let now = Ape_util.Clock.now_s

(* The timed loop runs its op list this many times over.  On machines
   whose cores are shared with other tenants, speed drifts by tens of
   percent for seconds at a time; a pass takes a fifth of the run, so
   an op's repeats land seconds apart and the best of them is rarely
   slowed. *)
let passes = 5

type phase = {
  ops : int;  (** distinct ops, each run once per pass *)
  passes_run : int;  (** [passes], or fewer on a slow machine *)
  best : W.sample list;
      (** per sample: its fastest latency over the passes, failed if
          any pass failed *)
  busy : float;  (** sum over ops of each op's fastest wall time, s *)
  attempted : int;
  failed : int;
  digest : string;
  digest_ops : int;
}

type result = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  tail_pct : float;
  attempted : int;
  failed : int;
  checks : W.check list;
  metrics : (string * float) list;  (** reported in the JSON line *)
  extra : (string * float) list;  (** printed and stored, not reported *)
  setups : float list;  (** every timed set-up, s, in order *)
  phase : phase;
  spans : Spans.span list;
  table : string;
}

let correct r = List.for_all (fun (c : W.check) -> c.ok) r.checks

(* Every pass runs the same ops 0 .. n-1, n = [pace * seconds / passes]
   (at most [max_ops]): the op list, and with it every metric, is the
   same whatever the machine's speed at the moment.  A pass therefore
   lasts about a [passes]-th of [seconds] where [pace] was measured.
   So that a slow machine still ends in time, the first pass stops
   early once it has run twice that long, and a later pass runs only
   if, taking as long as the first, it ends within 1.8 [seconds]. *)
let op_count (d : 'st W.def) ~seconds ~max_ops =
  let n = d.pace *. seconds /. float_of_int passes in
  if n >= float_of_int max_ops then max_ops else max 1 (Float.to_int (Float.round n))

(* [between] runs before each later pass, outside the timing. *)
let run_phase ?(between = ignore) (d : 'st W.def) st ~max_ops ~seconds =
  let max_ops = op_count d ~seconds ~max_ops in
  let t_start = now () in
  let first_pass_end = t_start +. (2. *. seconds /. float_of_int passes) in
  let deadline = t_start +. (1.8 *. seconds) in
  let run i =
    Spans.set_op i;
    let t0 = now () in
    let op = Spans.span "bench.op" (fun () -> d.run_op st i) in
    let wall = now () -. t0 in
    Spans.set_op (-1);
    (* Keep only the digests the output digest needs: the rest would
       grow the heap with the run's length and show in peak_rss_mb. *)
    ((if i < d.digest_ops then op else { op with W.digest = "" }), wall)
  in
  let first = ref [] and ops = ref 0 in
  while !ops < max_ops && (!ops = 0 || now () < first_pass_end) do
    first := run !ops :: !first;
    incr ops
  done;
  let first = Array.of_list (List.rev !first) and ops = !ops in
  let pass_s = now () -. t_start in
  let rec later k =
    if k = 0 || now () +. pass_s > deadline then []
    else begin
      between ();
      let pass = Array.init ops run in
      pass :: later (k - 1)
    end
  in
  let all = first :: later (passes - 1) in
  let merge (a : W.sample list) ((op : W.op), _) =
    List.map2
      (fun (x : W.sample) (y : W.sample) ->
        { W.latency = Float.min x.latency y.latency; failed = x.failed || y.failed })
      a op.samples
  in
  let runs_of i = List.map (fun pass -> pass.(i)) all in
  let best =
    List.init ops (fun i ->
        match runs_of i with
        | (op, _) :: rest -> List.fold_left merge op.W.samples rest
        | [] -> [])
  in
  let busy =
    List.fold_left ( +. ) 0.
      (List.init ops (fun i ->
           List.fold_left (fun acc (_, w) -> Float.min acc w) infinity (runs_of i)))
  in
  let executed =
    List.concat_map
      (fun pass -> List.concat_map (fun ((op : W.op), _) -> op.samples) (Array.to_list pass))
      all
  in
  let digests =
    List.init (min ops d.digest_ops) (fun i -> (fst first.(i)).W.digest)
  in
  {
    ops;
    passes_run = List.length all;
    best = List.concat best;
    busy;
    attempted = List.length executed;
    failed = List.length (List.filter (fun (s : W.sample) -> s.failed) executed);
    digest = Digest.to_hex (Digest.string (String.concat "\n" digests));
    digest_ops = List.length digests;
  }

let timed_setup (d : 'st W.def) ~seed =
  let t0 = now () in
  let st = d.setup ~seed in
  (st, now () -. t0)

(* One client's throughput with every op at its fastest pass. *)
let ops_per_s p = float_of_int (List.length p.best) /. p.busy

(* Peak resident set (VmHWM), MiB. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
               Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
             | _ -> None)
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let run ?(max_ops = max_int) (W.W d) ~seed ~seconds ~trace =
  let secs = float_of_int seconds in
  if not trace then begin
    (* Set-up is timed once before the loop and again, on states thrown
       away, before each later pass: a slow spell of the machine then
       slows one or two gaps' worth, not all of them.  A set-up of a few
       tens of ms moves by a third from one to the next, so cheap ones
       are repeated until each gap times about 0.1 s of them. *)
    let st, t_first = timed_setup d ~seed in
    let setup_times = ref [ t_first ] in
    let reps = max 1 (min 8 (Float.to_int (Float.ceil (0.1 /. t_first)))) in
    (* Peak memory is read after the first pass, before the extra
       set-ups: those are the harness's own, and each of serve's starts
       a worker domain, which alone moved the peak by 10 %. *)
    let rss = ref None in
    let between () =
      if !rss = None then rss := Some (peak_rss_mb ());
      (* Finish collecting the last pass's garbage first: otherwise a
         set-up pays for whichever major-GC phase the pass left behind,
         and runs 0.04 s or 0.07 s (sim) by that alone. *)
      Gc.full_major ();
      for _ = 1 to reps do
        let other, t = timed_setup d ~seed in
        d.teardown other;
        setup_times := t :: !setup_times
      done
    in
    let phase = run_phase ~between d st ~max_ops ~seconds:secs in
    d.teardown st;
    let checks = d.check st ~seed in
    let lat = List.map (fun (s : W.sample) -> 1000. *. s.latency) phase.best in
    let metrics =
      [
        ("setup_s", Stats.median !setup_times);
        ("ops_per_s", ops_per_s phase);
        ("op_p50_ms", Stats.nearest_rank 50. lat);
        ("op_tail_ms", Stats.nearest_rank d.tail_pct lat);
        ("peak_rss_mb", Option.value !rss ~default:(peak_rss_mb ()));
      ]
    in
    {
      workload = d.name;
      seed;
      seconds;
      traced = false;
      tail_pct = d.tail_pct;
      attempted = phase.attempted;
      failed = phase.failed;
      checks;
      metrics;
      extra = d.extra st;
      setups = List.rev !setup_times;
      phase;
      spans = [];
      table = "";
    }
  end
  else begin
    (* Each half gets a fresh set-up, so the traced loop starts from the
       same state (cold serve caches included) as the untraced one. *)
    let st0, _ = timed_setup d ~seed in
    let untraced = run_phase d st0 ~max_ops ~seconds:(secs /. 2.) in
    d.teardown st0;
    let st, _ = timed_setup d ~seed in
    Ape_obs.reset ();
    Ape_obs.enable ();
    Spans.start ();
    (* Exactly the untraced half's ops, however long they take traced. *)
    let phase = run_phase d st ~max_ops:untraced.ops ~seconds:infinity in
    d.teardown st;
    let snap = Ape_obs.snapshot () in
    Ape_obs.disable ();
    let checks = d.check st ~seed in
    let spans = Spans.stop () in
    let op_spans = List.filter (fun (s : Spans.span) -> s.op_id >= 0) spans in
    let check_s =
      List.fold_left
        (fun acc (s : Spans.span) ->
          if s.name = "check.catalog" then acc +. (s.t1 -. s.t0) else acc)
        0. spans
    in
    let rows = Trace.rows ~spans:op_spans ~snap in
    let ops = phase.attempted in
    let overhead =
      let u = ops_per_s untraced in
      (u -. ops_per_s phase) /. u
    in
    let metrics =
      Trace.metrics ~rows ~snap ~ops ~overhead ~check_s ~extra:(d.extra st)
    in
    {
      workload = d.name;
      seed;
      seconds;
      traced = true;
      tail_pct = d.tail_pct;
      attempted = untraced.attempted + phase.attempted;
      failed = untraced.failed + phase.failed;
      checks;
      metrics;
      extra = [];
      setups = [];
      phase;
      spans;
      table = Trace.render_table ~rows ~ops ^ Trace.render_ratios snap;
    }
  end

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let unit_of name =
  match Metrics.find name with Some d -> d.Metrics.unit | None -> "-"

let metric_lines metrics =
  String.concat ""
    (List.map (fun (n, v) -> Printf.sprintf "%s %.6g %s\n" n v (unit_of n)) metrics)

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (n, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of n)) ]))
       metrics)

(* The summary a benchmark runner reads: always the last line printed. *)
let summary_json r =
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json r.metrics);
    ]

(* The commit of the checkout, read from .git without running git;
   "unknown" outside a git work tree. *)
let commit () =
  let read f = String.trim (In_channel.with_open_bin f In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
      let loose = Filename.concat ".git" r in
      if Sys.file_exists loose then read loose
      else
        read ".git/packed-refs" |> String.split_on_char '\n'
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ sha; name ] when name = r -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

let schema = "ape-bench/1"

let result_json r =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("commit", Json.Str (commit ()));
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num (float_of_int r.seconds));
      ("trace", Json.Bool r.traced);
      ("ops", Json.Num (float_of_int r.phase.ops));
      ("passes", Json.Num (float_of_int r.phase.passes_run));
      ("tail_pct", Json.Num r.tail_pct);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("output_digest", Json.Str r.phase.digest);
      ("digest_ops", Json.Num (float_of_int r.phase.digest_ops));
      ( "checks",
        Json.Arr
          (List.map
             (fun (c : W.check) ->
               Json.Obj
                 [ ("name", Json.Str c.c_name); ("ok", Json.Bool c.ok); ("detail", Json.Str c.detail) ])
             r.checks) );
      ("metrics", metrics_json r.metrics);
      ("extra", metrics_json r.extra);
      ("setups", Json.Arr (List.map (fun t -> Json.Num t) r.setups));
    ]

let report r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "workload %s, seed %d, %d s%s: %d ops x %d passes; %d samples attempted, %d failed\n"
    r.workload r.seed r.seconds
    (if r.traced then ", traced" else "")
    r.phase.ops r.phase.passes_run r.attempted r.failed;
  List.iter
    (fun (c : W.check) ->
      Printf.bprintf b "check %-40s %s  %s\n" c.c_name (if c.ok then "ok" else "FAILED") c.detail)
    r.checks;
  Printf.bprintf b "output_digest %s (first %d ops)\n" r.phase.digest r.phase.digest_ops;
  Buffer.add_string b r.table;
  Buffer.add_string b (metric_lines (r.metrics @ r.extra));
  Buffer.contents b
