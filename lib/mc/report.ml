module Table = Ape_util.Table

let eng = Ape_util.Units.to_eng
let pct x = Printf.sprintf "%.1f %%" (100. *. x)

let summary (r : Run.report) =
  let b = Buffer.create 256 in
  let cfg = r.Run.config in
  Buffer.add_string b
    (Printf.sprintf "Monte Carlo: %d samples, %d job%s, seed %d, %.2f s (%s samples/s)\n"
       cfg.Run.samples cfg.Run.jobs
       (if cfg.Run.jobs = 1 then "" else "s")
       cfg.Run.seed r.Run.seconds
       (eng (float_of_int cfg.Run.samples /. Float.max 1e-9 r.Run.seconds)));
  if r.Run.failures > 0 then
    Buffer.add_string b
      (Printf.sprintf "failures: %d%s\n" r.Run.failures
         (match r.Run.failure_example with
         | Some (i, msg) -> Printf.sprintf " (first: sample %d, %s)" i msg
         | None -> ""));
  if r.Run.check_pass <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "yield: %s (%d/%d pass every check)\n" (pct r.Run.yield)
         r.Run.pass cfg.Run.samples);
    List.iter
      (fun (c, n) ->
        Buffer.add_string b
          (Printf.sprintf "  %-28s %s\n"
             (Format.asprintf "%a" Run.pp_check c)
             (pct (float_of_int n /. float_of_int cfg.Run.samples))))
      r.Run.check_pass
  end;
  Buffer.contents b

let metric_table (r : Run.report) =
  let row (m : Run.metric_summary) =
    let s = m.Run.m_stats in
    let q p = eng (Stats.quantile s p) in
    [
      m.Run.m_name;
      eng (Stats.mean s);
      eng (Stats.std s);
      eng (Stats.min_value s);
      q 0.05;
      q 0.5;
      q 0.95;
      eng (Stats.max_value s);
    ]
  in
  Table.render
    ~header:[ "metric"; "mean"; "std"; "min"; "q05"; "q50"; "q95"; "max" ]
    (List.map row r.Run.metrics)

let histogram (r : Run.report) name =
  let width = 40 in
  match Run.metric r name with
  | None -> Printf.sprintf "%s: no samples\n" name
  | Some m ->
    let h = Stats.histogram ~bins:10 m.Run.m_stats in
    let peak =
      Array.fold_left (fun acc b -> Int.max acc b.Stats.b_count) 1 h
    in
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "%s  (worst low: sample %d at %s; worst high: sample %d at %s)\n"
         name m.Run.m_min.Run.sample
         (eng m.Run.m_min.Run.value)
         m.Run.m_max.Run.sample
         (eng m.Run.m_max.Run.value));
    Array.iter
      (fun bin ->
        let bar = bin.Stats.b_count * width / peak in
        Buffer.add_string b
          (Printf.sprintf "  %10s .. %-10s |%-*s %d\n"
             (eng bin.Stats.b_lo) (eng bin.Stats.b_hi) width
             (String.make bar '#') bin.Stats.b_count))
      h;
    Buffer.contents b

let to_string ?(histograms = []) (r : Run.report) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (summary r);
  if r.Run.metrics <> [] then Buffer.add_string b (metric_table r);
  List.iter
    (fun name ->
      Buffer.add_char b '\n';
      Buffer.add_string b (histogram r name))
    histograms;
  Buffer.contents b
