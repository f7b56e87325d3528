module Rng = Ape_util.Rng

let c_runs = Ape_obs.counter "mc.runs"
let c_samples = Ape_obs.counter "mc.samples"
let c_sample_failures = Ape_obs.counter "mc.sample_failures"
let h_sample_seconds = Ape_obs.histogram "mc.sample_seconds"

type check = { metric : string; lower : float option; upper : float option }

let at_least metric bound = { metric; lower = Some bound; upper = None }

let check_passes c value =
  (match c.lower with None -> true | Some b -> value >= b)
  && (match c.upper with None -> true | Some b -> value <= b)

let pp_check fmt c =
  let eng = Ape_util.Units.to_eng in
  match (c.lower, c.upper) with
  | Some lo, Some hi ->
    Format.fprintf fmt "%s in [%s, %s]" c.metric (eng lo) (eng hi)
  | Some lo, None -> Format.fprintf fmt "%s >= %s" c.metric (eng lo)
  | None, Some hi -> Format.fprintf fmt "%s <= %s" c.metric (eng hi)
  | None, None -> Format.fprintf fmt "%s (always)" c.metric

type config = { samples : int; jobs : int; seed : int }

type extreme = { sample : int; value : float }

type metric_summary = {
  m_name : string;
  m_stats : Stats.t;
  m_min : extreme;
  m_max : extreme;
}

type report = {
  config : config;
  failures : int;
  failure_example : (int * string) option;
  metrics : metric_summary list;
  check_pass : (check * int) list;
  pass : int;
  yield : float;
  seconds : float;
}

let metric report name =
  List.find_opt (fun m -> String.equal m.m_name name) report.metrics

let run ?(checks = []) config ~measure =
  if config.samples <= 0 then invalid_arg "Run.run: samples <= 0";
  Ape_obs.span "mc.run" @@ fun () ->
  Ape_obs.incr c_runs;
  Ape_obs.add c_samples config.samples;
  let t0 = Unix.gettimeofday () in
  (* One child stream per sample, keyed by index: the sample outcome is a
     pure function of (seed, index), never of jobs or scheduling. *)
  let streams = Rng.split_n (Rng.create config.seed) config.samples in
  let outcomes =
    Ape_util.Pool.map ~jobs:config.jobs config.samples (fun i ->
        (* Per-scenario throughput: each sample's wall time lands in the
           worker's own sink; Pool merges them at the join. *)
        Ape_obs.time h_sample_seconds (fun () ->
            match measure streams.(i) i with
            | metrics -> Ok metrics
            | exception e ->
              Ape_obs.incr c_sample_failures;
              Error (Printexc.to_string e)))
  in
  (* Sequential aggregation in sample order keeps every statistic
     bit-identical across jobs values. *)
  let order = ref [] in
  let table : (string, metric_summary) Hashtbl.t = Hashtbl.create 8 in
  let observe i name value =
    match Hashtbl.find_opt table name with
    | None ->
      let s = Stats.create () in
      Stats.add s value;
      let e = { sample = i; value } in
      Hashtbl.add table name { m_name = name; m_stats = s; m_min = e; m_max = e };
      order := name :: !order
    | Some m ->
      Stats.add m.m_stats value;
      let m =
        if value < m.m_min.value then { m with m_min = { sample = i; value } }
        else m
      in
      let m =
        if value > m.m_max.value then { m with m_max = { sample = i; value } }
        else m
      in
      Hashtbl.replace table name m
  in
  let failures = ref 0 in
  let failure_example = ref None in
  let pass = ref 0 in
  let check_pass = Array.make (List.length checks) 0 in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Error msg ->
        incr failures;
        if !failure_example = None then failure_example := Some (i, msg)
      | Ok metrics ->
        List.iter (fun (name, value) -> observe i name value) metrics;
        let all_ok = ref true in
        List.iteri
          (fun k c ->
            let ok =
              match List.assoc_opt c.metric metrics with
              | None -> false
              | Some v -> check_passes c v
            in
            if ok then check_pass.(k) <- check_pass.(k) + 1
            else all_ok := false)
          checks;
        if !all_ok then incr pass)
    outcomes;
  {
    config;
    failures = !failures;
    failure_example = !failure_example;
    metrics =
      List.rev_map (fun name -> Hashtbl.find table name) !order;
    check_pass = List.mapi (fun k c -> (c, check_pass.(k))) checks;
    pass = !pass;
    yield = float_of_int !pass /. float_of_int config.samples;
    seconds = Unix.gettimeofday () -. t0;
  }
