(* The per-layer view of a traced run: harness spans around each public
   call, merged with the program's own Ape_obs spans and counters. *)

type row = {
  name : string;
  calls : int;
  total : float;  (** seconds *)
  self : float;  (** total minus the time covered by child spans *)
  worker : bool;  (** recorded on a pool worker, off the op's own timeline *)
}

(* Ape_obs roots that time the same call a harness span wraps.  They
   merge into the harness row, so the program's sub-spans become that
   row's children. *)
let obs_aliases = [ ("synth", "synth.driver") ]

let obs_row_name path =
  match List.assoc_opt path obs_aliases with
  | Some name -> name
  | None -> String.map (fun c -> if c = '/' then '.' else c) path

let parent_path p = Option.map (fun k -> String.sub p 0 k) (String.rindex_opt p '/')

let root_path p =
  match String.index_opt p '/' with Some k -> String.sub p 0 k | None -> p

let rows ~(spans : Spans.span list) ~(snap : Ape_obs.snapshot) =
  let harness =
    List.map
      (fun (r : Spans.row) ->
        { name = r.name; calls = r.calls; total = r.total; self = r.self; worker = false })
      (Spans.summarize spans)
  in
  let obs = List.map (fun (p, (s : Ape_obs.summary)) -> (p, s.s_count, s.s_sum)) snap.spans in
  let children_total p =
    List.fold_left
      (fun acc (q, _, t) -> if parent_path q = Some p then acc +. t else acc)
      0. obs
  in
  let merged root = List.exists (fun r -> r.name = obs_row_name root) harness in
  let harness =
    List.map
      (fun r ->
        match List.find_opt (fun (p, _, _) -> obs_row_name p = r.name && parent_path p = None) obs with
        | Some (p, _, _) -> { r with self = r.self -. children_total p }
        | None -> r)
      harness
  in
  let from_obs =
    List.filter_map
      (fun (p, calls, total) ->
        if parent_path p = None && merged p then None
        else
          Some
            {
              name = obs_row_name p;
              calls;
              total;
              self = total -. children_total p;
              worker = not (merged (root_path p));
            })
      obs
  in
  harness @ from_obs

let counter (snap : Ape_obs.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.counters))

let find_row rows name = List.find_opt (fun r -> r.name = name) rows

(* Per-layer metric values.  [ops] is the traced phase's sample count
   (jobs for serve); [overhead] the relative ops/s lost to tracing;
   [check_s] the time of the correctness pass. *)
let metrics ~rows ~snap ~ops ~overhead ~check_s ~extra =
  let per_op x = if ops = 0 then 0. else x /. float_of_int ops in
  let self_ms name =
    match find_row rows name with Some r -> 1000. *. per_op r.self | None -> 0.
  in
  let ratio num den =
    let d = List.fold_left (fun acc n -> acc +. counter snap n) 0. den in
    if d = 0. then 0. else counter snap num /. d
  in
  let coverage =
    match find_row rows "bench.op" with
    | Some r when r.total > 0. -> 1. -. (r.self /. r.total)
    | _ -> 0.
  in
  let evals_per_s =
    match find_row rows "synth.anneal" with
    | Some r when r.total > 0. -> counter snap "anneal.evaluations" /. r.total
    | _ -> 0.
  in
  let computed =
    List.map (fun (span, m) -> (m, self_ms span)) Metrics.span_metrics
    @ [
        ("check.catalog.s", check_s);
        ("obs.coverage_frac", coverage);
        ("obs.trace_overhead_frac", overhead);
        ("synth.anneal.evals_per_s", evals_per_s);
        ("util.pool.domain_spawns", counter snap "pool.domain_spawns");
      ]
    @ List.map (fun (m, _, num, den) -> (m, ratio num den)) Metrics.ratio_metrics
    @ List.map (fun (c, m) -> (m, per_op (counter snap c))) Metrics.counter_metrics
    @ extra
  in
  List.map
    (fun (d : Metrics.def) ->
      (d.name, Option.value ~default:0. (List.assoc_opt d.name computed)))
    Metrics.per_layer

let render_table ~rows ~ops =
  let op_wall = match find_row rows "bench.op" with Some r -> r.total | None -> 0. in
  let b = Buffer.create 2048 in
  Printf.bprintf b "%-26s %8s %10s %10s %7s %10s\n" "span" "calls" "total s" "self s"
    "share" "self ms/op";
  List.iter
    (fun r ->
      Printf.bprintf b "%-26s %8d %10.4f %10.4f %6.1f%% %10.4f%s\n" r.name r.calls r.total
        r.self
        (if op_wall > 0. then 100. *. r.self /. op_wall else 0.)
        (if ops = 0 then 0. else 1000. *. r.self /. float_of_int ops)
        (if r.worker then "  (pool worker)" else ""))
    (List.sort (fun a b -> compare (a.worker, -.a.self) (b.worker, -.b.self)) rows);
  Printf.bprintf b
    "share = self time / op wall time (%.3f s over %d ops); pool-worker rows \
     overlap the ops they serve\n"
    op_wall ops;
  Buffer.contents b

(* Each ratio with its base, for the ratios this run has a base for. *)
let render_ratios snap =
  String.concat ""
    (List.filter_map
       (fun (m, _, num, den) ->
         let d = List.fold_left (fun acc n -> acc +. counter snap n) 0. den in
         if d = 0. then None
         else
           Some
             (Printf.sprintf "%s = %s %.0f / %s %.0f\n" m num (counter snap num)
                (String.concat " + " den) d))
       Metrics.ratio_metrics)
