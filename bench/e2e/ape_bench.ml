(* The end-to-end benchmark harness.

     ape_bench [run] --workload W --seed S [--seconds N] [--trace 0|1] [--out DIR]
     ape_bench trace --workload W --seed S [--seconds N] [--out DIR]
     ape_bench compare DIR_A DIR_B
     ape_bench sim-expected > bench/e2e/expected/sim-seed1.tsv

   [run] is one trial in this process: it prints every metric as
   "name value unit", writes DIR/W-S-<n>.json (schema ape-bench/1) and
   ends with one JSON line {correct, attempted, failed, metrics}.  With
   [--trace 1] (or [trace]) the metrics are the per-layer ones and the
   spans go to DIR/trace-W-S.json. *)

open Ape_bench_lib

(* Each of these silently changes the program being measured. *)
let refuse_knobs () =
  let knobs =
    Array.to_list (Unix.environment ())
    |> List.filter_map (fun kv ->
           let k = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv in
           if
             List.mem k [ "APE_ENGINE"; "APE_PANEL_WIDTH"; "APE_UPDATE_GOLDEN" ]
             || String.starts_with ~prefix:"APE_BENCH_" k
           then Some k
           else None)
  in
  if knobs <> [] then begin
    Printf.eprintf "ape_bench: refusing to run with %s set: the measured program would not \
                    be the default one\n"
      (String.concat ", " knobs);
    exit 2
  end

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

let free_name dir prefix =
  let rec go n =
    let p = Filename.concat dir (Printf.sprintf "%s-%d.json" prefix n) in
    if Sys.file_exists p then go (n + 1) else p
  in
  go 1

let run_cmd ~workload ~seed ~seconds ~trace ~out =
  refuse_knobs ();
  let w =
    match Workloads.find workload with
    | Some w -> w
    | None ->
      Printf.eprintf "ape_bench: unknown workload %S (%s)\n" workload
        (String.concat ", " (List.map Workloads.name Workloads.all));
      exit 2
  in
  let r = Trial.run w ~seed ~seconds ~trace in
  print_string (Trial.report r);
  mkdir_p out;
  let file =
    if trace then Filename.concat out (Printf.sprintf "trace-%s-%d.json" workload seed)
    else free_name out (Printf.sprintf "%s-%d" workload seed)
  in
  let json =
    match Trial.result_json r with
    | Json.Obj fields when trace -> Json.Obj (fields @ [ ("spans", Spans.to_json r.spans) ])
    | j -> j
  in
  write file json;
  Printf.printf "wrote %s\n" file;
  print_endline (Json.to_string (Trial.summary_json r))

let usage =
  "usage: ape_bench [run|trace] --workload W --seed S [--seconds N] [--trace 0|1] [--out DIR]\n\
  \       ape_bench compare DIR_A DIR_B\n\
  \       ape_bench sim-expected"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "compare"; a; b ] -> exit (if Compare.run a b then 0 else 1)
  | [ "sim-expected" ] ->
    refuse_knobs ();
    List.iter print_endline (Workloads.sim_expected ())
  | _ ->
    let traced, rest =
      match args with
      | "run" :: rest -> (false, rest)
      | "trace" :: rest -> (true, rest)
      | rest -> (false, rest)
    in
    let workload = ref "" and seed = ref (-1) and seconds = ref 16 in
    let trace = ref traced and out = ref "bench/e2e/out" in
    let specs =
      [
        ("--workload", Arg.Set_string workload, "W  synth, verify, sim or serve");
        ("--seed", Arg.Set_int seed, "S  input seed (>= 0)");
        ("--seconds", Arg.Set_int seconds, "N  about how long the timed loop runs (default 16)");
        ("--trace", Arg.Int (fun t -> trace := t <> 0), "0|1  per-layer traced run");
        ("--out", Arg.Set_string out, "DIR  result directory (default bench/e2e/out)");
      ]
    in
    (try
       Arg.parse_argv ~current:(ref 0)
         (Array.of_list (Sys.argv.(0) :: rest))
         specs
         (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
         usage
     with Arg.Bad msg | Arg.Help msg ->
       prerr_string msg;
       exit 2);
    if !workload = "" || !seed < 0 || !seconds < 1 then begin
      prerr_endline usage;
      exit 2
    end;
    run_cmd ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out
