(* [ape_bench compare A B]: every workload x end-to-end metric of two
   directories of untraced results, on its own row, with a verdict. *)

type entry = {
  workload : string;
  seed : int;
  digest : string;
  digest_ops : int;
  metrics : (string * float) list;
}

let load dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         if not (Filename.check_suffix f ".json") then None
         else
           let j = Json.read_file (Filename.concat dir f) in
           let str k = Json.to_str (Json.member k j) in
           let int k = int_of_float (Json.to_num (Json.member k j)) in
           if Json.member "schema" j <> Json.Str Trial.schema || Json.member "trace" j <> Json.Bool false
           then None
           else
             Some
               {
                 workload = str "workload";
                 seed = int "seed";
                 digest = str "output_digest";
                 digest_ops = int "digest_ops";
                 metrics =
                   List.map
                     (fun (k, v) -> (k, Json.to_num (Json.member "value" v)))
                     (Json.to_assoc (Json.member "metrics" j));
               })

let fmt_q xs =
  let q1, m, q3 = Stats.quartiles xs in
  Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3

(* Trials of one seed on one side must all produce the same outputs. *)
let digest_problems side entries =
  let keys = List.sort_uniq compare (List.map (fun e -> (e.workload, e.seed, e.digest_ops)) entries) in
  List.filter_map
    (fun (w, s, n) ->
      let ds =
        List.sort_uniq compare
          (List.filter_map
             (fun e -> if (e.workload, e.seed, e.digest_ops) = (w, s, n) then Some e.digest else None)
             entries)
      in
      if List.length ds > 1 then
        Some (Printf.sprintf "%s: %s seed %d: %d different output digests" side w s (List.length ds))
      else None)
    keys

(* Returns true when no row is worse or unresolved and every side's
   digests agree. *)
let run dir_a dir_b =
  let a = load dir_a and b = load dir_b in
  Printf.printf "%-7s %-12s %-30s %-30s %8s  %s\n" "workload" "metric" ("A " ^ dir_a)
    ("B " ^ dir_b) "change" "verdict";
  let bad = ref false in
  List.iter
    (fun w ->
      let name = Workloads.name w in
      let values side m =
        List.filter_map
          (fun e -> if e.workload = name then List.assoc_opt m e.metrics else None)
          side
      in
      List.iter
        (fun (d : Metrics.def) ->
          match (values a d.name, values b d.name) with
          | [], [] -> ()
          | [], _ | _, [] ->
            bad := true;
            Printf.printf "%-8s %-12s missing on one side\n" name d.name
          | base, cand ->
            let bound = Metrics.bound_at d ~base:(Stats.median base) in
            let v = Stats.verdict d.better ~bound ~base ~cand in
            if v = Stats.Worse || v = Stats.Unresolved then bad := true;
            Printf.printf "%-8s %-12s %-30s %-30s %+7.2f%%  %s (bound %.0f%%, n=%d/%d)\n" name
              d.name (fmt_q base) (fmt_q cand)
              (100. *. (Stats.median cand -. Stats.median base) /. Float.abs (Stats.median base))
              (Stats.verdict_name v) (100. *. bound) (List.length base) (List.length cand))
        Metrics.end_to_end)
    Workloads.all;
  let problems = digest_problems "A" a @ digest_problems "B" b in
  List.iter print_endline problems;
  (* Across sides a changed digest is news, not a failure. *)
  List.iter
    (fun ea ->
      match
        List.find_opt
          (fun eb -> eb.workload = ea.workload && eb.seed = ea.seed && eb.digest_ops = ea.digest_ops)
          b
      with
      | Some eb when eb.digest <> ea.digest ->
        Printf.printf "note: %s seed %d output digest changed between A and B\n" ea.workload ea.seed
      | _ -> ())
    (List.sort_uniq (fun x y -> compare (x.workload, x.seed) (y.workload, y.seed)) a);
  (not !bad) && problems = []
