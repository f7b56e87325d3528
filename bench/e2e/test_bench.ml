(* Unit tests of the harness's statistics, trace arithmetic and ladder
   reference, plus a 3-op smoke run of every workload against the
   metric list in BENCHMARK.json.  Runs from the workspace root, where
   the decks, golden tables and BENCHMARK.json are. *)

open Ape_bench_lib

let close ?(eps = 1e-12) msg a b = Alcotest.(check (float eps)) msg a b
let ints = List.map float_of_int

let test_percentiles () =
  let xs = ints [ 7; 3; 10; 1; 5; 9; 2; 8; 4; 6 ] in
  close "p50" 5. (Stats.nearest_rank 50. xs);
  close "p90" 9. (Stats.nearest_rank 90. xs);
  close "p91" 10. (Stats.nearest_rank 91. xs);
  close "p0 clamps to the minimum" 1. (Stats.nearest_rank 0. xs);
  close "p100" 10. (Stats.nearest_rank 100. xs);
  close "p98 of 500" 490. (Stats.nearest_rank 98. (ints (List.init 500 succ)));
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Stats.quartiles xs in
  close "q1" 2.75 q1;
  close "median" 5.5 m;
  close "q3" 8.25 q3;
  let q1, m, q3 = Stats.quartiles (ints [ 4; 1; 3; 2 ]) in
  close "q1 of 4" 1.25 q1;
  close "median of 4" 2.5 m;
  close "q3 of 4" 3.75 q3;
  let q1, _, q3 = Stats.quartiles [ 3. ] in
  close "one sample" 3. q1;
  close "one sample" 3. q3;
  close "spread" 0.3 (Stats.spread (ints [ 80; 90; 100; 110; 120 ]))

let test_verdict () =
  let check msg expected better base cand =
    Alcotest.(check string)
      msg
      (Stats.verdict_name expected)
      (Stats.verdict_name (Stats.verdict better ~bound:0.1 ~base:(ints base) ~cand:(ints cand)))
  in
  let base = [ 100; 101; 99; 100; 100 ] in
  check "within the bound, every run worse" Stats.No_worse Stats.Lower base
    [ 105; 106; 104; 105; 105 ];
  check "beyond the bound" Stats.Worse Stats.Lower base [ 120; 121; 119; 120; 120 ];
  check "every run better" Stats.Better Stats.Lower base [ 90; 91; 89; 90; 90 ];
  check "overlapping, tight" Stats.No_worse Stats.Lower base [ 101; 100; 99; 102; 100 ];
  check "higher is better" Stats.Worse Stats.Higher base [ 80; 81; 79; 80; 80 ];
  check "wide quartiles: unresolved" Stats.Unresolved Stats.Lower
    [ 80; 100; 120; 90; 110 ]
    [ 85; 105; 115; 95; 100 ];
  check "wide but separated: resolved" Stats.Better Stats.Lower
    [ 100; 120; 140; 110; 130 ]
    [ 50; 60; 55; 58; 52 ];
  check "wide and worse beyond the bound: worse only if separated" Stats.Unresolved
    Stats.Lower [ 80; 100; 120; 90; 110 ] [ 95; 140; 125; 100; 130 ];
  let setup = List.hd Metrics.end_to_end in
  close "setup_s bound at 0.5 s" 0.25 (Metrics.bound_at setup ~base:0.5);
  close "setup_s bound at 0.02 s: the 0.05 s floor" 2.5 (Metrics.bound_at setup ~base:0.02)

let test_self_time () =
  let s id parent t0 t1 = { Spans.id; op_id = 0; name = Printf.sprintf "s%d" id; parent; t0; t1 } in
  (* s0 [0,10] has children s1 [1,4] and s2 [3,6] (overlapping: they
     cover [1,6]); s1 has child s3 [2,3]; s2 has a child s4 [5,8] that
     outlives it, clipped to [5,6]. *)
  let spans = [ s 0 (-1) 0. 10.; s 1 0 1. 4.; s 2 0 3. 6.; s 3 1 2. 3.; s 4 2 5. 8. ] in
  let self = List.map (fun ((sp : Spans.span), t) -> (sp.id, t)) (Spans.self_times spans) in
  List.iter
    (fun (id, want) -> close (Printf.sprintf "self s%d" id) want (List.assoc id self))
    [ (0, 5.); (1, 2.); (2, 2.); (3, 1.); (4, 3.) ];
  let spans = spans @ [ { (s 5 (-1) 20. 30.) with name = "s0" } ] in
  match Spans.summarize spans with
  | r :: _ ->
    Alcotest.(check string) "first row" "s0" r.Spans.name;
    Alcotest.(check int) "calls" 2 r.Spans.calls;
    close "total" 20. r.Spans.total;
    close "self" 15. r.Spans.self
  | [] -> Alcotest.fail "no rows"

let test_ladder_reference () =
  let r = 1e3 and c = 1e-9 in
  List.iter
    (fun f ->
      let closed =
        Complex.div Complex.one
          {
            Complex.re = 1. +. (r *. Ladder_ref.gmin);
            im = r *. 2. *. Float.pi *. f *. c;
          }
      in
      let abcd = Ladder_ref.transfer ~sections:1 ~r ~c f in
      close ~eps:1e-15 "re" closed.Complex.re abcd.Complex.re;
      close ~eps:1e-15 "im" closed.Complex.im abcd.Complex.im)
    [ 1.; 1e3; 159154.94; 1e9 ];
  (* Two sections at DC: the gmin leaks compound. *)
  let h = Ladder_ref.transfer ~sections:2 ~r ~c 0. in
  let g = Ladder_ref.gmin in
  close ~eps:1e-18 "two sections at DC" (1. /. (1. +. (3. *. r *. g) +. (r *. r *. g *. g)))
    h.Complex.re

(* Every metric in BENCHMARK.json, with its unit, direction and bound,
   is the harness's own, and a 3-op run of each workload prints it. *)
let test_smoke () =
  let bench = Json.read_file "BENCHMARK.json" in
  let names key = List.map (fun j -> Json.to_str (Json.member "name" j)) (Json.to_list (Json.member key bench)) in
  Alcotest.(check (list string)) "workloads" (List.map Workloads.name Workloads.all) (names "workloads");
  let check_defs key (defs : Metrics.def list) =
    List.iter2
      (fun j (d : Metrics.def) ->
        Alcotest.(check string) "name" d.name (Json.to_str (Json.member "name" j));
        Alcotest.(check string) (d.name ^ " unit") d.unit (Json.to_str (Json.member "unit" j));
        Alcotest.(check string) (d.name ^ " better") (Metrics.better_name d.better)
          (Json.to_str (Json.member "better" j));
        match d.bound with
        | Some b -> close (d.name ^ " bound") b (Json.to_num (Json.member "bound" j))
        | None -> ())
      (Json.to_list (Json.member key bench))
      defs
  in
  Alcotest.(check int) "end_to_end count" (List.length Metrics.end_to_end)
    (List.length (names "end_to_end"));
  Alcotest.(check int) "per_layer count" (List.length Metrics.per_layer)
    (List.length (names "per_layer"));
  check_defs "end_to_end" Metrics.end_to_end;
  check_defs "per_layer" Metrics.per_layer;
  let printed r (defs : Metrics.def list) =
    let report = Trial.report r and summary = Json.to_string (Trial.summary_json r) in
    Alcotest.(check bool) (r.Trial.workload ^ " correct") true (Trial.correct r);
    Alcotest.(check int) (r.Trial.workload ^ " failed") 0 r.Trial.failed;
    List.iter
      (fun (d : Metrics.def) ->
        let line = Printf.sprintf "\n%s " d.name and unit = Printf.sprintf " %s\n" d.unit in
        let has s sub =
          let n = String.length sub in
          let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) (d.name ^ " printed") true (has ("\n" ^ report) line);
        Alcotest.(check bool) (d.name ^ " unit") true (has report unit);
        Alcotest.(check bool) (d.name ^ " in summary") true
          (has summary (Printf.sprintf "%S: {\"value\": " d.name)))
      defs
  in
  (* A serve op is a whole batch of 24 jobs. *)
  List.iter
    (fun w ->
      let max_ops = if Workloads.name w = "serve" then 1 else 3 in
      printed (Trial.run ~max_ops w ~seed:1 ~seconds:60 ~trace:false) Metrics.end_to_end)
    Workloads.all;
  printed (Trial.run ~max_ops:3 Workloads.sim ~seed:1 ~seconds:60 ~trace:true) Metrics.per_layer

let () =
  Alcotest.run "bench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles and quartiles" `Quick test_percentiles;
          Alcotest.test_case "compare verdict rule" `Quick test_verdict;
        ] );
      ("trace", [ Alcotest.test_case "span self time" `Quick test_self_time ]);
      ("ladder", [ Alcotest.test_case "ABCD vs one-section closed form" `Quick test_ladder_reference ]);
      ("smoke", [ Alcotest.test_case "3-op run of every workload" `Quick test_smoke ]);
    ]
