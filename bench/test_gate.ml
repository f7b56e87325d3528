(* The timing-gate rule: interleaved pair order, the median pair ratio,
   and a bound judged on the unfavourable quartile of the trials. *)

let check_float = Alcotest.(check (float 0.))

(* Blocks that log their side and return the next of [times]. *)
let logged log side times =
  let rest = ref times in
  fun () ->
    log := side :: !log;
    match !rest with
    | t :: tl ->
      rest := tl;
      t
    | [] -> 1.

let test_order () =
  let log = ref [] in
  ignore
    (Ape_gate.trial ~pairs:4 ~a:(logged log "a" []) ~b:(logged log "b" []));
  Alcotest.(check (list string))
    "a b, b a, a b, b a"
    [ "a"; "b"; "b"; "a"; "a"; "b"; "b"; "a" ]
    (List.rev !log)

let test_median_ratio () =
  let log = ref [] in
  (* Pair ratios a/b: 2, 10, 3, 1, 4; their median is 3. *)
  check_float "median of a/b" 3.
    (Ape_gate.trial ~pairs:5
       ~a:(logged log "a" [ 2.; 20.; 3.; 4.; 8. ])
       ~b:(logged log "b" [ 1.; 2.; 1.; 4.; 2. ]))

let seven good bad n_bad =
  List.init Ape_gate.trials (fun i -> if i < n_bad then bad else good)

let test_one_outlier () =
  List.iter
    (fun (bound, good, bad) ->
      Alcotest.(check bool) "one bad trial passes" true
        (Ape_gate.passes bound (seven good bad 1));
      Alcotest.(check bool) "two bad trials fail" false
        (Ape_gate.passes bound (seven good bad 2)))
    [
      (Ape_gate.At_least 2., 2.3, 1.5);
      (Ape_gate.At_most 2., 1.0, 5.9);
    ]

let test_second_worst () =
  let trials = [ 5.; 1.; 7.; 3.; 2.; 6.; 4. ] in
  check_float "floor: second-lowest" 2.
    (Ape_gate.statistic (Ape_gate.At_least 0.) trials);
  check_float "ceiling: second-highest" 6.
    (Ape_gate.statistic (Ape_gate.At_most 0.) trials)

let test_at_threshold () =
  let trials = seven 2. 2. 0 in
  Alcotest.(check bool) "at a floor passes" true
    (Ape_gate.passes (Ape_gate.At_least 2.) trials);
  Alcotest.(check bool) "at a ceiling passes" true
    (Ape_gate.passes (Ape_gate.At_most 2.) trials)

let () =
  Alcotest.run "gate"
    [
      ( "rule",
        [
          Alcotest.test_case "pair order alternates" `Quick test_order;
          Alcotest.test_case "trial is the median pair ratio" `Quick
            test_median_ratio;
          Alcotest.test_case "one outlier never decides" `Quick
            test_one_outlier;
          Alcotest.test_case "seven trials: second-worst" `Quick
            test_second_worst;
          Alcotest.test_case "statistic at the threshold passes" `Quick
            test_at_threshold;
        ] );
    ]
