(* Tests for Ape_symbolic: expression evaluation, differentiation,
   simplification, the infix parser and the equation solver. *)

module Expr = Ape_symbolic.Expr
module Parser = Ape_symbolic.Parser
module Solver = Ape_symbolic.Solver
module F = Ape_util.Float_ext

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.8g vs %.8g" msg expected actual)
    true
    (F.approx_equal ~rtol:tol ~atol:tol expected actual)

let env = Expr.Env.of_list [ ("x", 2.); ("y", 3.); ("kp", 75e-6) ]

(* ---------- eval ---------- *)

let test_eval_basic () =
  let open Expr in
  check_close "add" 5. (eval env (var "x" + var "y"));
  check_close "mul" 6. (eval env (var "x" * var "y"));
  check_close "div" (2. /. 3.) (eval env (var "x" / var "y"));
  check_close "pow" 8. (eval env (var "x" ** 3.));
  check_close "sqrt" (Float.sqrt 2.) (eval env (sqrt (var "x")));
  check_close "nested" 7. (eval env ((var "x" * var "x") + var "y"))

let test_eval_errors () =
  Alcotest.check_raises "unbound" (Expr.Unbound_variable "z") (fun () ->
      ignore (Expr.eval env (Expr.var "z")));
  Alcotest.check_raises "div0" (Expr.Domain_error "division by zero")
    (fun () ->
      ignore (Expr.eval env Expr.(const 1. / (var "x" - const 2.))));
  Alcotest.check_raises "sqrt neg" (Expr.Domain_error "sqrt of negative")
    (fun () -> ignore (Expr.eval env Expr.(sqrt (const (-1.)))))

(* ---------- diff ---------- *)

let numeric_diff f x =
  let h = 1e-6 *. (1. +. Float.abs x) in
  (f (x +. h) -. f (x -. h)) /. (2. *. h)

let check_derivative name expr at =
  let f v = Expr.eval (Expr.Env.of_list [ ("x", v) ]) expr in
  let symbolic =
    Expr.eval (Expr.Env.of_list [ ("x", at) ]) (Expr.diff "x" expr)
  in
  check_close name (numeric_diff f at) symbolic ~tol:1e-4

let test_diff () =
  let x = Expr.var "x" in
  check_derivative "d(x^2)" Expr.(x * x) 1.7;
  check_derivative "d(sqrt)" Expr.(sqrt x) 2.3;
  check_derivative "d(1/x)" Expr.(const 1. / x) 1.4;
  check_derivative "d(exp)" Expr.(exp x) 0.8;
  check_derivative "d(log)" Expr.(log x) 2.9;
  check_derivative "d(x^2.5)" Expr.(x ** 2.5) 1.3;
  check_derivative "paper gm eq" Expr.(sqrt (const 2. * x)) 1.1

let test_diff_constant () =
  Alcotest.(check bool) "d(const) simplifies to 0" true
    (Expr.equal (Expr.diff "x" (Expr.const 5.)) (Expr.const 0.));
  Alcotest.(check bool) "d(y)/dx = 0" true
    (Expr.equal (Expr.diff "x" (Expr.var "y")) (Expr.const 0.))

(* ---------- simplify ---------- *)

let expr_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun c -> Expr.Const c) (float_range 0.5 4.);
                return (Expr.Var "x");
              ]
          else
            frequency
              [
                (2, map2 (fun a b -> Expr.Add (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map2 (fun a b -> Expr.Mul (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map2 (fun a b -> Expr.Sub (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> Expr.Sqrt (Expr.Abs a)) (self (n - 1)));
                (1, map (fun a -> Expr.Neg a) (self (n - 1)));
              ])
        (min n 6))

let arb_expr = QCheck.make ~print:Expr.to_string expr_gen

let prop_simplify_preserves_value =
  QCheck.Test.make ~name:"simplify preserves value" ~count:300
    (QCheck.pair arb_expr (QCheck.float_range 0.5 3.)) (fun (e, x) ->
      let env = Expr.Env.of_list [ ("x", x) ] in
      let v1 = try Some (Expr.eval env e) with Expr.Domain_error _ -> None in
      match v1 with
      | None -> QCheck.assume_fail ()
      | Some v1 ->
        let v2 = Expr.eval env (Expr.simplify e) in
        F.approx_equal ~rtol:1e-9 ~atol:1e-9 v1 v2)

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent" ~count:300 arb_expr
    (fun e ->
      let s = Expr.simplify e in
      Expr.simplify s = s)

let test_simplify_rules () =
  let open Expr in
  Alcotest.(check bool) "x+0" true (equal (var "x" + const 0.) (var "x"));
  Alcotest.(check bool) "x*1" true (equal (var "x" * const 1.) (var "x"));
  Alcotest.(check bool) "x*0" true (equal (var "x" * const 0.) (const 0.));
  Alcotest.(check bool) "const fold" true
    (equal (const 2. + const 3.) (const 5.));
  Alcotest.(check bool) "neg neg" true (equal (neg (neg (var "x"))) (var "x"))

(* ---------- parser ---------- *)

let test_parse_numbers () =
  let check s expected =
    match Ape_util.Units.parse_number s with
    | Some v -> check_close s expected v
    | None -> Alcotest.fail ("parse_number failed on " ^ s)
  in
  check "4.7k" 4.7e3;
  check "10u" 10e-6;
  check "2MEG" 2e6;
  check "1e-3" 1e-3;
  check "3.3" 3.3;
  check "10pF" 10e-12;
  check "-2.5m" (-2.5e-3);
  Alcotest.(check bool) "garbage" true (Ape_util.Units.parse_number "abc" = None)

let test_parse_suffixes () =
  let check s expected =
    match Ape_util.Units.parse_number s with
    | Some v -> check_close s expected v
    | None -> Alcotest.fail ("parse_number failed on " ^ s)
  in
  (* Every SPICE magnitude suffix, both cases: as in SPICE, "m" and
     "M" are both milli, and mega is "meg" in any case. *)
  check "1t" 1e12;
  check "1T" 1e12;
  check "1g" 1e9;
  check "1G" 1e9;
  check "2meg" 2e6;
  check "2MEG" 2e6;
  check "2mEg" 2e6;
  check "2Meg" 2e6;
  check "1k" 1e3;
  check "1K" 1e3;
  check "1m" 1e-3;
  check "1M" 1e-3;
  check "1MEG" 1e6;
  check "1meg" 1e6;
  check "1u" 1e-6;
  check "1U" 1e-6;
  check "1n" 1e-9;
  check "1N" 1e-9;
  check "1p" 1e-12;
  check "1P" 1e-12;
  check "1f" 1e-15;
  check "1F" 1e-15;
  check "1a" 1e-18;
  check "1A" 1e-18;
  check "1mil" 25.4e-6;
  check "1MIL" 25.4e-6;
  check "1Mil" 25.4e-6;
  (* Trailing unit letters after the suffix are conventional noise. *)
  check "10pF" 10e-12;
  check "4.7kOhm" 4.7e3;
  check "100nH" 100e-9

let suffix_table =
  [
    ("t", 1e12); ("g", 1e9); ("meg", 1e6); ("k", 1e3); ("m", 1e-3);
    ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15); ("a", 1e-18);
    ("mil", 25.4e-6);
  ]

let prop_suffix_scaling =
  QCheck.Test.make ~name:"mantissa*suffix = value*multiplier" ~count:500
    QCheck.(pair (float_range (-1e4) 1e4) (oneofl suffix_table))
    (fun (v, (suffix, mult)) ->
      match Ape_util.Units.parse_number (Printf.sprintf "%.17g%s" v suffix) with
      | Some got ->
        let expected = v *. mult in
        Float.abs (got -. expected)
        <= 1e-12 *. Float.max 1. (Float.abs expected)
      | None -> false)

let prop_suffix_case_insensitive =
  (* Uppercasing any suffix, the bare "m" included, must not change the
     value. *)
  QCheck.Test.make ~name:"suffix case-insensitivity" ~count:200
    QCheck.(pair (float_range 0.5 999.) (oneofl suffix_table))
    (fun (v, (suffix, _)) ->
      let s = Printf.sprintf "%.6g" v in
      Ape_util.Units.parse_number (s ^ suffix)
      = Ape_util.Units.parse_number (s ^ String.uppercase_ascii suffix))

let prop_to_exact_roundtrip =
  QCheck.Test.make ~name:"Units.to_exact round-trips through parse_number"
    ~count:500
    QCheck.(float_range (-1e15) 1e15)
    (fun v ->
      QCheck.assume (Float.is_finite v);
      match Ape_util.Units.parse_number (Ape_util.Units.to_exact v) with
      | Some got -> got = v
      | None -> false)

let prop_to_eng_parses_close =
  (* to_eng keeps 3 significant digits, so parsing its output must land
     within 0.5 ulp of the third digit (5e-3 relative).  Below 1e6: from
     there on to_eng prints SI "M" (mega), which SPICE reads as milli. *)
  QCheck.Test.make ~name:"Units.to_eng output parses back within 3 digits"
    ~count:500
    QCheck.(float_range (-1e6) 1e6)
    (fun v ->
      QCheck.assume (Float.abs v > 1e-12 && Float.abs v < 1e6);
      match Ape_util.Units.parse_number (Ape_util.Units.to_eng v) with
      | Some got -> Float.abs (got -. v) <= 5.01e-3 *. Float.abs v
      | None -> false)

let prop_spice_num_roundtrip =
  (* Netlist printing re-reads its own numbers: whatever the magnitude
     (to_eng's "M" included), the value [Netlist.to_spice] prints for an
     element parses back exactly. *)
  QCheck.Test.make ~name:"Netlist.spice_num round-trips every finite value"
    ~count:1000
    QCheck.(
      oneof
        [ float_range (-1e15) 1e15;
          map (fun (m, e) -> m *. (10. ** float_of_int e))
            (pair (float_range (-999.) 999.) (int_range (-20) 20));
          float ])
    (fun v ->
      QCheck.assume (Float.is_finite v);
      let module N = Ape_circuit.Netlist in
      let deck =
        N.to_spice
          (N.make ~title:"t" [ N.Resistor { name = "R1"; a = "a"; b = "0"; r = v } ])
      in
      let line =
        List.find (String.starts_with ~prefix:"R1 ") (String.split_on_char '\n' deck)
      in
      let printed = List.nth (String.split_on_char ' ' line) 3 in
      match Ape_util.Units.parse_number printed with
      | Some got -> Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float v)
      | None -> false)

let test_parse_expr () =
  let e = Parser.parse "2 * x + sqrt(y) / 3" in
  let env = Expr.Env.of_list [ ("x", 5.); ("y", 9.) ] in
  check_close "parsed value" 11. (Expr.eval env e);
  let e2 = Parser.parse "x^2 - 1" in
  check_close "pow" 24. (Expr.eval env e2);
  let e3 = Parser.parse "-(x + 1) * 2" in
  check_close "unary minus" (-12.) (Expr.eval env e3)

let test_parse_precedence () =
  let env = Expr.Env.of_list [] in
  check_close "mul before add" 7. (Expr.eval env (Parser.parse "1 + 2 * 3"));
  check_close "parens" 9. (Expr.eval env (Parser.parse "(1 + 2) * 3"));
  check_close "div assoc" 2. (Expr.eval env (Parser.parse "12 / 3 / 2"))

let test_parse_errors () =
  let expect_error s =
    match Parser.parse s with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for " ^ s)
  in
  expect_error "1 +";
  expect_error "(1 + 2";
  expect_error "foo(3)";
  expect_error "1 2"

let prop_pp_parse_roundtrip =
  QCheck.Test.make ~name:"pp then parse preserves value" ~count:300
    (QCheck.pair arb_expr (QCheck.float_range 0.5 3.)) (fun (e, x) ->
      let env = Expr.Env.of_list [ ("x", x) ] in
      match Expr.eval env e with
      | exception Expr.Domain_error _ -> QCheck.assume_fail ()
      | v1 ->
        let reparsed = Parser.parse (Expr.to_string e) in
        F.approx_equal ~rtol:1e-9 ~atol:1e-9 v1 (Expr.eval env reparsed))

(* ---------- solver ---------- *)

let test_solve_linear () =
  (* 3x + 1 = 10 -> x = 3 *)
  let eqn =
    Solver.equation
      Expr.((const 3. * var "x") + const 1.)
      (Expr.const 10.)
  in
  let x = Solver.solve_for ~var:"x" ~env:Expr.Env.empty eqn in
  check_close "linear solve" 3. x ~tol:1e-6

let test_solve_gm_equation () =
  (* The paper's Eq.(2): gm = sqrt(2 KP (W/L) Id); solve for W/L given
     gm = 100u, Id = 10u, KP = 75u -> W/L = gm^2/(2 KP Id) = 6.667 *)
  let eqn =
    Solver.equation (Expr.var "gm")
      Expr.(sqrt (const 2. * var "kp" * var "wl" * var "id"))
  in
  let env = Expr.Env.of_list [ ("gm", 100e-6); ("kp", 75e-6); ("id", 10e-6) ] in
  let wl = Solver.solve_for ~var:"wl" ~env eqn in
  check_close "W/L from gm" (100e-6 ** 2. /. (2. *. 75e-6 *. 10e-6)) wl
    ~tol:1e-6

let test_solve_unbound () =
  let eqn = Solver.equation (Expr.var "x") (Expr.var "q") in
  match Solver.solve_for ~var:"x" ~env:Expr.Env.empty eqn with
  | exception Solver.No_solution _ -> ()
  | _ -> Alcotest.fail "expected No_solution for unbound variable"

let test_solve_system () =
  let e1 =
    Solver.equation Expr.(var "x" * const 2.) (Expr.const 8.)
  in
  let e2 = Solver.equation Expr.(var "x" + const 0.) (Expr.const 4.) in
  let x = Solver.solve_system_1d ~var:"x" ~env:Expr.Env.empty [ e1; e2 ] in
  check_close "consistent system" 4. x ~tol:1e-6;
  let bad = Solver.equation (Expr.var "x") (Expr.const 5.) in
  match Solver.solve_system_1d ~var:"x" ~env:Expr.Env.empty [ e1; bad ] with
  | exception Solver.No_solution _ -> ()
  | _ -> Alcotest.fail "expected inconsistency to be detected"

let test_sensitivity () =
  (* f = x^2 at x=3: (x/f) df/dx = (3/9)*6 = 2 (power law exponent). *)
  let f = Expr.(var "x" ** 2.) in
  let env = Expr.Env.of_list [ ("x", 3.) ] in
  check_close "power-law sensitivity" 2.
    (Solver.sensitivity ~var:"x" ~env f)
    ~tol:1e-9

let prop_diff_sum_rule =
  QCheck.Test.make ~name:"d(a+b) = da + db numerically" ~count:200
    (QCheck.triple arb_expr arb_expr (QCheck.float_range 0.5 3.))
    (fun (a, b, x) ->
      let env = Expr.Env.of_list [ ("x", x) ] in
      match
        ( Expr.eval env (Expr.diff "x" (Expr.Add (a, b))),
          Expr.eval env (Expr.Add (Expr.diff "x" a, Expr.diff "x" b)) )
      with
      | exception Expr.Domain_error _ -> QCheck.assume_fail ()
      | lhs, rhs -> F.approx_equal ~rtol:1e-9 ~atol:1e-9 lhs rhs)

let prop_subst_then_eval =
  QCheck.Test.make ~name:"subst x:=c = eval with x=c" ~count:200
    (QCheck.pair arb_expr (QCheck.float_range 0.5 3.))
    (fun (e, c) ->
      let env = Expr.Env.of_list [ ("x", c) ] in
      match Expr.eval env e with
      | exception Expr.Domain_error _ -> QCheck.assume_fail ()
      | direct ->
        let substituted =
          Expr.eval Expr.Env.empty (Expr.subst "x" (Expr.Const c) e)
        in
        F.approx_equal ~rtol:1e-9 ~atol:1e-9 direct substituted)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_symbolic"
    [
      ( "eval",
        [
          Alcotest.test_case "basics" `Quick test_eval_basic;
          Alcotest.test_case "errors" `Quick test_eval_errors;
        ] );
      ( "diff",
        [
          Alcotest.test_case "numeric agreement" `Quick test_diff;
          Alcotest.test_case "constants" `Quick test_diff_constant;
        ] );
      ( "simplify",
        [ Alcotest.test_case "rules" `Quick test_simplify_rules ] );
      qsuite "simplify-properties"
        [ prop_simplify_preserves_value; prop_simplify_idempotent ];
      ( "parser",
        [
          Alcotest.test_case "numbers" `Quick test_parse_numbers;
          Alcotest.test_case "magnitude suffixes" `Quick test_parse_suffixes;
          Alcotest.test_case "expressions" `Quick test_parse_expr;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      qsuite "parser-properties"
        [
          prop_pp_parse_roundtrip; prop_suffix_scaling;
          prop_suffix_case_insensitive; prop_to_exact_roundtrip;
          prop_to_eng_parses_close; prop_spice_num_roundtrip;
        ];
      qsuite "calculus-properties" [ prop_diff_sum_rule; prop_subst_then_eval ];
      ( "solver",
        [
          Alcotest.test_case "linear" `Quick test_solve_linear;
          Alcotest.test_case "gm equation" `Quick test_solve_gm_equation;
          Alcotest.test_case "unbound" `Quick test_solve_unbound;
          Alcotest.test_case "system" `Quick test_solve_system;
          Alcotest.test_case "sensitivity" `Quick test_sensitivity;
        ] );
    ]
