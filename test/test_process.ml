(* Tests for Ape_process: model cards, built-in processes and .MODEL
   cards as the deck reader reads them. *)

module Card = Ape_process.Model_card
module Proc = Ape_process.Process
module Sp = Ape_circuit.Spice_parser
module F = Ape_util.Float_ext

let check_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.8g vs %.8g" msg expected actual)
    true
    (F.approx_equal ~rtol:tol ~atol:tol expected actual)

(* ---------- model cards ---------- *)

let test_default_cards () =
  let n = Card.default_nmos and p = Card.default_pmos in
  Alcotest.(check bool) "nmos polarity" true (Card.polarity n = 1.);
  Alcotest.(check bool) "pmos polarity" true (Card.polarity p = -1.);
  Alcotest.(check bool) "pmos vto negative" true (p.Card.vto < 0.);
  Alcotest.(check bool) "kp ordering" true (n.Card.kp > p.Card.kp);
  check_close "cox consistency kp = u0*cox" n.Card.kp
    (n.Card.u0 *. Card.cox n) ~tol:1e-6

let test_vth_body_effect () =
  let n = Card.default_nmos in
  let v0 = Card.vth n ~vsb:0. in
  check_close "zero-bias vth" (Float.abs n.Card.vto) v0 ~tol:1e-9;
  (* Monotonically increasing with vsb. *)
  let rec check_monotone prev = function
    | [] -> ()
    | vsb :: rest ->
      let v = Card.vth n ~vsb in
      Alcotest.(check bool)
        (Printf.sprintf "vth monotone at vsb=%g" vsb)
        true (v > prev);
      check_monotone v rest
  in
  check_monotone v0 [ 0.5; 1.0; 2.0; 3.0 ]

let test_lambda_scaling () =
  let n = Card.default_nmos in
  let l1 = Card.lambda_at n n.Card.lref in
  check_close "lambda at lref" n.Card.lambda l1;
  check_close "lambda halves at 2 lref" (n.Card.lambda /. 2.)
    (Card.lambda_at n (2. *. n.Card.lref));
  Alcotest.check_raises "bad length"
    (Invalid_argument "Model_card.lambda_at: l <= 0") (fun () ->
      ignore (Card.lambda_at n 0.))

(* ---------- processes ---------- *)

let test_builtin_processes () =
  let p12 = Proc.c12 and p08 = Proc.c08 in
  Alcotest.(check bool) "c12 lmin" true (p12.Proc.lmin = 1.2e-6);
  Alcotest.(check bool) "c08 shorter" true (p08.Proc.lmin < p12.Proc.lmin);
  Alcotest.(check bool) "c08 stronger kp" true
    (p08.Proc.nmos.Card.kp > p12.Proc.nmos.Card.kp);
  Alcotest.(check bool) "card selector" true
    (Proc.card p12 Card.Nmos == p12.Proc.nmos)

let test_passive_areas () =
  let p = Proc.c12 in
  let a10k = Proc.resistor_area p 10e3 in
  let a20k = Proc.resistor_area p 20e3 in
  check_close "resistor area linear" 2. (a20k /. a10k);
  let c1 = Proc.capacitor_area p 1e-12 in
  check_close "cap density" (1e-12 /. p.Proc.cap_density) c1;
  Alcotest.check_raises "negative resistor"
    (Invalid_argument "Process.resistor_area: negative") (fun () ->
      ignore (Proc.resistor_area p (-1.)))

(* ---------- card parser ---------- *)

(* A .MODEL card is read as every deck reads it: lexed once by the
   deck reader, its values handed to Card_parser.  The deck wraps the
   card lines with one MOSFET using model [name]. *)
let read_card ?(name = "TESTN") lines =
  let deck =
    Printf.sprintf "%s\nM1 d g 0 0 %s W=10u L=2u\nVD d 0 5\nVG g 0 1\n.end\n"
      lines name
  in
  let r = Sp.parse_result ~title:"card" deck in
  match Sp.errors r with
  | d :: _ -> Error (Sp.render_short d)
  | [] ->
    Ok
      (List.find_map
         (function
           | Ape_circuit.Netlist.Mosfet { card; _ } -> Some card | _ -> None)
         r.Sp.netlist.Ape_circuit.Netlist.elements
      |> Option.get)

let card_of ?name lines =
  match read_card ?name lines with
  | Ok card -> card
  | Error msg -> Alcotest.fail msg

let test_parse_card_basic () =
  let card =
    card_of
      ".MODEL TESTN NMOS (LEVEL=1 VTO=0.7 KP=80E-6 GAMMA=0.45 LAMBDA=0.04 \
       TOX=20N)"
  in
  Alcotest.(check string) "name" "TESTN" card.Card.name;
  Alcotest.(check bool) "type" true (card.Card.mos_type = Card.Nmos);
  check_close "vto" 0.7 card.Card.vto;
  check_close "kp" 80e-6 card.Card.kp;
  check_close "gamma" 0.45 card.Card.gamma;
  check_close "tox" 20e-9 card.Card.tox;
  (* KP given: u0 rederived against the card's cox. *)
  check_close "u0 consistent" card.Card.kp (card.Card.u0 *. Card.cox card)
    ~tol:1e-6

let test_parse_card_spaces_and_continuation () =
  let card =
    card_of ~name:"P1"
      ".MODEL P1 PMOS (LEVEL = 2 VTO = -0.8\n+ KP= 25U THETA =0.1)"
  in
  Alcotest.(check bool) "pmos" true (card.Card.mos_type = Card.Pmos);
  Alcotest.(check bool) "level 2" true (card.Card.level = Card.Level2);
  check_close "vto" (-0.8) card.Card.vto;
  check_close "kp suffix" 25e-6 card.Card.kp;
  check_close "theta" 0.1 card.Card.theta

let test_inline_comments_and_orphans () =
  (* '$'/';' open a comment only at a token boundary. *)
  let card =
    card_of ~name:"N1"
      ".MODEL N1 NMOS (VTO=0.7 $ trailing note\n+ KP=80U) ; tail"
  in
  check_close "vto" 0.7 card.Card.vto;
  check_close "kp" 80e-6 card.Card.kp;
  Alcotest.(check string)
    "'$' glued to a token is kept" "A$B"
    (card_of ~name:"A$B" ".MODEL A$B NMOS (VTO=1)").Card.name;
  (* a '+' line with nothing to continue is a hard error, not a card *)
  match read_card "+ KP=1" with
  | Error msg ->
    Alcotest.(check string) "orphan '+'"
      "card:1:1: error: continuation '+' with no preceding card" msg
  | Ok _ -> Alcotest.fail "expected an error for orphan '+'"

let test_parse_card_errors () =
  (* Each bad card is a spanned diagnostic; a bad value points at its
     own token. *)
  List.iter
    (fun (lines, expect) ->
      match read_card ~name:"X" lines with
      | Error msg -> Alcotest.(check string) lines expect msg
      | Ok _ -> Alcotest.fail ("expected an error for " ^ lines))
    [
      (".MODEL X", "card:1:1: error: .model expects a name and a device type");
      (".MODEL X NPN (VTO=1)", "card:1:1: error: unsupported device type NPN");
      (".MODEL X NMOS (LEVEL=9)", "card:1:1: error: unsupported LEVEL=9");
      ( ".MODEL X NMOS (VTO=abc)",
        "card:1:20: error: bad value for VTO: not a number: 'abc'" );
      ( ".MODEL X NMOS (KP=1e400)",
        "card:1:19: error: bad value for KP: number must be finite" );
    ]

let test_roundtrip () =
  let original = Card.default_nmos in
  let reparsed = card_of ~name:original.Card.name (Card.to_spice original) in
  check_close "vto roundtrip" original.Card.vto reparsed.Card.vto;
  check_close "kp roundtrip" original.Card.kp reparsed.Card.kp ~tol:1e-6;
  check_close "lambda roundtrip" original.Card.lambda reparsed.Card.lambda;
  check_close "cgso roundtrip" original.Card.cgso reparsed.Card.cgso;
  check_close "lref roundtrip" original.Card.lref reparsed.Card.lref

let test_corners () =
  let p = Proc.c12 in
  let slow = Proc.corner Proc.Slow p and fast = Proc.corner Proc.Fast p in
  Alcotest.(check bool) "slow weaker" true
    (slow.Proc.nmos.Card.kp < p.Proc.nmos.Card.kp);
  Alcotest.(check bool) "fast stronger" true
    (fast.Proc.nmos.Card.kp > p.Proc.nmos.Card.kp);
  Alcotest.(check bool) "slow raises |vto| nmos" true
    (slow.Proc.nmos.Card.vto > p.Proc.nmos.Card.vto);
  (* PMOS vto is negative: slow pushes it more negative. *)
  Alcotest.(check bool) "slow raises |vto| pmos" true
    (slow.Proc.pmos.Card.vto < p.Proc.pmos.Card.vto);
  Alcotest.(check bool) "typical is identity" true
    (Proc.corner Proc.Typical p == p);
  check_close "kp/u0 stay consistent" slow.Proc.nmos.Card.kp
    (slow.Proc.nmos.Card.u0 *. Card.cox slow.Proc.nmos) ~tol:1e-6

let prop_vth_nonnegative_shift =
  QCheck.Test.make ~name:"body effect never reduces vth" ~count:200
    (QCheck.float_range 0. 4.) (fun vsb ->
      Card.vth Card.default_nmos ~vsb
      >= Card.vth Card.default_nmos ~vsb:0. -. 1e-12)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_process"
    [
      ( "model-cards",
        [
          Alcotest.test_case "defaults" `Quick test_default_cards;
          Alcotest.test_case "body effect" `Quick test_vth_body_effect;
          Alcotest.test_case "lambda scaling" `Quick test_lambda_scaling;
        ] );
      ( "processes",
        [
          Alcotest.test_case "builtins" `Quick test_builtin_processes;
          Alcotest.test_case "passive areas" `Quick test_passive_areas;
          Alcotest.test_case "corners" `Quick test_corners;
        ] );
      ( "card-parser",
        [
          Alcotest.test_case "basic card" `Quick test_parse_card_basic;
          Alcotest.test_case "spaces/continuations" `Quick
            test_parse_card_spaces_and_continuation;
          Alcotest.test_case "inline comments/orphan '+'" `Quick
            test_inline_comments_and_orphans;
          Alcotest.test_case "errors" `Quick test_parse_card_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
        ] );
      qsuite "properties" [ prop_vth_nonnegative_shift ];
    ]
