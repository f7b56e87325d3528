(* Tests for Ape_circuit: netlist construction/validation, hierarchical
   instantiation, the builder and the SPICE netlist parser. *)

module N = Ape_circuit.Netlist
module B = Ape_circuit.Builder
module Sp = Ape_circuit.Spice_parser
module Proc = Ape_process.Process
module T = Ape_oracle.Support

let proc = Proc.c12

let divider () =
  let b = B.create ~title:"divider" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  B.resistor b ~a:"vdd" ~b:"mid" 1e3;
  B.resistor b ~a:"mid" ~b:"0" 1e3;
  B.finish b

(* ---------- construction & validation ---------- *)

let test_builder_names () =
  let nl = divider () in
  Alcotest.(check (list string))
    "element names"
    [ "V1"; "R1"; "R2" ]
    (List.map N.element_name (N.elements nl));
  Alcotest.(check (list string)) "nodes" [ "mid"; "vdd" ] (N.nodes nl)

let test_ground_aliases () =
  Alcotest.(check bool) "0" true (N.is_ground "0");
  Alcotest.(check bool) "gnd" true (N.is_ground "gnd");
  Alcotest.(check bool) "GND" true (N.is_ground "GND");
  Alcotest.(check bool) "vdd" false (N.is_ground "vdd")

let expect_invalid nl =
  match N.validate nl with
  | exception N.Invalid_netlist _ -> ()
  | () -> Alcotest.fail "expected Invalid_netlist"

let test_validate_duplicate () =
  expect_invalid
    (N.make ~title:"dup"
       [
         N.Resistor { name = "R1"; a = "a"; b = "0"; r = 1. };
         N.Resistor { name = "R1"; a = "a"; b = "0"; r = 2. };
       ])

let test_validate_no_ground () =
  expect_invalid
    (N.make ~title:"floating"
       [
         N.Resistor { name = "R1"; a = "a"; b = "b"; r = 1. };
         N.Resistor { name = "R2"; a = "b"; b = "a"; r = 1. };
       ])

let test_validate_dangling () =
  expect_invalid
    (N.make ~title:"dangling"
       [
         N.Resistor { name = "R1"; a = "a"; b = "0"; r = 1. };
         N.Resistor { name = "R2"; a = "a"; b = "loose"; r = 1. };
       ])

let test_validate_bad_values () =
  expect_invalid
    (N.make ~title:"bad r"
       [
         N.Resistor { name = "R1"; a = "a"; b = "0"; r = -5. };
         N.Resistor { name = "R2"; a = "a"; b = "0"; r = 5. };
       ])

let test_gate_area_and_counts () =
  let b = B.create ~title:"mos" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  T.nmos b proc ~d:"vdd" ~g:"vdd" ~s:"0" ~w:10e-6 ~l:2e-6;
  T.nmos b proc ~d:"vdd" ~g:"vdd" ~s:"0" ~w:20e-6 ~l:1e-6;
  let nl = B.finish b in
  Alcotest.(check int) "mosfets" 2 (N.mosfet_count nl);
  Alcotest.(check int) "devices" 3 (N.device_count nl);
  Alcotest.(check (float 1e-18)) "gate area" 40e-12 (N.gate_area nl)

(* ---------- instantiate / append / retarget ---------- *)

let test_instantiate () =
  let child = divider () in
  let spliced =
    N.instantiate ~prefix:"u1" ~port_map:[ ("vdd", "supply") ] child
  in
  let names = List.map N.element_name spliced in
  Alcotest.(check (list string))
    "prefixed names"
    [ "u1.V1"; "u1.R1"; "u1.R2" ]
    names;
  let all_nodes = N.nodes (N.make ~title:"spliced" spliced) in
  Alcotest.(check bool) "mapped port" true (List.mem "supply" all_nodes);
  Alcotest.(check bool) "internal prefixed" true (List.mem "u1.mid" all_nodes);
  Alcotest.(check bool) "ground untouched" true
    (List.exists
       (function N.Resistor { b; _ } -> N.is_ground b | _ -> false)
       spliced);
  Alcotest.(check bool) "old name gone" false (List.mem "vdd" all_nodes)

let test_merge_append () =
  let a = divider () in
  let extra = [ N.Capacitor { name = "C9"; a = "mid"; b = "0"; c = 1e-12 } ] in
  let nl = N.append a extra in
  Alcotest.(check int) "appended" 4 (N.device_count nl)

let test_retarget_process () =
  let b = B.create ~title:"mos" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  T.nmos b proc ~d:"vdd" ~g:"vdd" ~s:"0" ~w:10e-6 ~l:2e-6;
  T.pmos b proc ~d:"vdd" ~g:"vdd" ~s:"0" ~vdd_node:"vdd" ~w:10e-6 ~l:2e-6;
  let nl = B.finish b in
  let p08 = Ape_process.Process.c08 in
  let retargeted = N.retarget_process p08 nl in
  List.iter
    (fun e ->
      match e with
      | N.Mosfet { card; geom; _ } ->
        (match card.Ape_process.Model_card.mos_type with
        | Ape_process.Model_card.Nmos ->
          Alcotest.(check string) "nmos card swapped" "CMOSN08"
            card.Ape_process.Model_card.name
        | Ape_process.Model_card.Pmos ->
          Alcotest.(check string) "pmos card swapped" "CMOSP08"
            card.Ape_process.Model_card.name);
        Alcotest.(check (float 1e-12)) "geometry untouched" 10e-6
          geom.Ape_device.Mos.w
      | _ -> ())
    (N.elements retargeted)

(* ---------- SPICE output / parser ---------- *)

let test_to_spice_contains_model () =
  let b = B.create ~title:"tb" in
  B.vsource b ~p:"vdd" ~n:"0" 5.;
  T.nmos b proc ~d:"vdd" ~g:"vdd" ~s:"0" ~w:10e-6 ~l:2e-6;
  let s = N.to_spice (B.finish b) in
  Alcotest.(check bool) "has .MODEL" true (String.starts_with ~prefix:"* tb" s);
  Alcotest.(check bool) "model card present" true
    (String.length s > 0
    && String.split_on_char '\n' s
       |> List.exists (fun line ->
              String.starts_with ~prefix:".model" (String.lowercase_ascii line)))

let sample_netlist =
  "* common source amplifier\n\
   .MODEL MYN NMOS (VTO=0.7 KP=80U LAMBDA=0.04)\n\
   VDD vdd 0 DC 5\n\
   VIN in 0 DC 1.1 AC 1\n\
   RL vdd out 50k\n\
   M1 out in 0 0 MYN W=20u L=2.4u\n\
   CL out 0 1p\n\
   .END\n"

let test_parse_netlist () =
  let nl = T.parse ~title:"cs" sample_netlist in
  Alcotest.(check int) "element count" 5 (N.device_count nl);
  Alcotest.(check int) "one mosfet" 1 (N.mosfet_count nl);
  let m =
    List.find
      (fun e -> match e with N.Mosfet _ -> true | _ -> false)
      (N.elements nl)
  in
  (match m with
  | N.Mosfet { card; geom; _ } ->
    Alcotest.(check string) "model resolved" "MYN" card.Ape_process.Model_card.name;
    Alcotest.(check (float 1e-12)) "width" 20e-6 geom.Ape_device.Mos.w
  | _ -> Alcotest.fail "expected mosfet")

let test_parse_builtin_models () =
  let nl =
    T.parse ~title:"builtin"
      "VDD vdd 0 5\nM1 vdd vdd 0 0 NMOS W=10u L=2u\n"
  in
  Alcotest.(check int) "parsed" 2 (N.device_count nl)

let test_parse_sources () =
  let nl =
    T.parse ~title:"src"
      "V1 a 0 DC 2.5 AC 1\nI1 a 0 DC 10u\nR1 a 0 1k\n"
  in
  List.iter
    (fun e ->
      match e with
      | N.Vsource { dc; ac; _ } ->
        Alcotest.(check (float 1e-9)) "v dc" 2.5 dc;
        Alcotest.(check (float 1e-9)) "v ac" 1. ac
      | N.Isource { dc; _ } -> Alcotest.(check (float 1e-12)) "i dc" 10e-6 dc
      | _ -> ())
    (N.elements nl)

let test_parse_switch_and_vcvs () =
  let nl =
    T.parse ~title:"misc"
      "V1 a 0 5\n\
       W1 a b ctrl RON=500 ROFF=1G VT=2.0\n\
       E1 b 0 a 0 10\n\
       V2 ctrl 0 5\n\
       R1 b 0 1k\n"
  in
  Alcotest.(check int) "count" 5 (N.device_count nl);
  List.iter
    (fun e ->
      match e with
      | N.Switch { ron; vthreshold; _ } ->
        Alcotest.(check (float 1e-9)) "ron" 500. ron;
        Alcotest.(check (float 1e-9)) "vt" 2.0 vthreshold
      | N.Vcvs { gain; _ } -> Alcotest.(check (float 1e-9)) "gain" 10. gain
      | _ -> ())
    (N.elements nl)

let test_parse_errors () =
  let expect_bad s =
    match T.parse ~title:"bad" s with
    | exception T.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected Parse_error for: " ^ s)
  in
  expect_bad "M1 d g s b NOSUCHMODEL W=1u L=1u\nV1 d 0 5\n";
  expect_bad "R1 a 0\nV1 a 0 5\n";
  expect_bad "M1 d g s 0 NMOS L=1u\nV1 d 0 5\nR1 g 0 1k\nR2 s 0 1k\n";
  expect_bad "Q1 a b c\nV1 a 0 5\n"

let test_parse_roundtrip () =
  (* to_spice output must be parseable and structurally identical. *)
  let b = B.create ~title:"rt" in
  B.vsource b ~p:"vdd" ~n:"0" ~ac:1. 5.;
  T.nmos b proc ~d:"out" ~g:"vdd" ~s:"0" ~w:12e-6 ~l:3.6e-6;
  B.resistor b ~a:"vdd" ~b:"out" 10e3;
  B.capacitor b ~a:"out" ~b:"0" 2e-12;
  let nl = B.finish b in
  let reparsed = T.parse ~title:"rt" (N.to_spice nl) in
  Alcotest.(check int) "same element count" (N.device_count nl)
    (N.device_count reparsed);
  Alcotest.(check int) "same mosfets" (N.mosfet_count nl)
    (N.mosfet_count reparsed);
  Alcotest.(check (float 1e-18)) "same gate area" (N.gate_area nl)
    (N.gate_area reparsed)

let golden_decks () =
  let dir = Filename.concat "golden" "decks" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sp")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat dir f)

let test_golden_deck_roundtrip () =
  (* For every checked-in deck: parse -> print -> re-parse -> re-print
     must reach a byte-identical fixpoint (exact float printing), and
     the two parses must agree structurally. *)
  let decks = golden_decks () in
  Alcotest.(check bool) "golden decks present" true (List.length decks >= 4);
  List.iter
    (fun file ->
      let text = In_channel.with_open_text file In_channel.input_all in
      let nl1 = T.parse ~title:file text in
      let printed1 = N.to_spice nl1 in
      let nl2 = T.parse ~title:file printed1 in
      let printed2 = N.to_spice nl2 in
      Alcotest.(check string) (file ^ ": print/parse fixpoint") printed1
        printed2;
      Alcotest.(check bool)
        (file ^ ": identical elements")
        true
        (N.elements nl1 = N.elements nl2))
    decks

(* ---------- ingestion front end ---------- *)

module Tk = Ape_circuit.Token

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let find_element nl name =
  List.find_opt (fun e -> N.element_name e = name) (N.elements nl)

let resistance nl name =
  match find_element nl name with
  | Some (N.Resistor { r; _ }) -> r
  | _ -> Alcotest.fail ("no resistor " ^ name)

let test_inline_comment_dialects () =
  let deck = "V1 a 0 5 $ supply\nR1 a 0 1k ; load\n.END\n" in
  let nl = T.parse ~title:"ng" deck in
  Alcotest.(check int) "ngspice strips $ and ;" 2 (N.device_count nl);
  (* hspice: '$' comments, ';' does not *)
  let r = Sp.parse_result ~dialect:Sp.Hspice ~title:"hs" deck in
  Alcotest.(check bool) "hspice rejects ';' tail" true (Sp.errors r <> []);
  (* spice2: neither *)
  let r = Sp.parse_result ~dialect:Sp.Spice2 ~title:"s2" deck in
  Alcotest.(check bool) "spice2 rejects '$' tail" true (Sp.errors r <> [])

let test_orphan_continuation () =
  let r = Sp.parse_result ~title:"o" "+ R1 a b 1k\nV1 a 0 5\nR1 a 0 1k\n" in
  match Sp.errors r with
  | [ d ] ->
    Alcotest.(check bool) "message" true (contains d.Sp.msg "continuation");
    Alcotest.(check int) "line" 1 d.Sp.span.Tk.first.Tk.line
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 error, got %d" (List.length ds))

let test_source_value_clauses () =
  (* A bare value after an explicit DC/AC clause is an error: it used
     to silently overwrite the DC value. *)
  (match T.parse ~title:"bad" "V1 1 0 DC 0 5\nR1 1 0 1k\n" with
  | exception T.Parse_error d ->
    Alcotest.(check bool) "points at 5" true (contains d.Sp.msg "trailing")
  | _ -> Alcotest.fail "expected Parse_error for 'DC 0 5'");
  (* ...but a leading bare value with a later AC clause is fine. *)
  let nl = T.parse ~title:"ok" "V1 1 0 5 AC 1\nR1 1 0 1k\n" in
  (match find_element nl "V1" with
  | Some (N.Vsource { dc; ac; _ }) ->
    Alcotest.(check (float 0.)) "dc" 5. dc;
    Alcotest.(check (float 0.)) "ac" 1. ac
  | _ -> Alcotest.fail "no V1");
  (* clause order doesn't matter *)
  let nl = T.parse ~title:"ok2" "V1 1 0 AC 1 DC 2\nR1 1 0 1k\n" in
  match find_element nl "V1" with
  | Some (N.Vsource { dc; ac; _ }) ->
    Alcotest.(check (float 0.)) "dc" 2. dc;
    Alcotest.(check (float 0.)) "ac" 1. ac
  | _ -> Alcotest.fail "no V1"

let test_equals_whitespace_and_multiplier () =
  let nl =
    T.parse ~title:"eq"
      "V1 d 0 5\nR1 g 0 1k\nM1 d g 0 0 NMOS W = 4e-6 L =2e-6 M= 2\n"
  in
  match find_element nl "M1" with
  | Some (N.Mosfet { geom; m; _ }) ->
    Alcotest.(check (float 0.)) "w" 4e-6 geom.Ape_device.Mos.w;
    Alcotest.(check (float 0.)) "l" 2e-6 geom.Ape_device.Mos.l;
    Alcotest.(check (float 0.)) "m" 2. m;
    (* the multiplier scales the effective gate area... *)
    Alcotest.(check (float 1e-24)) "gate area" (2. *. 4e-6 *. 2e-6)
      (N.gate_area nl);
    (* ...and survives printing and re-parsing *)
    let nl2 = T.parse ~title:"eq" (N.to_spice nl) in
    (match find_element nl2 "M1" with
    | Some (N.Mosfet { m; _ }) -> Alcotest.(check (float 0.)) "m reparsed" 2. m
    | _ -> Alcotest.fail "no M1 after roundtrip")
  | _ -> Alcotest.fail "no M1"

let test_subckt_flatten () =
  let nl =
    T.parse ~title:"sub"
      ".SUBCKT div a b\n\
       R1 a mid 1k\n\
       R2 mid b 1k\n\
       .ENDS\n\
       V1 in 0 5\n\
       X1 in 0 div\n"
  in
  Alcotest.(check (list string))
    "flattened names (device letter first)"
    [ "V1"; "R.X1.R1"; "R.X1.R2" ]
    (List.map N.element_name (N.elements nl));
  (match find_element nl "R.X1.R1" with
  | Some (N.Resistor { a; b; _ }) ->
    Alcotest.(check string) "port mapped" "in" a;
    Alcotest.(check string) "internal node renamed" "X1.mid" b
  | _ -> Alcotest.fail "no R.X1.R1");
  match find_element nl "R.X1.R2" with
  | Some (N.Resistor { a; b; _ }) ->
    Alcotest.(check string) "internal node" "X1.mid" a;
    Alcotest.(check string) "ground stays ground" "0" b
  | _ -> Alcotest.fail "no R.X1.R2"

let test_subckt_params () =
  let nl =
    T.parse ~title:"p"
      ".PARAM base=1k\n\
       .SUBCKT dv a rtop={2*base} rbot=500\n\
       R1 a m {rtop}\n\
       R2 m 0 {rbot}\n\
       .ENDS\n\
       V1 t 0 5\n\
       X1 t dv rtop=3k\n\
       X2 t dv\n"
  in
  Alcotest.(check (float 0.)) "override" 3e3 (resistance nl "R.X1.R1");
  Alcotest.(check (float 0.)) "default kept" 500. (resistance nl "R.X1.R2");
  Alcotest.(check (float 0.)) "default expr" (2. *. 1e3)
    (resistance nl "R.X2.R1")

let test_nested_subckt () =
  let nl =
    T.parse ~title:"n"
      ".SUBCKT inner a\n\
       R1 a 0 1k\n\
       .ENDS\n\
       .SUBCKT outer b\n\
       X1 b inner\n\
       R2 b 0 2k\n\
       .ENDS\n\
       V1 t 0 5\n\
       X9 t outer\n"
  in
  Alcotest.(check (list string))
    "two-level flattening"
    [ "V1"; "R.X9.X1.R1"; "R.X9.R2" ]
    (List.map N.element_name (N.elements nl))

let test_hier_golden_differential () =
  (* The hand-flattened deck and the hierarchical one must parse to
     structurally identical netlists (same elements, same order, same
     bit-exact values). *)
  let dir = List.fold_left Filename.concat "golden" [ "decks"; "hier" ] in
  let parse f =
    let path = Filename.concat dir f in
    T.parse ~path ~title:""
      (In_channel.with_open_text path In_channel.input_all)
  in
  let hier = parse "two_stage.sp" and flat = parse "two_stage_flat.sp" in
  Alcotest.(check bool) "identical elements" true
    (N.elements hier = N.elements flat);
  Alcotest.(check (list string)) "identical nodes" (N.nodes flat)
    (N.nodes hier)

let test_include_cycle () =
  let a = Filename.temp_file "ape_inc_a" ".sp" in
  let b = Filename.temp_file "ape_inc_b" ".sp" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove a;
      Sys.remove b)
    (fun () ->
      Out_channel.with_open_text a (fun oc ->
          Printf.fprintf oc ".include %s\nV1 x 0 5\nR1 x 0 1k\n" b);
      Out_channel.with_open_text b (fun oc ->
          Printf.fprintf oc ".include %s\n" a);
      let r =
        Sp.parse_result ~path:a ~title:""
          (In_channel.with_open_text a In_channel.input_all)
      in
      Alcotest.(check bool) "cycle reported" true
        (List.exists (fun d -> contains d.Sp.msg "circular") (Sp.errors r));
      (* recovery: the rest of the deck still parsed *)
      Alcotest.(check int) "elements kept" 2
        (N.device_count r.Sp.netlist))

let test_missing_include () =
  let r =
    Sp.parse_result ~title:"" ".include /nonexistent/deck.sp\nV1 a 0 5\nR1 a 0 1k\n"
  in
  Alcotest.(check bool) "reported" true
    (List.exists (fun d -> contains d.Sp.msg "cannot read") (Sp.errors r))

let test_analyses_and_title () =
  let r =
    Sp.parse_result ~title:"x"
      ".TITLE hello\nV1 a 0 5\nR1 a 0 1k\n.OP\n.AC DEC 10 1 1meg\n.END\n"
  in
  Alcotest.(check int) "clean" 0 (List.length r.Sp.diagnostics);
  Alcotest.(check (list string)) "analyses recorded" [ "op"; "ac" ]
    (List.map (fun d -> d.Sp.d_name) r.Sp.analyses);
  Alcotest.(check (list string)) "ac args verbatim" [ "DEC"; "10"; "1"; "1meg" ]
    (List.nth r.Sp.analyses 1).Sp.d_args;
  Alcotest.(check string) ".TITLE wins" "hello" r.Sp.netlist.N.title;
  (* canonical output is a fixpoint of convert *)
  let c1 = Sp.to_canonical r in
  let c2 = Sp.to_canonical (Sp.parse_result ~title:"" c1) in
  Alcotest.(check string) "canonical fixpoint" c1 c2

let test_warnings_not_errors () =
  let r =
    Sp.parse_result ~title:"w"
      "V1 a 0 5\nR1 a 0 1k\nM1 a a 0 0 NMOS W=1u L=1u AD=2p\n.OPTIONS \
       reltol=1e-4\n.END\n"
  in
  Alcotest.(check int) "no errors" 0 (List.length (Sp.errors r));
  Alcotest.(check int) "warnings recorded" 2 (List.length (Sp.warnings r))

let test_diag_spans () =
  (* Spans survive continuation joining: the bad token sits on the
     '+' line and the diagnostic must point there. *)
  let r = Sp.parse_result ~title:"s" "V1 a 0 5\nR1 a 0\n+ oops\n" in
  match Sp.errors r with
  | [ d ] ->
    Alcotest.(check int) "line" 3 d.Sp.span.Tk.first.Tk.line;
    Alcotest.(check int) "col" 3 d.Sp.span.Tk.first.Tk.col;
    Alcotest.(check (option string)) "source quoted" (Some "+ oops") d.Sp.source
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 error, got %d" (List.length ds))

let test_bad_corpus () =
  (* Every malformed deck must fail with exactly the frozen
     diagnostics: file, span, caret position and message. *)
  let dir = List.fold_left Filename.concat "golden" [ "decks"; "bad" ] in
  let decks =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sp")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length decks >= 8);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let r =
        Sp.parse_result ~path ~title:""
          (In_channel.with_open_text path In_channel.input_all)
      in
      Alcotest.(check bool) (f ^ ": has errors") true (Sp.errors r <> []);
      let rendered = String.concat "" (List.map Sp.render r.Sp.diagnostics) in
      let expect =
        In_channel.with_open_text
          (Filename.concat dir (Filename.chop_suffix f ".sp" ^ ".expect"))
          In_channel.input_all
      in
      Alcotest.(check string) (f ^ ": exact diagnostics") expect rendered)
    decks

let prop_print_parse_print_fixpoint =
  QCheck.Test.make ~name:"print→parse→print fixpoint" ~count:100
    QCheck.(
      triple (float_range 0.5 9.5e8) (float_range 1e-15 1e-6) (int_range 1 6))
    (fun (r, c, n) ->
      let b = B.create ~title:"qc" in
      B.vsource b ~p:"n0" ~n:"0" ~ac:1. 5.;
      for i = 1 to n do
        B.resistor b
          ~a:(Printf.sprintf "n%d" (i - 1))
          ~b:(Printf.sprintf "n%d" i)
          (r *. float_of_int i);
        B.capacitor b ~a:(Printf.sprintf "n%d" i) ~b:"0" c
      done;
      let nl = B.finish b in
      let p1 = N.to_spice nl in
      let p2 = N.to_spice (T.parse ~title:"qc" p1) in
      p1 = p2)

let prop_instantiate_preserves_count =
  QCheck.Test.make ~name:"instantiate preserves element count" ~count:50
    QCheck.(string_gen_of_size (Gen.return 3) Gen.printable)
    (fun prefix ->
      QCheck.assume
        (String.length prefix > 0
        && String.for_all
             (fun c ->
               (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
             prefix);
      let child = divider () in
      List.length (N.instantiate ~prefix ~port_map:[] child)
      = N.device_count child)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_circuit"
    [
      ( "netlist",
        [
          Alcotest.test_case "builder names" `Quick test_builder_names;
          Alcotest.test_case "ground aliases" `Quick test_ground_aliases;
          Alcotest.test_case "counts/area" `Quick test_gate_area_and_counts;
          Alcotest.test_case "merge/append" `Quick test_merge_append;
        ] );
      ( "validation",
        [
          Alcotest.test_case "duplicate names" `Quick test_validate_duplicate;
          Alcotest.test_case "no ground" `Quick test_validate_no_ground;
          Alcotest.test_case "dangling node" `Quick test_validate_dangling;
          Alcotest.test_case "bad values" `Quick test_validate_bad_values;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "instantiate" `Quick test_instantiate;
          Alcotest.test_case "retarget process" `Quick test_retarget_process;
        ] );
      qsuite "hierarchy-properties" [ prop_instantiate_preserves_count ];
      ( "spice-io",
        [
          Alcotest.test_case "to_spice" `Quick test_to_spice_contains_model;
          Alcotest.test_case "parse netlist" `Quick test_parse_netlist;
          Alcotest.test_case "builtin models" `Quick test_parse_builtin_models;
          Alcotest.test_case "sources" `Quick test_parse_sources;
          Alcotest.test_case "switch/vcvs" `Quick test_parse_switch_and_vcvs;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "golden deck roundtrips" `Quick
            test_golden_deck_roundtrip;
        ] );
      ( "ingestion",
        [
          Alcotest.test_case "inline comment dialects" `Quick
            test_inline_comment_dialects;
          Alcotest.test_case "orphan continuation" `Quick
            test_orphan_continuation;
          Alcotest.test_case "source value clauses" `Quick
            test_source_value_clauses;
          Alcotest.test_case "spaced '=' and M=" `Quick
            test_equals_whitespace_and_multiplier;
          Alcotest.test_case "subckt flattening" `Quick test_subckt_flatten;
          Alcotest.test_case "subckt parameters" `Quick test_subckt_params;
          Alcotest.test_case "nested subckt" `Quick test_nested_subckt;
          Alcotest.test_case "hier/flat differential" `Quick
            test_hier_golden_differential;
          Alcotest.test_case "include cycle" `Quick test_include_cycle;
          Alcotest.test_case "missing include" `Quick test_missing_include;
          Alcotest.test_case "analyses/title" `Quick test_analyses_and_title;
          Alcotest.test_case "warnings stay warnings" `Quick
            test_warnings_not_errors;
          Alcotest.test_case "diagnostic spans" `Quick test_diag_spans;
          Alcotest.test_case "malformed corpus" `Quick test_bad_corpus;
        ] );
      qsuite "ingestion-properties" [ prop_print_parse_print_fixpoint ];
    ]
