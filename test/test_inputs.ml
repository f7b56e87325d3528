(* Every S-expression input (serve jobs, calibration grids and cards,
   VASE system specs) and .MODEL cards, read through their public
   readers: the malformed-input corpus, one file per input beside its
   one-line diagnostic, and QCheck mutations of the good inputs — the
   reader returns finite values or raises its format's typed error,
   nothing else. *)

module Job = Ape_serve.Job
module Grid = Ape_calib.Grid
module Card = Ape_calib.Card
module Fit = Ape_calib.Fit
module System = Ape_vase.System
module Sp = Ape_circuit.Spice_parser

let read_file path = In_channel.with_open_text path In_channel.input_all

(* ---------- readers: a value, or the typed error's one line ---------- *)

let read_jobs text =
  let results = Job.parse_batch text in
  match List.find_map (function Error e -> Some e | Ok _ -> None) results with
  | Some e -> Error (Job.error_to_string e)
  | None -> Ok (Obj.repr results)

let read_grid text =
  match Grid.parse_spec text with
  | spec -> Ok (Obj.repr spec)
  | exception Grid.Parse_error { pos; msg } ->
    Error (Grid.describe_error ~pos ~msg)

let read_card text =
  match Card.parse text with
  | card -> Ok (Obj.repr card)
  | exception Card.Parse_error { pos; msg } ->
    Error (Card.describe_error ~pos ~msg)

let read_system text =
  match System.parse text with
  | system -> Ok (Obj.repr system)
  | exception System.Spec_error { pos; msg } ->
    Error
      (Printf.sprintf "spec error: %d:%d: %s" pos.Ape_util.Sexpr.line
         pos.Ape_util.Sexpr.col msg)

let reader_of path =
  match Filename.extension path with
  | ".jobs" -> read_jobs
  | ".grid" -> read_grid
  | ".calib" -> read_card
  | ".scm" -> read_system
  | ext -> Alcotest.failf "%s: no reader for '%s' files" path ext

(* ---------- the malformed-input corpus ---------- *)

let test_corpus () =
  let dir = List.fold_left Filename.concat "golden" [ "inputs"; "bad" ] in
  let inputs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> not (Filename.check_suffix f ".expect"))
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length inputs >= 23);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let expect = read_file (Filename.remove_extension path ^ ".expect") in
      match (reader_of path) (read_file path) with
      | Ok _ -> Alcotest.failf "%s was accepted" f
      | Error line -> Alcotest.(check string) f (String.trim expect) line)
    inputs

(* ---------- mutations of the good inputs ---------- *)

(* Every float inside a read value, walked through its runtime
   representation so that no format needs a list of its numbers. *)
let rec all_finite (v : Obj.t) =
  if Obj.is_int v then true
  else
    let tag = Obj.tag v in
    if tag = Obj.double_tag then Float.is_finite (Obj.obj v : float)
    else if tag = Obj.double_array_tag then
      Array.for_all Float.is_finite (Obj.obj v : float array)
    else if tag < Obj.lazy_tag then
      List.for_all
        (fun i -> all_finite (Obj.field v i))
        (List.init (Obj.size v) Fun.id)
    else true

(* Lexemes: a parenthesis, an '=', a run of blanks or a run of anything
   else. *)
let lexemes s =
  let n = String.length s in
  let blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' in
  let single c = c = '(' || c = ')' || c = '=' in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let j = ref (i + 1) in
      if not (single s.[i]) then
        while
          !j < n
          && (not (single s.[!j]))
          && Bool.equal (blank s.[!j]) (blank s.[i])
        do
          incr j
        done;
      go !j (String.sub s i (!j - i) :: acc)
  in
  Array.of_list (go 0 [])

let indices p a =
  List.filter (fun i -> p a.(i)) (List.init (Array.length a) Fun.id)

let pick l k = List.nth l (k mod List.length l)

let replacements = [ "nan"; "inf"; "1e400"; "-1"; "2.5"; "\"\"" ]

(* One mutation [op] of [text]; [k] and [k'] choose where. *)
let mutate ~empty text op k k' =
  let a = lexemes text in
  let concat l = String.concat "" (Array.to_list l) in
  let solid = indices (fun x -> String.trim x <> "") a in
  match op with
  | 0 -> String.sub text 0 (k mod (String.length text + 1))
  | 1 when solid <> [] ->
    let i = pick solid k and j = pick solid k' in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    concat a
  | 2 -> (
    (* Duplicate a field: an innermost list, copied after itself. *)
    let innermost =
      List.filter_map
        (fun i ->
          let rec close j =
            if j >= Array.length a then None
            else if a.(j) = ")" then Some (i, j)
            else if a.(j) = "(" then None
            else close (j + 1)
          in
          close (i + 1))
        (indices (String.equal "(") a)
    in
    match innermost with
    | [] -> text
    | l ->
      let i, j = pick l k in
      let field = Array.sub a i (j - i + 1) in
      concat
        (Array.concat
           [ Array.sub a 0 (j + 1); [| " " |]; field;
             Array.sub a (j + 1) (Array.length a - j - 1) ]))
  | 3 -> (
    match indices (fun x -> x = "(" || x = ")") a with
    | [] -> text
    | l ->
      a.(pick l k) <- "";
      concat a)
  | _ -> (
    match indices (fun x -> Ape_util.Units.parse_number x <> None) a with
    | [] -> text
    | l ->
      let r = pick replacements k' in
      a.(pick l k) <- (if r = "\"\"" then empty else r);
      concat a)

let gen_mutant ?(empty = "\"\"") bases =
  QCheck.Gen.(
    let* base = oneofl bases in
    let* rounds = int_range 1 2 in
    let rec go text n =
      if n = 0 then return text
      else
        let* op = int_bound 4 in
        let* k = int_bound 100_000 in
        let* k' = int_bound 100_000 in
        go (mutate ~empty text op k k') (n - 1)
    in
    go base rounds)

(* The reader returns finite values or its typed error; any other
   exception escapes and fails the property. *)
let prop_reader name ?empty bases read =
  QCheck.Test.make ~name ~count:400
    (QCheck.make ~print:Fun.id (gen_mutant ?empty bases))
    (fun text ->
      match read text with
      | Error _ -> true
      | Ok v ->
        all_finite v
        || QCheck.Test.fail_reportf "a non-finite number was read from:\n%s"
             text)

let example_jobs () =
  let dir = Filename.concat (Filename.concat ".." "examples") "jobs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jobs")
  |> List.sort compare
  |> List.map (fun f -> read_file (Filename.concat dir f))

let full_grid =
  "(grid (points 9) (seed 3) (jobs 2) (av 60 600) (ugf 800k 14meg)\n\
  \      (ibias 0.6u 2.5u) (cl 5p 20p) (slew yes))"

let fitted_card () =
  let samples attr region law =
    List.map
      (fun x ->
        { Fit.s_level = "opamp"; s_attr = attr; s_region = region; s_est = x;
          s_sim = law x })
      [ 1.; 2.; 4.; 8.; 16. ]
  in
  Card.print
    (Fit.fit ~process:"c12"
       (samples "gain" Card.Low (fun x -> (1.37 *. x) -. 0.25)
       @ samples "ugf" Card.High (fun x -> 0.8 *. x)
       @ samples "cmrr" Card.Mid Fun.id))

(* The spec of examples/vase_flow.ml. *)
let vase_flow_spec =
  "(system audio_front_end\n\
  \  ;; anti-alias filter, then two gain stages\n\
  \  (chain\n\
  \    (lowpass (order 4) (fc 1k))\n\
  \    (amplifier (gain 40) (bandwidth 20k))\n\
  \    (amplifier (gain 2.5) (bandwidth 20k)))\n\
  \  (require (total_gain 100) (bandwidth 900) (power_max 50m)))"

(* .MODEL lines of the golden decks, each read as the deck reader
   reads it, with one MOSFET naming the card. *)
let model_lines () =
  let dir = Filename.concat "golden" "decks" in
  List.concat_map
    (fun sub ->
      let d = if sub = "" then dir else Filename.concat dir sub in
      Sys.readdir d |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> not (Sys.is_directory (Filename.concat d f)))
      |> List.concat_map (fun f ->
             String.split_on_char '\n' (read_file (Filename.concat d f))
             |> List.filter (Ape_util.Strings.starts_with_ci ~prefix:".model")))
    [ ""; "hier" ]

let read_model line =
  let name =
    match String.split_on_char ' ' line with _ :: name :: _ -> name | _ -> "X"
  in
  let r =
    Sp.parse_result ~title:"fuzz"
      (Printf.sprintf "%s\nM1 d g 0 0 %s W=10u L=2u\nVD d 0 5\nVG g 0 1\n.end\n"
         line name)
  in
  match Sp.errors r with
  | _ :: _ -> Error "diagnosed"
  | [] -> Ok (Obj.repr r.Sp.netlist)

let test_bases_read () =
  List.iter
    (fun (what, bases, read) ->
      Alcotest.(check bool) (what ^ " present") true (bases <> []);
      List.iter
        (fun text ->
          match read text with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: good input rejected: %s" what e)
        bases)
    [
      ("jobs", example_jobs (), read_jobs);
      ("grid", [ full_grid ], read_grid);
      ("card", [ fitted_card () ], read_card);
      ("vase", [ vase_flow_spec ], read_system);
      ("model", model_lines (), read_model);
    ]

let () =
  Alcotest.run "inputs"
    [
      ( "corpus",
        [
          Alcotest.test_case "malformed inputs: typed, spanned" `Quick
            test_corpus;
          Alcotest.test_case "good inputs read" `Quick test_bases_read;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_reader "job files" (example_jobs ()) read_jobs;
            prop_reader "grid spec" [ full_grid ] read_grid;
            prop_reader "calibration card" [ fitted_card () ] read_card;
            prop_reader "vase spec" [ vase_flow_spec ] read_system;
            prop_reader "model cards" ~empty:"" (model_lines ()) read_model;
          ] );
    ]
