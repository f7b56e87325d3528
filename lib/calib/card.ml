module Sexpr = Ape_util.Sexpr
module Units = Ape_util.Units

type region = Low | Mid | High | All

let region_name = function
  | Low -> "low"
  | Mid -> "mid"
  | High -> "high"
  | All -> "all"

let region_of_name s =
  match String.lowercase_ascii s with
  | "low" -> Some Low
  | "mid" -> Some Mid
  | "high" -> Some High
  | "all" -> Some All
  | _ -> None

let region_rank = function Low -> 0 | Mid -> 1 | High -> 2 | All -> 3

(* The paper's level-3 composition error concentrates where the design
   is pushed for speed: the input pair leaves square-law saturation and
   the single-pole UGF model under-predicts.  2π·UGF·C_L/I_bias — the
   inverse of the slew-limited overdrive the tail can support — is a
   dimensionally natural (1/V) pressure measure: Table 3's OpAmp1 sits
   at ~82, OpAmp4 at ~163, OpAmp2 at ~251, OpAmp3 at ~519. *)
let region_of ~ugf ~ibias ~cl =
  let pressure = 2. *. Float.pi *. ugf *. cl /. Float.max ibias 1e-30 in
  if pressure < 120. then Low else if pressure < 300. then Mid else High

type corr = { scale : float; bias : float }

let identity = { scale = 1.; bias = 0. }
let is_identity c = c.scale = 1. && c.bias = 0.
let correct c v = (c.scale *. v) +. c.bias

type entry = {
  level : string;
  attr : string;
  region : region;
  corr : corr;
  n : int;
  raw_err : float;
  cal_err : float;
}

type t = { version : int; process : string; entries : entry list }

let version = 1

exception Parse_error of { pos : Sexpr.pos option; msg : string }

let describe_error ~pos ~msg =
  match pos with
  | None -> Printf.sprintf "calibration card: %s" msg
  | Some p ->
    Printf.sprintf "calibration card: %d:%d: %s" p.Sexpr.line p.Sexpr.col msg

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

let find t ~level ~attr ~region =
  let matches r e =
    String.equal e.level level && String.equal e.attr attr && e.region = r
  in
  match List.find_opt (matches region) t.entries with
  | Some _ as e -> e
  | None when region <> All -> List.find_opt (matches All) t.entries
  | None -> None

let apply t ~level ~attr ~region v =
  match find t ~level ~attr ~region with
  | None -> v
  | Some e -> correct e.corr v

let is_identity_card t = List.for_all (fun e -> is_identity e.corr) t.entries

(* ------------------------------------------------------------------ *)
(* Canonical print                                                     *)
(* ------------------------------------------------------------------ *)

let compare_entries a b =
  let c = String.compare a.level b.level in
  if c <> 0 then c
  else
    let c = String.compare a.attr b.attr in
    if c <> 0 then c else compare (region_rank a.region) (region_rank b.region)

let sort_entries entries = List.sort compare_entries entries

let print t =
  let b = Buffer.create 512 in
  Buffer.add_string b "(calibration-card\n";
  Buffer.add_string b (Printf.sprintf " (version %d)\n" t.version);
  Buffer.add_string b (Printf.sprintf " (process %s)\n" t.process);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf
           " (fit (level %s) (attr %s) (region %s) (scale %s) (bias %s) (n \
            %d) (raw-err %s) (cal-err %s))\n"
           e.level e.attr (region_name e.region)
           (Units.to_exact e.corr.scale)
           (Units.to_exact e.corr.bias)
           e.n
           (Units.to_exact e.raw_err)
           (Units.to_exact e.cal_err)))
    (sort_entries t.entries);
  Buffer.add_string b ")\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)
(* ------------------------------------------------------------------ *)

let fail_at span msg =
  raise (Parse_error { pos = Some span.Sexpr.s_start; msg })

let fail_no_pos msg = raise (Parse_error { pos = None; msg })

let atom_of = function
  | Sexpr.Atom (a, _) -> a
  | Sexpr.List (_, s) -> fail_at s "expected an atom"

let number_of node =
  let a = atom_of node in
  match float_of_string_opt a with
  | Some v -> v
  | None -> (
    (* Hand-edited cards get the full SPICE suffix notation (1.5meg,
       10p); canonical prints round-trip through the exact branch. *)
    match Ape_symbolic.Parser.parse_number a with
    | Some v -> v
    | None ->
      fail_at (Sexpr.span_of node) (Printf.sprintf "unreadable number %S" a))

let int_of node =
  let a = atom_of node in
  match int_of_string_opt a with
  | Some v -> v
  | None ->
    fail_at (Sexpr.span_of node) (Printf.sprintf "unreadable integer %S" a)

let keyed = function
  | Sexpr.List (Sexpr.Atom (key, _) :: values, span) -> (key, values, span)
  | node -> fail_at (Sexpr.span_of node) "expected a (key value ...) list"

let one span = function
  | [ v ] -> v
  | _ -> fail_at span "expected exactly one value"

let parse_fit values span =
  let level = ref None
  and attr = ref None
  and region = ref None
  and scale = ref None
  and bias = ref None
  and n = ref 0
  and raw_err = ref 0.
  and cal_err = ref 0. in
  List.iter
    (fun node ->
      let key, vs, kspan = keyed node in
      let v () = one kspan vs in
      match key with
      | "level" -> level := Some (atom_of (v ()))
      | "attr" -> attr := Some (atom_of (v ()))
      | "region" -> (
        let node = v () in
        match region_of_name (atom_of node) with
        | Some r -> region := Some r
        | None ->
          fail_at (Sexpr.span_of node)
            "unknown region (expected low, mid, high or all)")
      | "scale" -> scale := Some (number_of (v ()))
      | "bias" -> bias := Some (number_of (v ()))
      | "n" -> n := int_of (v ())
      | "raw-err" -> raw_err := number_of (v ())
      | "cal-err" -> cal_err := number_of (v ())
      | other ->
        fail_at kspan (Printf.sprintf "unknown fit field %S" other))
    values;
  let req name = function
    | Some v -> v
    | None -> fail_at span (Printf.sprintf "fit entry is missing (%s ...)" name)
  in
  {
    level = req "level" !level;
    attr = req "attr" !attr;
    region = Option.value ~default:All !region;
    corr = { scale = req "scale" !scale; bias = req "bias" !bias };
    n = !n;
    raw_err = !raw_err;
    cal_err = !cal_err;
  }

let parse text =
  let nodes =
    try Sexpr.parse text
    with Sexpr.Error { pos; msg } -> raise (Parse_error { pos = Some pos; msg })
  in
  match nodes with
  | [ Sexpr.List (Sexpr.Atom ("calibration-card", _) :: fields, span) ] ->
    let ver = ref None and proc = ref None and entries = ref [] in
    List.iter
      (fun node ->
        let key, vs, kspan = keyed node in
        match key with
        | "version" -> ver := Some (int_of (one kspan vs))
        | "process" -> proc := Some (atom_of (one kspan vs))
        | "fit" -> entries := parse_fit vs kspan :: !entries
        | other ->
          fail_at kspan (Printf.sprintf "unknown card field %S" other))
      fields;
    let v =
      match !ver with
      | Some v -> v
      | None -> fail_at span "card is missing (version ...)"
    in
    if v <> version then
      fail_at span
        (Printf.sprintf "unsupported card version %d (this build reads %d)" v
           version);
    let p =
      match !proc with
      | Some p -> p
      | None -> fail_at span "card is missing (process ...)"
    in
    { version = v; process = p; entries = sort_entries (List.rev !entries) }
  | [ node ] ->
    fail_at (Sexpr.span_of node) "expected a (calibration-card ...) form"
  | [] -> fail_no_pos "empty calibration card"
  | _ :: node :: _ ->
    fail_at (Sexpr.span_of node) "expected a single (calibration-card ...) form"

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let load file = parse (Ape_util.File.read file)

let save file t =
  let oc = open_out file in
  output_string oc (print t);
  close_out oc
