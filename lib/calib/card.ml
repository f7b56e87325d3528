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

let number = Sexpr.read Sexpr.finite

let region_rule a =
  Option.to_result ~none:"unknown region (expected low, mid, high or all)"
    (region_of_name a)

let parse_fit (fit : Sexpr.field) =
  let fs = Sexpr.fields fit.span fit.args in
  let level = Sexpr.get fs "level" Sexpr.atom in
  let attr = Sexpr.get fs "attr" Sexpr.atom in
  let region = Sexpr.get ~default:All fs "region" (Sexpr.read region_rule) in
  let scale = Sexpr.get fs "scale" number in
  let bias = Sexpr.get fs "bias" number in
  let n = Sexpr.get ~default:0 fs "n" (Sexpr.read Sexpr.integer) in
  let raw_err = Sexpr.get ~default:0. fs "raw-err" number in
  let cal_err = Sexpr.get ~default:0. fs "cal-err" number in
  Sexpr.finish fs;
  { level; attr; region; corr = { scale; bias }; n; raw_err; cal_err }

let parse text =
  try
    match Sexpr.parse text with
    | [ Sexpr.List (Sexpr.Atom ("calibration-card", _) :: items, span) ] ->
      let fs = Sexpr.fields ~repeatable:[ "fit" ] span items in
      let v = Sexpr.get fs "version" (Sexpr.read Sexpr.integer) in
      if v <> version then
        Sexpr.fail span
          (Printf.sprintf "unsupported card version %d (this build reads %d)"
             v version);
      let process = Sexpr.get fs "process" Sexpr.atom in
      let entries = List.map parse_fit (Sexpr.all fs "fit") in
      Sexpr.finish fs;
      { version = v; process; entries = sort_entries entries }
    | [ node ] ->
      Sexpr.fail (Sexpr.span_of node) "expected a (calibration-card ...) form"
    | [] -> raise (Parse_error { pos = None; msg = "empty calibration card" })
    | _ :: node :: _ ->
      Sexpr.fail (Sexpr.span_of node)
        "expected a single (calibration-card ...) form"
  with Sexpr.Error { span; msg } ->
    raise (Parse_error { pos = Some span.Sexpr.s_start; msg })

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let load file = parse (Ape_util.File.read file)

let save file t =
  let oc = open_out file in
  output_string oc (print t);
  close_out oc
