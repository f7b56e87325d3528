module Sexpr = Ape_util.Sexpr

type opamp_spec = {
  gain : float;
  ugf : float;
  ibias : float;
  cl : float;
  bias : Ape_estimator.Bias.mirror_topology;
  zout : float option;
  buffer : bool;
}

type synth_mode = Wide_mode | Ape_mode
type sched = Quick | Full

type payload =
  | Estimate of opamp_spec
  | Synth of {
      spec : opamp_spec;
      mode : synth_mode;
      seed : int option;
      chains : int;
      schedule : sched;
      area : float option;
      calibration : string option;
    }
  | Mc of {
      spec : opamp_spec;
      samples : int;
      level : Ape_mc.Scenario.level;
      sigma_scale : float;
      seed : int option;
    }
  | Sim of { file : string; out : string option }
  | Verify of {
      levels : Ape_check.Tolerance.level list;
      slew : bool;
      calibration : string option;
    }

type t = { id : string; timeout : float option; payload : payload }

type error = {
  span : Sexpr.span option;
  msg : string;
  id : string option;
}

exception Reject of error

let reject ?id ?span msg = raise (Reject { span; msg; id })

let kind_name job =
  match job.payload with
  | Estimate _ -> "estimate"
  | Synth _ -> "synth"
  | Mc _ -> "mc"
  | Sim _ -> "sim"
  | Verify _ -> "verify"

(* FNV-1a over the id, folded to 30 bits: a job's default RNG seed is a
   pure function of its own name, so its stochastic results cannot
   depend on batch composition, batch order or --jobs. *)
let hash_id id =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    id;
  !h

let seed_of job =
  let explicit =
    match job.payload with
    | Synth { seed; _ } | Mc { seed; _ } -> seed
    | Estimate _ | Sim _ | Verify _ -> None
  in
  match explicit with Some s -> s | None -> hash_id job.id

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)
(* ------------------------------------------------------------------ *)

(* The fields of one (job ...) form, with every access tracked so
   unknown (misspelled) keys are rejected with their span. *)
type fields = {
  f_id : string option;
  entries : (string * (Sexpr.t list * Sexpr.span)) list;
  mutable seen : string list;
}

let field fields key =
  match List.assoc_opt key fields.entries with
  | None -> None
  | Some v ->
    if not (List.mem key fields.seen) then fields.seen <- key :: fields.seen;
    Some v

let collect_fields ~id_hint items =
  let entries =
    List.map
      (fun item ->
        match item with
        | Sexpr.List (Sexpr.Atom (key, _) :: args, span) ->
          (key, (args, span))
        | Sexpr.List (_, span) ->
          reject ?id:id_hint ~span "field must start with a keyword atom"
        | Sexpr.Atom (a, span) ->
          reject ?id:id_hint ~span
            (Printf.sprintf
               "bare atom '%s' (flags are written as lists, e.g. (buffer))"
               a))
      items
  in
  let rec dup_check = function
    | [] -> ()
    | (key, (_, span)) :: rest ->
      if List.mem_assoc key rest then
        reject ?id:id_hint ~span ("duplicate field '" ^ key ^ "'");
      dup_check rest
  in
  dup_check entries;
  { f_id = id_hint; entries; seen = [] }

let finish_fields fields =
  List.iter
    (fun (key, (_, span)) ->
      if not (List.mem key fields.seen) then
        reject ?id:fields.f_id ~span ("unknown field '" ^ key ^ "'"))
    fields.entries

let the_atom ?id span = function
  | [ Sexpr.Atom (a, _) ] -> a
  | _ -> reject ?id ~span "expected exactly one atom"

let number ?id span args =
  let a = the_atom ?id span args in
  match Ape_symbolic.Parser.parse_number a with
  | Some v when Float.is_finite v -> v
  | Some _ -> reject ?id ~span "number must be finite"
  | None -> reject ?id ~span (Printf.sprintf "not a number: '%s'" a)

let positive ?id span args =
  let v = number ?id span args in
  if v <= 0. then reject ?id ~span "number must be > 0";
  v

let integer ?id span args =
  let a = the_atom ?id span args in
  match int_of_string_opt a with
  | Some v -> v
  | None -> reject ?id ~span (Printf.sprintf "not an integer: '%s'" a)

let flag fields key =
  match field fields key with
  | None -> false
  | Some ([], _) -> true
  | Some (_, span) ->
    reject ?id:fields.f_id ~span ("(" ^ key ^ ") takes no arguments")

(* An optional field's value, read by [read] (positive, integer,
   the_atom). *)
let opt_field read fields key =
  match field fields key with
  | Some (args, span) -> Some (read ?id:fields.f_id span args)
  | None -> None

let num_field ?default fields key =
  match (opt_field positive fields key, default) with
  | Some v, _ | None, Some v -> v
  | None, None ->
    reject ?id:fields.f_id ("missing required field (" ^ key ^ " _)")

let int_field ~default fields key =
  Option.value ~default (opt_field integer fields key)

let enum_field ~default fields key choices =
  match field fields key with
  | None -> default
  | Some (args, span) -> (
    let a = the_atom ?id:fields.f_id span args in
    match List.assoc_opt a choices with
    | Some v -> v
    | None ->
      reject ?id:fields.f_id ~span
        (Printf.sprintf "unknown %s '%s' (expected %s)" key a
           (String.concat "|" (List.map fst choices))))

(* The names of every enumerated field, for parsing and printing. *)
let biases =
  Ape_estimator.Bias.
    [ ("simple", Simple); ("wilson", Wilson); ("cascode", Cascode) ]

let modes = [ ("ape", Ape_mode); ("wide", Wide_mode) ]
let schedules = [ ("quick", Quick); ("default", Full) ]
let mc_levels =
  List.map
    (fun l -> (Ape_mc.Scenario.level_name l, l))
    Ape_mc.Scenario.[ Estimate; Simulate ]
let name_in choices v = fst (List.find (fun (_, c) -> c = v) choices)

let opamp_of_fields fields =
  {
    gain = num_field fields "gain";
    ugf = num_field fields "ugf";
    ibias = num_field ~default:1e-6 fields "ibias";
    cl = num_field ~default:10e-12 fields "cl";
    bias = enum_field ~default:Ape_estimator.Bias.Simple fields "bias" biases;
    zout = opt_field positive fields "zout";
    buffer = flag fields "buffer";
  }

let parse_payload ~id fields kind kind_span =
  match kind with
  | "estimate" -> Estimate (opamp_of_fields fields)
  | "synth" ->
    let spec = opamp_of_fields fields in
    let mode = enum_field ~default:Ape_mode fields "mode" modes in
    let seed = opt_field integer fields "seed" in
    let chains = int_field ~default:1 fields "chains" in
    if chains < 1 then reject ~id "chains must be >= 1";
    let schedule = enum_field ~default:Full fields "schedule" schedules in
    let area = opt_field positive fields "area" in
    let calibration = opt_field the_atom fields "calibration" in
    Synth { spec; mode; seed; chains; schedule; area; calibration }
  | "mc" ->
    let spec = opamp_of_fields fields in
    let samples = int_field ~default:200 fields "samples" in
    if samples < 1 then reject ~id "samples must be >= 1";
    let level =
      enum_field ~default:Ape_mc.Scenario.Estimate fields "level" mc_levels
    in
    let sigma_scale = num_field ~default:1.0 fields "sigma-scale" in
    let seed = opt_field integer fields "seed" in
    Mc { spec; samples; level; sigma_scale; seed }
  | "sim" ->
    let file =
      match field fields "file" with
      | Some (args, span) -> the_atom ~id span args
      | None -> reject ~id "missing required field (file \"...\")"
    in
    Sim { file; out = opt_field the_atom fields "out" }
  | "verify" ->
    let levels =
      match field fields "levels" with
      | None -> []
      | Some (args, span) ->
        List.map
          (fun node ->
            match node with
            | Sexpr.Atom (a, aspan) -> (
              match Ape_check.Tolerance.level_of_name a with
              | Some level -> level
              | None ->
                reject ~id ~span:aspan
                  (Printf.sprintf "unknown level '%s' (expected %s)" a
                     (String.concat "|"
                        (List.map Ape_check.Tolerance.level_name
                           Ape_check.Tolerance.all_levels))))
            | Sexpr.List (_, lspan) ->
              reject ~id ~span:lspan "levels are atoms")
          (if args = [] then reject ~id ~span "empty (levels) list"
           else args)
    in
    let slew = not (flag fields "no-slew") in
    let calibration = opt_field the_atom fields "calibration" in
    Verify { levels; slew; calibration }
  | other ->
    reject ~id ~span:kind_span
      (Printf.sprintf
         "unknown job kind '%s' (estimate, synth, mc, sim, verify)" other)

let parse_form ~index form =
  match form with
  | Sexpr.Atom (_, span) | Sexpr.List ([], span) ->
    Error { span = Some span; msg = "expected a (job KIND ...) form"; id = None }
  | Sexpr.List (Sexpr.Atom ("job", _) :: rest, span) -> (
    match rest with
    | Sexpr.Atom (kind, kind_span) :: items -> (
      try
        (* Pull the id out first so every later error can carry it. *)
        let id_hint =
          List.find_map
            (function
              | Sexpr.List
                  ([ Sexpr.Atom ("id", _); Sexpr.Atom (v, _) ], _) ->
                Some v
              | _ -> None)
            items
        in
        let id =
          match id_hint with
          | Some v -> v
          | None -> Printf.sprintf "job%d" index
        in
        let fields = collect_fields ~id_hint:(Some id) items in
        (* Mark (id _) consumed; a malformed id field falls through to
           finish_fields as unknown-shaped content. *)
        (match field fields "id" with
        | Some ([ Sexpr.Atom _ ], _) | None -> ()
        | Some (_, span) -> reject ~id ~span "(id X) takes one atom");
        let timeout =
          match field fields "timeout" with
          | Some (args, tspan) -> Some (positive ~id tspan args)
          | None -> None
        in
        let payload = parse_payload ~id fields kind kind_span in
        finish_fields fields;
        Ok { id; timeout; payload }
      with Reject e ->
        Error { e with span = (match e.span with None -> Some span | s -> s) })
    | _ ->
      Error
        {
          span = Some span;
          msg = "missing job kind (estimate, synth, mc, sim, verify)";
          id = None;
        })
  | Sexpr.List (_, span) ->
    Error { span = Some span; msg = "expected a (job KIND ...) form"; id = None }

let parse_batch text =
  match Sexpr.parse text with
  | exception Sexpr.Error { pos; msg } ->
    [ Error { span = Some { Sexpr.s_start = pos; s_end = pos }; msg; id = None } ]
  | forms -> List.mapi (fun index form -> parse_form ~index form) forms

(* ------------------------------------------------------------------ *)
(* Canonical printing.                                                 *)
(* ------------------------------------------------------------------ *)

let bare_safe s =
  String.length s > 0
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' | '/' | '+'
           ->
           true
         | _ -> false)
       s

let print_atom s =
  if bare_safe s then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let num = Ape_util.Units.to_exact

let print_opamp spec =
  let base =
    [
      Printf.sprintf "(gain %s)" (num spec.gain);
      Printf.sprintf "(ugf %s)" (num spec.ugf);
      Printf.sprintf "(ibias %s)" (num spec.ibias);
      Printf.sprintf "(cl %s)" (num spec.cl);
      Printf.sprintf "(bias %s)"
        (name_in biases spec.bias);
    ]
  in
  base
  @ (match spec.zout with
    | Some z -> [ Printf.sprintf "(zout %s)" (num z) ]
    | None -> [])
  @ if spec.buffer then [ "(buffer)" ] else []

let print_calibration = function
  | Some c -> [ Printf.sprintf "(calibration %s)" (print_atom c) ]
  | None -> []

let print (job : t) =
  let common =
    Printf.sprintf "(id %s)" (print_atom job.id)
    ::
    (match job.timeout with
    | Some t -> [ Printf.sprintf "(timeout %s)" (num t) ]
    | None -> [])
  in
  let parts =
    match job.payload with
    | Estimate spec -> print_opamp spec
    | Synth { spec; mode; seed; chains; schedule; area; calibration } ->
      print_opamp spec
      @ [
          Printf.sprintf "(mode %s)" (name_in modes mode);
        ]
      @ (match seed with
        | Some s -> [ Printf.sprintf "(seed %d)" s ]
        | None -> [])
      @ [
          Printf.sprintf "(chains %d)" chains;
          Printf.sprintf "(schedule %s)" (name_in schedules schedule);
        ]
      @ (match area with
        | Some a -> [ Printf.sprintf "(area %s)" (num a) ]
        | None -> [])
      @ print_calibration calibration
    | Mc { spec; samples; level; sigma_scale; seed } ->
      print_opamp spec
      @ [
          Printf.sprintf "(samples %d)" samples;
          Printf.sprintf "(level %s)" (name_in mc_levels level);
          Printf.sprintf "(sigma-scale %s)" (num sigma_scale);
        ]
      @ (match seed with
        | Some s -> [ Printf.sprintf "(seed %d)" s ]
        | None -> [])
    | Sim { file; out } ->
      Printf.sprintf "(file %s)"
        (if bare_safe file then "\"" ^ file ^ "\"" else print_atom file)
      ::
      (match out with
      | Some o -> [ Printf.sprintf "(out %s)" (print_atom o) ]
      | None -> [])
    | Verify { levels; slew; calibration } ->
      (match levels with
      | [] -> []
      | ls ->
        [ "(levels "
          ^ String.concat " " (List.map Ape_check.Tolerance.level_name ls)
          ^ ")";
        ])
      @ (if slew then [] else [ "(no-slew)" ])
      @ print_calibration calibration
  in
  Printf.sprintf "(job %s %s)"
    (kind_name job)
    (String.concat " " (common @ parts))

let error_to_string e =
  let where =
    match e.span with
    | Some span -> Sexpr.pp_span span ^ ": "
    | None -> ""
  in
  let who = match e.id with Some id -> id ^ ": " | None -> "" in
  where ^ who ^ e.msg
