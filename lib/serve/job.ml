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
let check_levels =
  List.map
    (fun l -> (Ape_check.Tolerance.level_name l, l))
    Ape_check.Tolerance.all_levels
(* Check levels read case-insensitively, as [ape verify --level] does. *)
let check_level a =
  match Ape_check.Tolerance.level_of_name a with
  | Some l -> Ok l
  | None -> Sexpr.enum "level" check_levels a

let name_in choices v = fst (List.find (fun (_, c) -> c = v) choices)

let positive = Sexpr.read Sexpr.positive

let at_least name lo =
  Sexpr.read
    (Sexpr.satisfying
       (fun n -> n >= lo)
       (fun _ -> Printf.sprintf "%s must be >= %d" name lo)
       Sexpr.integer)

let opamp_of_fields fs =
  let gain = Sexpr.get fs "gain" positive in
  let ugf = Sexpr.get fs "ugf" positive in
  let ibias = Sexpr.get ~default:1e-6 fs "ibias" positive in
  let cl = Sexpr.get ~default:10e-12 fs "cl" positive in
  let bias =
    Sexpr.get ~default:Ape_estimator.Bias.Simple fs "bias"
      (Sexpr.read (Sexpr.enum "bias" biases))
  in
  let zout = Sexpr.opt fs "zout" positive in
  let buffer = Sexpr.flag fs "buffer" in
  { gain; ugf; ibias; cl; bias; zout; buffer }

let parse_payload fs kind kind_span =
  let seed () = Sexpr.opt fs "seed" (Sexpr.read Sexpr.integer) in
  match kind with
  | "estimate" -> Estimate (opamp_of_fields fs)
  | "synth" ->
    let spec = opamp_of_fields fs in
    let mode =
      Sexpr.get ~default:Ape_mode fs "mode"
        (Sexpr.read (Sexpr.enum "mode" modes))
    in
    let seed = seed () in
    let chains = Sexpr.get ~default:1 fs "chains" (at_least "chains" 1) in
    let schedule =
      Sexpr.get ~default:Full fs "schedule"
        (Sexpr.read (Sexpr.enum "schedule" schedules))
    in
    let area = Sexpr.opt fs "area" positive in
    let calibration = Sexpr.opt fs "calibration" Sexpr.atom in
    Synth { spec; mode; seed; chains; schedule; area; calibration }
  | "mc" ->
    let spec = opamp_of_fields fs in
    let samples = Sexpr.get ~default:200 fs "samples" (at_least "samples" 1) in
    let level =
      Sexpr.get ~default:Ape_mc.Scenario.Estimate fs "level"
        (Sexpr.read (Sexpr.enum "level" mc_levels))
    in
    let sigma_scale = Sexpr.get ~default:1.0 fs "sigma-scale" positive in
    Mc { spec; samples; level; sigma_scale; seed = seed () }
  | "sim" ->
    let file = Sexpr.get fs "file" Sexpr.atom in
    Sim { file; out = Sexpr.opt fs "out" Sexpr.atom }
  | "verify" ->
    let levels =
      match Sexpr.find fs "levels" with
      | None -> []
      | Some { args = []; span; _ } -> Sexpr.fail span "empty (levels) list"
      | Some { args; _ } ->
        List.map (Sexpr.read check_level) args
    in
    let slew = not (Sexpr.flag fs "no-slew") in
    let calibration = Sexpr.opt fs "calibration" Sexpr.atom in
    Verify { levels; slew; calibration }
  | other ->
    Sexpr.fail kind_span
      (Printf.sprintf
         "unknown job kind '%s' (estimate, synth, mc, sim, verify)" other)

let parse_form ~index form =
  let error ?id span msg = Error { span = Some span; msg; id } in
  match form with
  | Sexpr.List
      (Sexpr.Atom ("job", _) :: Sexpr.Atom (kind, kind_span) :: items, span)
    -> (
    (* Pull the id out first so every later error can carry it. *)
    let id =
      match
        List.find_map
          (function
            | Sexpr.List ([ Sexpr.Atom ("id", _); Sexpr.Atom (v, _) ], _) ->
              Some v
            | _ -> None)
          items
      with
      | Some v -> v
      | None -> Printf.sprintf "job%d" index
    in
    try
      let fs = Sexpr.fields ~whole:true span items in
      ignore (Sexpr.opt fs "id" Sexpr.atom);
      let timeout = Sexpr.opt fs "timeout" positive in
      let payload = parse_payload fs kind kind_span in
      Sexpr.finish fs;
      Ok { id; timeout; payload }
    with Sexpr.Error { span; msg } -> error ~id span msg)
  | Sexpr.List (Sexpr.Atom ("job", _) :: _, span) ->
    error span "missing job kind (estimate, synth, mc, sim, verify)"
  | Sexpr.Atom (_, span) | Sexpr.List (_, span) ->
    error span "expected a (job KIND ...) form"

let parse_batch text =
  match Sexpr.parse text with
  | exception Sexpr.Error { span; msg } ->
    [ Error { span = Some span; msg; id = None } ]
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
