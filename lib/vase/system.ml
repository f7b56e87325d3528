module E = Ape_estimator

type module_decl = { label : string; spec : E.Module_lib.spec }

type requirements = {
  total_gain : float option;
  bandwidth : float option;
  area_max : float option;
  power_max : float option;
}

type t = {
  name : string;
  chain : module_decl list;
  requirements : requirements;
}

module Sexpr = Ape_util.Sexpr

exception Spec_error of { pos : Sexpr.pos; msg : string }

let fail_at span msg = raise (Spec_error { pos = span.Sexpr.s_start; msg })

let number = function
  | Sexpr.Atom (a, span) -> (
    match Ape_symbolic.Parser.parse_number a with
    | Some v -> v
    | None -> fail_at span (Printf.sprintf "expected a number, got '%s'" a))
  | Sexpr.List (_, span) -> fail_at span "expected a number, got a list"

(* [assoc key items] finds [(key a b c)] among [items] and returns
   [[a; b; c]]. *)
let assoc key items =
  List.find_map
    (function
      | Sexpr.List (Sexpr.Atom (k, _) :: rest, _) when String.equal k key ->
        Some rest
      | Sexpr.List _ | Sexpr.Atom _ -> None)
    items

let assoc_number key items =
  match assoc key items with
  | Some [ v ] -> Some (number v)
  | Some _ | None -> None

let need_number ~span items key label =
  match assoc_number key items with
  | Some v -> v
  | None -> fail_at span (Printf.sprintf "%s: missing (%s <value>)" label key)

let parse_module idx = function
  | Sexpr.List (Sexpr.Atom (kind, kind_span) :: fields, span) -> (
    let label = Printf.sprintf "%s%d" kind (idx + 1) in
    let num key = need_number ~span fields key label in
    let opt key = assoc_number key fields in
    match kind with
    | "lowpass" ->
      {
        label;
        spec =
          E.Module_lib.Lowpass_m
            {
              E.Filter.order = int_of_float (num "order");
              f_cutoff = num "fc";
              r_base =
                Option.value ~default:1e6 (opt "r");
            };
      }
    | "bandpass" ->
      {
        label;
        spec =
          E.Module_lib.Bandpass_m
            {
              E.Filter.f_center = num "fc";
              q = Option.value ~default:1. (opt "q");
              gain = Option.value ~default:1.5 (opt "gain");
              c_base = Option.value ~default:10e-9 (opt "c");
            };
      }
    | "amplifier" ->
      {
        label;
        spec =
          E.Module_lib.Audio_amp
            { gain = num "gain"; bandwidth = num "bandwidth" };
      }
    | "sample_hold" ->
      {
        label;
        spec =
          E.Module_lib.Sample_hold_m
            (E.Sample_hold.spec ~gain:(Option.value ~default:1. (opt "gain"))
               ~bandwidth:(num "bandwidth")
               ~sr:(Option.value ~default:1e4 (opt "sr"))
               ());
      }
    | "adc" ->
      {
        label;
        spec =
          E.Module_lib.Flash_adc_m
            (E.Data_conv.Flash_adc.spec
               ~bits:(int_of_float (num "bits"))
               ~delay:(num "delay") ());
      }
    | "dac" ->
      {
        label;
        spec =
          E.Module_lib.Dac_m
            (E.Data_conv.Dac.spec
               ~bits:(int_of_float (num "bits"))
               ~settling:(num "settling") ());
      }
    | "integrator" ->
      {
        label;
        spec =
          E.Module_lib.Closed_loop_m
            (E.Closed_loop.spec
               ~bandwidth:(2. *. num "funity")
               (E.Closed_loop.Integrator { f_unity = num "funity" }));
      }
    | "comparator" ->
      {
        label;
        spec =
          E.Module_lib.Comparator_m
            (E.Data_conv.Comparator.spec ~delay:(num "delay") ());
      }
    | other -> fail_at kind_span ("unknown module kind " ^ other))
  | other ->
    fail_at (Sexpr.span_of other)
      "bad module declaration: expected (<kind> (<field> <value>) ...)"

let single_form = "expected a single (system <name> ...) form"

let parse text =
  match Sexpr.parse text with
  | exception Sexpr.Error { pos; msg } -> raise (Spec_error { pos; msg })
  | [ Sexpr.List (Sexpr.Atom ("system", _) :: Sexpr.Atom (name, _) :: body, span) ]
    ->
    let chain =
      match assoc "chain" body with
      | Some modules -> List.mapi parse_module modules
      | None -> fail_at span "missing (chain ...)"
    in
    let requirements =
      match assoc "require" body with
      | None ->
        {
          total_gain = None;
          bandwidth = None;
          area_max = None;
          power_max = None;
        }
      | Some fields ->
        {
          total_gain = assoc_number "total_gain" fields;
          bandwidth = assoc_number "bandwidth" fields;
          area_max = assoc_number "area_max" fields;
          power_max = assoc_number "power_max" fields;
        }
    in
    { name; chain; requirements }
  | [] -> raise (Spec_error { pos = { Sexpr.line = 1; col = 1 }; msg = single_form })
  | [ form ] | _ :: form :: _ -> fail_at (Sexpr.span_of form) single_form

type estimated = {
  system : t;
  designs : (string * E.Module_lib.design) list;
  gain_total : float;
  bandwidth_min : float;
  area_total : float;
  power_total : float;
  meets : (string * bool) list;
}

let estimate process system =
  let designs =
    List.map
      (fun decl -> (decl.label, E.Module_lib.design process decl.spec))
      system.chain
  in
  let perfs = List.map (fun (_, d) -> E.Module_lib.perf d) designs in
  let gain_total =
    List.fold_left
      (fun acc (p : E.Perf.t) ->
        match p.E.Perf.gain with
        | Some g -> acc *. Float.abs g
        | None -> acc)
      1. perfs
  in
  let bandwidth_min =
    List.fold_left
      (fun acc (p : E.Perf.t) ->
        match p.E.Perf.bandwidth with
        | Some b -> Float.min acc b
        | None -> acc)
      infinity perfs
  in
  let area_total =
    List.fold_left (fun acc (p : E.Perf.t) -> acc +. p.E.Perf.gate_area) 0. perfs
  in
  let power_total =
    List.fold_left (fun acc (p : E.Perf.t) -> acc +. p.E.Perf.dc_power) 0. perfs
  in
  let check name = function
    | None -> []
    | Some verdict -> [ (name, verdict) ]
  in
  let meets =
    check "total_gain"
      (Option.map (fun g -> gain_total >= g) system.requirements.total_gain)
    @ check "bandwidth"
        (Option.map
           (fun b -> bandwidth_min >= b)
           system.requirements.bandwidth)
    @ check "area_max"
        (Option.map (fun a -> area_total <= a) system.requirements.area_max)
    @ check "power_max"
        (Option.map (fun p -> power_total <= p) system.requirements.power_max)
  in
  { system; designs; gain_total; bandwidth_min; area_total; power_total; meets }

let plan_gain_chain process ~total_gain ~bandwidth ~stages =
  if stages < 1 then invalid_arg "System.plan_gain_chain";
  let stage_bw = Constraint_map.allocate_bandwidth ~total:bandwidth ~stages in
  let limit = Constraint_map.probe_stage_limit ~bandwidth:stage_bw process in
  Constraint_map.allocate_gain ~total:total_gain
    ~limits:(List.init stages (fun _ -> limit))
