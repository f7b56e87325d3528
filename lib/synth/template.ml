module N = Ape_circuit.Netlist
module I = Ape_util.Interval

type target =
  | Mos_width of string list
  | Mos_length of string list
  | Cap_value of string list
  | Res_value of string list

type param = { name : string; target : target; range : I.t; log_scale : bool }

let param ?(log_scale = true) ~name ~range target =
  if log_scale && I.lo range <= 0. then
    invalid_arg "Template.param: log scale needs positive bounds";
  { name; target; range; log_scale }

(* Each base element's rebuild from the parameter values, resolved by
   [make]: the template's per-candidate work is indexing, not name
   lookups. *)
type t = {
  base : N.t;
  params : param array;
  rebuild : (float array -> N.element) list;  (* one per base element *)
}

let target_names = function
  | Mos_width names | Mos_length names | Cap_value names | Res_value names ->
    names

let make base params =
  let available = Hashtbl.create 32 in
  List.iter
    (fun e -> Hashtbl.replace available (N.element_name e) e)
    (N.elements base);
  List.iter
    (fun p ->
      List.iter
        (fun name ->
          match Hashtbl.find_opt available name with
          | None ->
            invalid_arg
              (Printf.sprintf "Template.make: no element %s for param %s"
                 name p.name)
          | Some e -> (
            match (p.target, e) with
            | (Mos_width _ | Mos_length _), N.Mosfet _ -> ()
            | Cap_value _, N.Capacitor _ -> ()
            | Res_value _, N.Resistor _ -> ()
            | (Mos_width _ | Mos_length _ | Cap_value _ | Res_value _), _ ->
              invalid_arg
                (Printf.sprintf
                   "Template.make: element %s has wrong kind for param %s"
                   name p.name)))
        (target_names p.target))
    params;
  let params = Array.of_list params in
  (* The param that sets one kind of value of a named element: the last
     param in order naming it wins. *)
  let setter is_kind =
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun i p ->
        if is_kind p.target then
          List.iter
            (fun name -> Hashtbl.replace tbl name i)
            (target_names p.target))
      params;
    Hashtbl.find_opt tbl
  in
  let width = setter (function Mos_width _ -> true | _ -> false)
  and length = setter (function Mos_length _ -> true | _ -> false)
  and cap = setter (function Cap_value _ -> true | _ -> false)
  and res = setter (function Res_value _ -> true | _ -> false) in
  let rebuild e =
    match e with
    | N.Mosfet ({ name; geom; _ } as m) -> (
      let value default = function
        | Some i -> fun v -> v.(i)
        | None -> fun _ -> default
      in
      match (width name, length name) with
      | None, None -> fun _ -> e
      | w, l ->
        let w = value geom.Ape_device.Mos.w w
        and l = value geom.Ape_device.Mos.l l in
        fun v ->
          N.Mosfet { m with geom = Ape_device.Mos.geom ~w:(w v) ~l:(l v) })
    | N.Capacitor ({ name; _ } as c) -> (
      match cap name with
      | Some i -> fun v -> N.Capacitor { c with c = v.(i) }
      | None -> fun _ -> e)
    | N.Resistor ({ name; _ } as r) -> (
      match res name with
      | Some i -> fun v -> N.Resistor { r with r = v.(i) }
      | None -> fun _ -> e)
    | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Switch _ -> fun _ -> e
  in
  { base; params; rebuild = List.map rebuild (N.elements base) }

let base t = t.base
let params t = t.params
let dim t = Array.length t.params

let value_of_unit p u =
  let u = Ape_util.Float_ext.clamp ~lo:0. ~hi:1. u in
  if p.log_scale then
    I.lo p.range *. ((I.hi p.range /. I.lo p.range) ** u)
  else I.lo p.range +. (u *. I.width p.range)

let instantiate t point =
  if Array.length point <> dim t then
    invalid_arg "Template.instantiate: dimension mismatch";
  let values = Array.mapi (fun i p -> value_of_unit p point.(i)) t.params in
  N.make ~title:t.base.N.title
    (List.map (fun rebuild -> rebuild values) t.rebuild)

let values_of_point t point =
  Array.to_list
    (Array.mapi
       (fun i p -> (p.name, value_of_unit p point.(i)))
       t.params)
