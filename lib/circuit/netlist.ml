module Card = Ape_process.Model_card
module Mos = Ape_device.Mos

type node = string

let ground = "0"
(* "0" or any case of "gnd", without allocating a lowercase copy. *)
let is_ground n =
  String.equal n "0"
  || String.length n = 3
     && Char.lowercase_ascii n.[0] = 'g'
     && Char.lowercase_ascii n.[1] = 'n'
     && Char.lowercase_ascii n.[2] = 'd'

type element =
  | Mosfet of {
      name : string;
      card : Card.t;
      d : node;
      g : node;
      s : node;
      b : node;
      geom : Mos.geom;
      m : float;
    }
  | Resistor of { name : string; a : node; b : node; r : float }
  | Capacitor of { name : string; a : node; b : node; c : float }
  | Vsource of { name : string; p : node; n : node; dc : float; ac : float }
  | Isource of { name : string; p : node; n : node; dc : float; ac : float }
  | Vcvs of {
      name : string;
      p : node;
      n : node;
      cp : node;
      cn : node;
      gain : float;
    }
  | Switch of {
      name : string;
      a : node;
      b : node;
      ctrl : node;
      ron : float;
      roff : float;
      vthreshold : float;
    }

type t = { title : string; elements : element list }

let make ~title elements = { title; elements }

let element_name = function
  | Mosfet { name; _ }
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vcvs { name; _ }
  | Switch { name; _ } ->
    name

let element_nodes = function
  | Mosfet { d; g; s; b; _ } -> [ d; g; s; b ]
  | Resistor { a; b; _ } | Capacitor { a; b; _ } -> [ a; b ]
  | Vsource { p; n; _ } | Isource { p; n; _ } -> [ p; n ]
  | Vcvs { p; n; cp; cn; _ } -> [ p; n; cp; cn ]
  | Switch { a; b; ctrl; _ } -> [ a; b; ctrl ]

module String_set = Set.Make (String)

let nodes t =
  List.fold_left
    (fun acc e ->
      List.fold_left
        (fun acc n -> if is_ground n then acc else String_set.add n acc)
        acc (element_nodes e))
    String_set.empty t.elements
  |> String_set.elements

let elements t = t.elements
let append t es = { t with elements = t.elements @ es }

let merge ~title ts =
  { title; elements = List.concat_map (fun t -> t.elements) ts }

let mosfet_count t =
  List.length
    (List.filter (function Mosfet _ -> true | _ -> false) t.elements)

let device_count t = List.length t.elements

let gate_area t =
  List.fold_left
    (fun acc -> function
      | Mosfet { geom; m; _ } -> acc +. (m *. Mos.gate_area geom)
      | Resistor _ | Capacitor _ | Vsource _ | Isource _ | Vcvs _ | Switch _
        ->
        acc)
    0. t.elements

exception Invalid_netlist of string

let validate t =
  (* Unique names. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let name = element_name e in
      if Hashtbl.mem seen name then
        raise (Invalid_netlist ("duplicate element name " ^ name));
      Hashtbl.add seen name ())
    t.elements;
  (* Ground reference. *)
  let touches_ground =
    List.exists (fun e -> List.exists is_ground (element_nodes e)) t.elements
  in
  if not touches_ground then
    raise (Invalid_netlist "no element touches ground");
  (* Dangling nodes: every non-ground node needs >= 2 terminal
     connections for the MNA matrix to be non-singular. *)
  let counts = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun n ->
          if not (is_ground n) then
            Hashtbl.replace counts n
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts n)))
        (element_nodes e))
    t.elements;
  Hashtbl.iter
    (fun n c ->
      if c < 2 then raise (Invalid_netlist ("dangling node " ^ n)))
    counts;
  (* Element value sanity. *)
  List.iter
    (function
      | Resistor { name; r; _ } when r <= 0. ->
        raise (Invalid_netlist ("non-positive resistor " ^ name))
      | Capacitor { name; c; _ } when c <= 0. ->
        raise (Invalid_netlist ("non-positive capacitor " ^ name))
      | Mosfet { name; m; _ } when m <= 0. ->
        raise (Invalid_netlist ("non-positive multiplier on " ^ name))
      | Switch { name; ron; roff; _ } when ron <= 0. || roff <= ron ->
        raise (Invalid_netlist ("bad switch resistances " ^ name))
      | Mosfet _ | Resistor _ | Capacitor _ | Vsource _ | Isource _
      | Vcvs _ | Switch _ ->
        ())
    t.elements

let instantiate ~prefix ~port_map child =
  let map_node n =
    if is_ground n then ground
    else
      match List.assoc_opt n port_map with
      | Some parent -> parent
      | None -> prefix ^ "." ^ n
  in
  let map_name name = prefix ^ "." ^ name in
  List.map
    (function
      | Mosfet m ->
        Mosfet
          {
            m with
            name = map_name m.name;
            d = map_node m.d;
            g = map_node m.g;
            s = map_node m.s;
            b = map_node m.b;
          }
      | Resistor r ->
        Resistor
          { r with name = map_name r.name; a = map_node r.a; b = map_node r.b }
      | Capacitor c ->
        Capacitor
          { c with name = map_name c.name; a = map_node c.a; b = map_node c.b }
      | Vsource v ->
        Vsource
          { v with name = map_name v.name; p = map_node v.p; n = map_node v.n }
      | Isource i ->
        Isource
          { i with name = map_name i.name; p = map_node i.p; n = map_node i.n }
      | Vcvs e ->
        Vcvs
          {
            e with
            name = map_name e.name;
            p = map_node e.p;
            n = map_node e.n;
            cp = map_node e.cp;
            cn = map_node e.cn;
          }
      | Switch s ->
        Switch
          {
            s with
            name = map_name s.name;
            a = map_node s.a;
            b = map_node s.b;
            ctrl = map_node s.ctrl;
          })
    child.elements

let rename_node ~from ~to_ t =
  let map_node n = if String.equal n from then to_ else n in
  let elements =
    List.map
      (function
        | Mosfet m ->
          Mosfet
            {
              m with
              d = map_node m.d;
              g = map_node m.g;
              s = map_node m.s;
              b = map_node m.b;
            }
        | Resistor r -> Resistor { r with a = map_node r.a; b = map_node r.b }
        | Capacitor c ->
          Capacitor { c with a = map_node c.a; b = map_node c.b }
        | Vsource v -> Vsource { v with p = map_node v.p; n = map_node v.n }
        | Isource i -> Isource { i with p = map_node i.p; n = map_node i.n }
        | Vcvs e ->
          Vcvs
            {
              e with
              p = map_node e.p;
              n = map_node e.n;
              cp = map_node e.cp;
              cn = map_node e.cn;
            }
        | Switch s ->
          Switch
            { s with a = map_node s.a; b = map_node s.b; ctrl = map_node s.ctrl })
      t.elements
  in
  { t with elements }

let retarget_process process t =
  let elements =
    List.map
      (fun e ->
        match e with
        | Mosfet m ->
          Mosfet
            {
              m with
              card =
                Ape_process.Process.card process m.card.Card.mos_type;
            }
        | Resistor _ | Capacitor _ | Vsource _ | Isource _ | Vcvs _
        | Switch _ ->
          e)
      t.elements
  in
  { t with elements }

(* Element values must survive print -> parse exactly (the golden deck
   round-trip tests depend on it): use the readable engineering form when
   it parses back to the identical double, the shortest exact decimal
   otherwise. *)
let spice_num x =
  let s = Ape_util.Units.to_eng x in
  match Ape_util.Units.parse_number s with
  | Some v when v = x -> s
  | Some _ | None -> Ape_util.Units.to_exact x

let element_to_spice = function
  | Mosfet { name; card; d; g; s; b; geom; m } ->
    let base =
      Printf.sprintf "%s %s %s %s %s %s W=%s L=%s" name d g s b
        card.Card.name (spice_num geom.Mos.w) (spice_num geom.Mos.l)
    in
    if m = 1. then base else base ^ " M=" ^ spice_num m
  | Resistor { name; a; b; r } ->
    Printf.sprintf "%s %s %s %s" name a b (spice_num r)
  | Capacitor { name; a; b; c } ->
    Printf.sprintf "%s %s %s %s" name a b (spice_num c)
  | Vsource { name; p; n; dc; ac } ->
    if ac = 0. then Printf.sprintf "%s %s %s DC %s" name p n (spice_num dc)
    else
      Printf.sprintf "%s %s %s DC %s AC %s" name p n (spice_num dc)
        (spice_num ac)
  | Isource { name; p; n; dc; ac } ->
    if ac = 0. then Printf.sprintf "%s %s %s DC %s" name p n (spice_num dc)
    else
      Printf.sprintf "%s %s %s DC %s AC %s" name p n (spice_num dc)
        (spice_num ac)
  | Vcvs { name; p; n; cp; cn; gain } ->
    Printf.sprintf "%s %s %s %s %s %s" name p n cp cn (spice_num gain)
  | Switch { name; a; b; ctrl; ron; roff; vthreshold } ->
    Printf.sprintf "%s %s %s %s RON=%s ROFF=%s VT=%s" name a b ctrl
      (spice_num ron) (spice_num roff) (spice_num vthreshold)

let to_spice t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf ("* " ^ t.title ^ "\n");
  (* Distinct model cards. *)
  let models = Hashtbl.create 4 in
  List.iter
    (function
      | Mosfet { card; _ } ->
        if not (Hashtbl.mem models card.Card.name) then
          Hashtbl.add models card.Card.name card
      | Resistor _ | Capacitor _ | Vsource _ | Isource _ | Vcvs _ | Switch _
        ->
        ())
    t.elements;
  Hashtbl.iter
    (fun _ card -> Buffer.add_string buf (Card.to_spice card ^ "\n"))
    models;
  List.iter
    (fun e -> Buffer.add_string buf (element_to_spice e ^ "\n"))
    t.elements;
  Buffer.add_string buf ".END\n";
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_spice t)
