module N = Ape_circuit.Netlist
module I = Ape_util.Interval
module Rmat = Ape_util.Matrix.Rmat

(* Node names are resolved to engine unknowns once, in [create]:
   [x_engine] and [kcl_penalty] run per candidate and only index. *)
type t = {
  base : N.t;
  index : Ape_spice.Engine.index;
  free_slots : int array;  (* engine unknown of each free node *)
  fixed_slots : int array;  (* engine unknown of each source-pinned node *)
  fixed_values : float array;
  node_ranges : I.t array;
  node_centers : float array;
}

let create ?(node_window = 0.25) ~mode ~vdd base =
  let index = Ape_spice.Engine.build_index base in
  let fixed_tbl = Hashtbl.create 4 in
  List.iter
    (fun e ->
      match e with
      | N.Vsource { p; n = nn; dc; _ } ->
        if not (N.is_ground p) then Hashtbl.replace fixed_tbl p dc;
        if not (N.is_ground nn) then Hashtbl.replace fixed_tbl nn 0.
      | N.Mosfet _ | N.Resistor _ | N.Capacitor _ | N.Isource _ | N.Vcvs _
      | N.Switch _ ->
        ())
    (N.elements base);
  let free_nodes =
    List.filter (fun n -> not (Hashtbl.mem fixed_tbl n)) (N.nodes base)
  in
  let center =
    match mode with
    | `Wide -> fun _ -> vdd /. 2.
    | `Centered -> (
      match Ape_spice.Dc.solve base with
      | op -> fun node -> Ape_spice.Dc.voltage op node
      | exception Ape_spice.Dc.No_convergence _ -> fun _ -> vdd /. 2.)
  in
  let range node =
    match mode with
    | `Wide -> I.make 0. vdd
    | `Centered ->
      let c = center node in
      I.make
        (Float.max 0. (c -. node_window))
        (Float.min vdd (c +. node_window))
  in
  (* Every node of [base] that is not ground has an unknown. *)
  let slot node = Option.get (Ape_spice.Engine.node_id index node) in
  let fixed = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fixed_tbl [] in
  {
    base;
    index;
    free_slots = Array.of_list (List.map slot free_nodes);
    fixed_slots = Array.of_list (List.map (fun (node, _) -> slot node) fixed);
    fixed_values = Array.of_list (List.map snd fixed);
    node_ranges = Array.of_list (List.map range free_nodes);
    node_centers = Array.of_list (List.map center free_nodes);
  }

let n_free t = Array.length t.free_slots

let x_engine t node_part =
  let x = Array.make (Ape_spice.Engine.size t.index) 0. in
  for k = 0 to n_free t - 1 do
    let r = t.node_ranges.(k) in
    x.(t.free_slots.(k)) <- I.lo r +. (node_part.(k) *. I.width r)
  done;
  for k = 0 to Array.length t.fixed_slots - 1 do
    x.(t.fixed_slots.(k)) <- t.fixed_values.(k)
  done;
  x

let centers_unit t =
  Array.mapi
    (fun k c ->
      let r = t.node_ranges.(k) in
      if I.width r = 0. then 0.5
      else Ape_util.Float_ext.clamp ~lo:0. ~hi:1. ((c -. I.lo r) /. I.width r))
    t.node_centers

type stamp = { f : float array; g : Rmat.t; c : Rmat.t option }

let stamp ?(caps = false) t netlist x =
  if caps then
    let f, g, c = Ape_spice.Engine.linearize netlist t.index x in
    { f; g; c = Some c }
  else
    let f, g =
      Ape_spice.Engine.residual_jacobian ~gmin:1e-12 netlist t.index x
    in
    { f; g; c = None }

let kcl_penalty t { f; g; _ } =
  let sum = ref 0. in
  Array.iter
    (fun i ->
      let gii = Float.abs (Rmat.get g i i) in
      sum := !sum +. (Float.abs f.(i) /. Float.max 1e-9 gii))
    t.free_slots;
  !sum /. float_of_int (max 1 (n_free t)) /. 0.05

let node_voltage t x node = Ape_spice.Engine.node_voltage t.index x node

let fake_op t netlist x =
  { Ape_spice.Dc.netlist; index = t.index; x; iterations = 0 }
