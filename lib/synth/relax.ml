module N = Ape_circuit.Netlist
module I = Ape_util.Interval
module Rmat = Ape_util.Matrix.Rmat

type t = {
  base : N.t;
  index : Ape_spice.Engine.index;
  free_nodes : N.node list;
  free_row_ids : int list;
  fixed : (N.node * float) list;
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
  {
    base;
    index;
    free_nodes;
    free_row_ids =
      List.filter_map
        (fun n -> Ape_spice.Engine.node_id index n)
        free_nodes;
    fixed = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fixed_tbl [];
    node_ranges = Array.of_list (List.map range free_nodes);
    node_centers = Array.of_list (List.map center free_nodes);
  }

let n_free t = List.length t.free_nodes

let x_engine t node_part =
  let x = Array.make (Ape_spice.Engine.size t.index) 0. in
  List.iteri
    (fun k node ->
      match Ape_spice.Engine.node_id t.index node with
      | Some i ->
        x.(i) <-
          I.lo t.node_ranges.(k) +. (node_part.(k) *. I.width t.node_ranges.(k))
      | None -> ())
    t.free_nodes;
  List.iter
    (fun (node, v) ->
      match Ape_spice.Engine.node_id t.index node with
      | Some i -> x.(i) <- v
      | None -> ())
    t.fixed;
  x

let centers_unit t =
  Array.mapi
    (fun k c ->
      let r = t.node_ranges.(k) in
      if I.width r = 0. then 0.5
      else Ape_util.Float_ext.clamp ~lo:0. ~hi:1. ((c -. I.lo r) /. I.width r))
    t.node_centers

type stamp = { f : float array; g : Rmat.t }

let stamp t netlist x =
  let f, g = Ape_spice.Engine.residual_jacobian ~gmin:1e-12 netlist t.index x in
  { f; g }

let kcl_penalty t { f; g } =
  List.fold_left
    (fun acc i ->
      let gii = Float.abs (Rmat.get g i i) in
      acc +. (Float.abs f.(i) /. Float.max 1e-9 gii))
    0. t.free_row_ids
  /. float_of_int (max 1 (n_free t))
  /. 0.05

let node_voltage t x node = Ape_spice.Engine.node_voltage t.index x node

let fake_op t netlist x =
  { Ape_spice.Dc.netlist; index = t.index; x; iterations = 0 }
