module N = Ape_circuit.Netlist

type t = { netlist : N.t; ports : (string * N.node) list }

let make netlist ports = { netlist; ports }

let port t name =
  match List.assoc_opt name t.ports with
  | Some node -> node
  | None -> raise Not_found

let with_supply ?(vdd = 5.0) t =
  let vdd_node = port t "vdd" in
  N.append t.netlist
    [ N.Vsource { name = "VDD"; p = vdd_node; n = N.ground; dc = vdd; ac = 0. } ]
