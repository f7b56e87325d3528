module Proc = Ape_process.Process

type t = {
  title : string;
  mutable rev_elements : Netlist.element list;
  mutable node_counter : int;
  counters : (char, int ref) Hashtbl.t;
}

let create ~title =
  { title; rev_elements = []; node_counter = 0; counters = Hashtbl.create 8 }

let fresh_node ?(hint = "n") t =
  t.node_counter <- t.node_counter + 1;
  Printf.sprintf "%s%d" hint t.node_counter

let fresh_name t kind =
  let counter =
    match Hashtbl.find_opt t.counters kind with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add t.counters kind r;
      r
  in
  incr counter;
  Printf.sprintf "%c%d" kind !counter

let add t e = t.rev_elements <- e :: t.rev_elements

let mosfet t card ~d ~g ~s ~b ~w ~l =
  add t
    (Netlist.Mosfet
       {
         name = fresh_name t 'M';
         card;
         d;
         g;
         s;
         b;
         geom = Ape_device.Mos.geom ~w ~l;
         m = 1.;
       })

let nmos t process ~d ~g ~s ~w ~l =
  mosfet t process.Proc.nmos ~d ~g ~s ~b:Netlist.ground ~w ~l

let pmos t process ~d ~g ~s ~vdd_node ~w ~l =
  mosfet t process.Proc.pmos ~d ~g ~s ~b:vdd_node ~w ~l

let resistor t ~a ~b r =
  add t (Netlist.Resistor { name = fresh_name t 'R'; a; b; r })

let capacitor t ~a ~b c =
  add t (Netlist.Capacitor { name = fresh_name t 'C'; a; b; c })

let vsource ?(ac = 0.) t ~p ~n dc =
  add t (Netlist.Vsource { name = fresh_name t 'V'; p; n; dc; ac })

let isource ?(ac = 0.) t ~p ~n dc =
  add t (Netlist.Isource { name = fresh_name t 'I'; p; n; dc; ac })

let vcvs t ~p ~n ~cp ~cn gain =
  add t (Netlist.Vcvs { name = fresh_name t 'E'; p; n; cp; cn; gain })

let switch ?(ron = 1e3) ?(roff = 1e12) ?(vthreshold = 2.5) t ~a ~b ~ctrl =
  add t
    (Netlist.Switch
       { name = fresh_name t 'W'; a; b; ctrl; ron; roff; vthreshold })

let instance t ~prefix ~port_map child =
  List.iter (add t) (Netlist.instantiate ~prefix ~port_map child)

let finish_unvalidated t =
  Netlist.make ~title:t.title (List.rev t.rev_elements)

let finish t =
  let netlist = finish_unvalidated t in
  Netlist.validate netlist;
  netlist
