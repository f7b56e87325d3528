(** Elaborated circuit fragments.

    Every estimator level can emit the concrete netlist it just sized
    (design choice D1 in DESIGN.md).  A fragment is that netlist plus a
    port dictionary; it contains bias branches but {e not} the supply
    source — the verification testbench (or the enclosing level) adds
    supplies, drives and loads. *)

type t = {
  netlist : Ape_circuit.Netlist.t;
  ports : (string * Ape_circuit.Netlist.node) list;
      (** role → node, e.g. [("vdd", "vdd"); ("out", "out")] *)
}

val make :
  Ape_circuit.Netlist.t -> (string * Ape_circuit.Netlist.node) list -> t

val port : t -> string -> Ape_circuit.Netlist.node
(** Raises [Not_found] with the port name in the message. *)

val with_supply : ?vdd:float -> t -> Ape_circuit.Netlist.t
(** The fragment's netlist plus a VDD source on its [vdd] port (named
    [VDD]); ready for DC analysis once a drive is attached. *)
