(** Imperative netlist builder with automatic element naming and node
    gensym — the elaboration code in the estimator reads like a schematic
    when written against this. *)

type t

val create : title:string -> t

val fresh_node : ?hint:string -> t -> Netlist.node
(** A new unique internal node, e.g. [n7] or [hint7]. *)

val mosfet :
  t ->
  Ape_process.Model_card.t ->
  d:Netlist.node ->
  g:Netlist.node ->
  s:Netlist.node ->
  b:Netlist.node ->
  w:float ->
  l:float ->
  unit

val resistor : t -> a:Netlist.node -> b:Netlist.node -> float -> unit
val capacitor : t -> a:Netlist.node -> b:Netlist.node -> float -> unit

val vsource :
  ?ac:float -> t -> p:Netlist.node -> n:Netlist.node -> float -> unit

val switch :
  ?ron:float -> t -> a:Netlist.node -> b:Netlist.node -> ctrl:Netlist.node ->
  unit
(** A switch that closes above 2.5 V on [ctrl]: [ron] (default 1 kΩ)
    closed, 1 TΩ open. *)

val instance :
  t -> prefix:string -> port_map:(Netlist.node * Netlist.node) list ->
  Netlist.t -> unit
(** Splice a child netlist (see {!Netlist.instantiate}). *)

val finish : t -> Netlist.t
(** The accumulated netlist, validated. *)

val finish_unvalidated : t -> Netlist.t
(** For deliberately partial fragments (e.g. component cores before the
    testbench adds sources). *)
