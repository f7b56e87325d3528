(** Imperative netlist builder with automatic element naming and node
    gensym — the elaboration code in the estimator reads like a schematic
    when written against this. *)

type t

val create : title:string -> t

val fresh_node : ?hint:string -> t -> Netlist.node
(** A new unique internal node, e.g. [n7] or [hint7]. *)

val add : t -> Netlist.element -> unit

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

val nmos :
  t ->
  Ape_process.Process.t ->
  d:Netlist.node ->
  g:Netlist.node ->
  s:Netlist.node ->
  w:float ->
  l:float ->
  unit
(** NMOS with bulk tied to ground (VSS). *)

val pmos :
  t ->
  Ape_process.Process.t ->
  d:Netlist.node ->
  g:Netlist.node ->
  s:Netlist.node ->
  vdd_node:Netlist.node ->
  w:float ->
  l:float ->
  unit
(** PMOS with bulk tied to the supply node. *)

val resistor : t -> a:Netlist.node -> b:Netlist.node -> float -> unit
val capacitor : t -> a:Netlist.node -> b:Netlist.node -> float -> unit

val vsource :
  ?ac:float -> t -> p:Netlist.node -> n:Netlist.node -> float -> unit

val isource :
  ?ac:float -> t -> p:Netlist.node -> n:Netlist.node -> float -> unit

val vcvs :
  t ->
  p:Netlist.node ->
  n:Netlist.node ->
  cp:Netlist.node ->
  cn:Netlist.node ->
  float ->
  unit

val switch :
  ?ron:float ->
  ?roff:float ->
  ?vthreshold:float ->
  t ->
  a:Netlist.node ->
  b:Netlist.node ->
  ctrl:Netlist.node ->
  unit

val instance :
  t -> prefix:string -> port_map:(Netlist.node * Netlist.node) list ->
  Netlist.t -> unit
(** Splice a child netlist (see {!Netlist.instantiate}). *)

val finish : t -> Netlist.t
(** The accumulated netlist, validated. *)

val finish_unvalidated : t -> Netlist.t
(** For deliberately partial fragments (e.g. component cores before the
    testbench adds sources). *)
