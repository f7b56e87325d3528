(** DC operating-point analysis: damped Newton–Raphson with gmin stepping
    and a source-stepping fallback — the same continuation strategy SPICE
    uses. *)

type op = {
  netlist : Ape_circuit.Netlist.t;
  index : Engine.index;
  x : float array;  (** solution: node voltages then branch currents *)
  iterations : int;  (** Newton iterations of the final solve *)
}

exception No_convergence of string

val solve :
  ?max_iter:int ->
  ?x0:float array ->
  ?index:Engine.index ->
  Ape_circuit.Netlist.t ->
  op
(** Raises {!No_convergence} if Newton, gmin stepping and source stepping
    all fail.  Each Newton stage converges when its largest node-voltage
    step is below 1 nV and its residual below 1 pA; [max_iter] (default
    150) bounds its iterations.

    [index], when given, is used instead of building one (counted under
    [dc.index_reuses], not [engine.plans]); the result's [index] is
    it.  Precondition: [index] was built from a netlist with the same
    elements as this one, in the same order and on the same terminals;
    only element values may differ.  {!Engine} raises
    {!Engine.Engine_error} when an element's name or kind, or the
    element count, does not match; a changed terminal is not detected.
    The Newton workspace and its first factorisation are fresh either
    way, so the solve is bit-identical to one without [index]. *)

val voltage : op -> Ape_circuit.Netlist.node -> float

val branch_current : op -> string -> float option
(** Current through a named V-source/VCVS (SPICE sign: positive flows
    p→n inside the source). *)

val static_power : op -> supply:string -> float
(** |V| · |I| of the named supply source. *)

val mosfet_regions :
  op -> (string * Ape_device.Mos.region * float) list
(** Per-MOSFET region and drain current at the operating point. *)

val pp : Format.formatter -> op -> unit
