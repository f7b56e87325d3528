(** Circuit netlists.

    A netlist is a flat bag of elements over named nodes; node ["0"]
    (alias ["gnd"]) is ground.  Hierarchy is handled by {!instantiate},
    which splices a child netlist in with prefixed internal nodes — the
    estimator uses this to elaborate opamps inside filters, ADCs inside
    converters, and so on. *)

type node = string

val ground : node

val is_ground : node -> bool
(** ["0"], ["gnd"], ["GND"] are all ground. *)

type element =
  | Mosfet of {
      name : string;
      card : Ape_process.Model_card.t;
      d : node;
      g : node;
      s : node;
      b : node;
      geom : Ape_device.Mos.geom;
      m : float;
          (** parallel-device multiplier (SPICE [M=], default 1).  The
              simulator models it as an effective width [m·W]; gate
              area is [m·W·L]. *)
    }
  | Resistor of { name : string; a : node; b : node; r : float }
  | Capacitor of { name : string; a : node; b : node; c : float }
  | Vsource of { name : string; p : node; n : node; dc : float; ac : float }
      (** Independent voltage source; [ac] is the small-signal magnitude. *)
  | Isource of { name : string; p : node; n : node; dc : float; ac : float }
      (** Independent current source; positive current flows from [p]
          through the source to [n] (SPICE convention). *)
  | Vcvs of {
      name : string;
      p : node;
      n : node;
      cp : node;
      cn : node;
      gain : float;
    }  (** Voltage-controlled voltage source (ideal amplifier/testbench). *)
  | Switch of {
      name : string;
      a : node;
      b : node;
      ctrl : node;
      ron : float;
      roff : float;
      vthreshold : float;
    }
      (** Voltage-controlled switch: resistance [ron] when
          [v(ctrl) > vthreshold], else [roff].  Models the S&H sampling
          switch. *)

type t = { title : string; elements : element list }

val make : title:string -> element list -> t
val element_name : element -> string
val element_nodes : element -> node list
val nodes : t -> node list
(** All non-ground nodes, sorted, unique. *)

val elements : t -> element list
val append : t -> element list -> t
val merge : title:string -> t list -> t

val mosfet_count : t -> int
val device_count : t -> int

val gate_area : t -> float
(** Σ M·W·L over MOSFETs, m² — the paper's area metric. *)

exception Invalid_netlist of string

val validate : t -> unit
(** Checks: unique element names, a ground reference exists, every node
    touches at least two terminals (warnings as exceptions), positive
    R/C values.  Raises {!Invalid_netlist}. *)

val instantiate :
  prefix:string -> port_map:(node * node) list -> t -> element list
(** Splice a child netlist into a parent: nodes listed in [port_map]
    (child name, parent name) are connected to parent nodes, every other
    child node and all element names get [prefix ^ "."] prepended.
    Ground stays ground. *)

val rename_node : from:node -> to_:node -> t -> t

val retarget_process : Ape_process.Process.t -> t -> t
(** Swap every MOSFET's model card for the given process's card of the
    same polarity (geometry untouched) — re-simulating a sized design at
    a different corner or deck. *)

val spice_num : float -> string
(** How {!to_spice} prints an element value: the engineering form
    ({!Ape_util.Units.to_eng}) when it parses back to the identical
    double, the shortest exact decimal otherwise — so every finite value
    survives print then parse bit for bit. *)

val to_spice : t -> string
(** Render in SPICE syntax (with .MODEL cards for every distinct model
    used). *)

val pp : Format.formatter -> t -> unit
