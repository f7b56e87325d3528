(** Parametrised netlist templates: the ASTRX-style problem input where
    "the circuit topology is already selected [and] the transistor sizes
    and bias points are set as unknowns" with user-supplied "intervals
    to establish ranges of allowable values" (paper §3).

    A parameter binds one value to a {e group} of elements (matched
    devices share one unknown, as a designer would insist), with a
    linear or logarithmic interval.  The annealer works in [[0,1]]
    coordinates; {!instantiate} maps a point to a concrete netlist. *)

type target =
  | Mos_width of string list  (** element names sharing one W *)
  | Mos_length of string list
  | Cap_value of string list
  | Res_value of string list

type param = {
  name : string;
  target : target;
  range : Ape_util.Interval.t;
  log_scale : bool;
}

val param :
  ?log_scale:bool -> name:string -> range:Ape_util.Interval.t -> target ->
  param
(** [log_scale] defaults to true (geometry and passives span decades). *)

type t

val make : Ape_circuit.Netlist.t -> param list -> t
(** A template over a testbench-complete netlist.  Raises
    [Invalid_argument] if a parameter references an element that is
    absent from the netlist or of the wrong kind.

    Each element is resolved here, once, to the parameters that set its
    values; when several parameters name one element, the last one in
    the list sets it.  {!instantiate} then looks no name up. *)

val base : t -> Ape_circuit.Netlist.t
val params : t -> param array
val dim : t -> int

val instantiate : t -> float array -> Ape_circuit.Netlist.t
(** Apply a unit-cube point: the base netlist with every parameterised
    value replaced, elements in the base's order.  Each coordinate,
    clamped to [[0,1]], maps into its parameter's interval, linearly or
    logarithmically. *)

val values_of_point : t -> float array -> (string * float) list
(** Named physical values at a point, for reporting. *)
