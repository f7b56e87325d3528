(** Transient analysis.

    Fixed-step implicit integration (backward Euler by default,
    trapezoidal optionally) with a full Newton solve per step.  Source
    waveforms are supplied as functions of time keyed by source name
    ({!Engine.stimulus}), so the netlist itself stays purely structural.

    Used by the measurement layer for slew rate, settling/response time
    (S&H) and comparator/ADC delay. *)

type method_ = Backward_euler | Trapezoidal

type waveform = float -> float

val step : ?t0:float -> ?low:float -> high:float -> unit -> waveform
(** Step from [low] (default 0) to [high] at [t0] (default 0). *)

type result = {
  times : float array;
  nodes : (string * float array) list;
      (** waveform samples for every non-ground node *)
}

exception Step_failed of float
(** Newton failed at the given time even after step cutting. *)

val run :
  ?method_:method_ ->
  ?max_newton:int ->
  ?until:(string * float) list ->
  stimulus:Engine.stimulus ->
  tstop:float ->
  dt:float ->
  Dc.op ->
  result
(** Integrate from the DC operating point [op] at fixed step [dt].  On a
    Newton failure the step is halved (up to 8 times) before
    {!Step_failed} is raised.

    [until] stops the run early, for a caller that measures only first
    crossings: given [(node, level)] pairs, the run ends at the first
    recorded sample by which every listed node has made its first
    rising crossing of its level (as {!crossing_time} finds it), each
    crossing strictly later than the one listed before it.  The stop
    reads recorded samples only, never the sub-steps step cutting
    makes.  The result is then a prefix of the full run: every time
    and sample up to the stop is bit-identical, so {!crossing_time} of
    a listed level returns the full run's value, while quantities that
    read the whole window ({!max_slope}, {!settling_time}, a
    {!value_at} past the stop) do not.  With no [until] (default
    [[]]), or when the condition never holds, the result is the full
    run to [tstop].  Raises [Invalid_argument] when a listed name is
    not a node of the netlist. *)

val value_at : result -> string -> float -> float
(** Linear interpolation of one node's waveform.  Before the first
    sample it returns the first, and from the last sample on (past a
    stopped run's end too) it holds the last. *)

val max_slope : result -> string -> float
(** max |dv/dt| between consecutive samples, V/s — used for slew rate. *)

val crossing_time : result -> string -> level:float -> float option
(** First time the waveform rises through [level], linearly
    interpolated. *)

val settling_time :
  result -> string -> final:float -> band:float -> float option
(** Earliest time after which the waveform stays within [band]
    (fractional, e.g. 0.02) of [final]. *)
