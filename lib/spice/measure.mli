(** Measurement extraction — the "sim" columns of the paper's tables.

    These routines play the role of SPICE [.MEASURE] post-processing:
    given a solved operating point they hunt for level crossings on the
    AC response with a coarse log scan refined by Brent's method.

    Every search runs on a prepared AC engine ({!Ac.prepare}): the
    circuit is stamped once and each probe frequency is a cheap
    assemble-and-refactor.  Callers extracting several figures from one
    operating point (gain, UGF, phase margin, …) prepare once and pass
    the same preparation to each measurement. *)

(** Measurements over a shared {!Ac.prepared}. *)
module Prepared : sig
  val dc_gain : out:Ape_circuit.Netlist.node -> Ac.prepared -> float
  (** |V(out)| at s = 0 with the netlist's declared AC excitation (the
      AC system reduces to the real conductance matrix). *)

  val dc_gain_signed : out:Ape_circuit.Netlist.node -> Ac.prepared -> float
  (** {!dc_gain} with the sign taken from the real ω → 0 solve: the DC
      phasor is real, so inverting paths show up as a negative real
      part.  (Unlike probing the phase at a fixed nonzero frequency,
      this stays correct when the circuit has poles below that
      frequency.) *)

  val gain_at : out:Ape_circuit.Netlist.node -> Ac.prepared -> float -> float
  (** |V(out)| at a frequency in Hz. *)

  val phase_at : out:Ape_circuit.Netlist.node -> Ac.prepared -> float -> float
  (** Principal-value phase in degrees, in (−180, 180]. *)

  val unwrapped_phase_at :
    ?points_per_decade:int ->
    out:Ape_circuit.Netlist.node ->
    Ac.prepared ->
    float ->
    float
  (** Continuous phase in degrees at a frequency, unwrapped along a log
      grid from DC (default 8 points/decade over the 12 decades below
      the target).  Equals {!phase_at} exactly when the response never
      crosses ±180°; beyond that it keeps accumulating lag (−200°,
      −300°, …) instead of wrapping. *)

  val unity_gain_frequency :
    ?fmin:float ->
    ?fmax:float ->
    out:Ape_circuit.Netlist.node ->
    Ac.prepared ->
    float option
  (** Lowest frequency where |H| falls to 1, searched on
      [[fmin, fmax]] (defaults 1 Hz .. 10 GHz).  [None] if |H| never
      reaches 1 (e.g. the DC gain is already below unity). *)

  val f_minus_3db :
    ?fmin:float ->
    ?fmax:float ->
    out:Ape_circuit.Netlist.node ->
    Ac.prepared ->
    float option
  (** −3 dB bandwidth relative to the DC gain. *)

  val f_level_db :
    ?fmin:float ->
    ?fmax:float ->
    level_db:float ->
    out:Ape_circuit.Netlist.node ->
    Ac.prepared ->
    float option
  (** Frequency where the response is [level_db] below DC (e.g. −20 dB
      for the paper's f_{−20dB} LPF row). *)

  val phase_margin :
    ?fmin:float ->
    ?fmax:float ->
    out:Ape_circuit.Netlist.node ->
    Ac.prepared ->
    float option
  (** 180° + {!unwrapped_phase_at} the unity-gain frequency, so a
      response that lags more than 180° before reaching unity gain
      reports the true (negative) margin rather than a value shifted by
      360°. *)

  type bandpass = {
    f_center : float;  (** peak frequency, Hz *)
    peak_gain : float;
    f_low : float;  (** lower −3 dB edge *)
    f_high : float;  (** upper −3 dB edge *)
    bandwidth : float;
  }

  val bandpass_characteristics :
    ?fmin:float ->
    ?fmax:float ->
    out:Ape_circuit.Netlist.node ->
    Ac.prepared ->
    bandpass option
  (** Peak search + two-sided −3 dB edges for band-pass responses. *)
end
