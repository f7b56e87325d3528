(** Level-3 operational amplifiers.

    The paper's general opamp structure (§4.3, after Gregorian & Temes):
    (1) a differential input amplifier, (2) an optional level-shift /
    gain stage, (3) an optional output buffer, each drawn from the
    level-2 library.  A topology here is: tail-source type (Mirror /
    Cascode / Wilson), differential-load type (DiffCMOS / DiffNMOS), an
    automatically inserted common-source second stage when the gain spec
    exceeds what one stage can deliver, and an optional source-follower
    buffer driven by an output-impedance spec.

    Sizing is bottom-up: the UGF spec fixes the input-pair
    transconductance through the compensation capacitance, the gain spec
    fixes channel lengths through λ(L), the Z_out spec fixes the buffer
    transconductance, and every device is then sized by the level-1
    equations. *)

type spec = {
  av : float;  (** required DC gain magnitude *)
  ugf : float;  (** required unity-gain frequency, Hz *)
  ibias : float;  (** input-stage tail current, A *)
  cl : float;  (** load capacitance, F *)
  buffer : bool;  (** include an output buffer stage *)
  zout : float option;  (** output-impedance requirement, Ω *)
  sr : float option;  (** slew-rate requirement, V/s (checked, reported) *)
  bias_topology : Bias.mirror_topology;
  diff_load : Diff_pair.load;
  area_max : float option;  (** area budget, m² (reported against) *)
  force_stage2 : bool;
      (** skip the single-stage attempt (the paper's audio amplifier is
          explicitly a two-stage design) *)
}

val spec :
  ?buffer:bool ->
  ?zout:float ->
  ?sr:float ->
  ?bias_topology:Bias.mirror_topology ->
  ?diff_load:Diff_pair.load ->
  ?cl:float ->
  ?area_max:float ->
  ?force_stage2:bool ->
  av:float ->
  ugf:float ->
  ibias:float ->
  unit ->
  spec
(** Defaults: no buffer, Mirror tail, DiffCMOS load, [cl] = 10 pF. *)

type second_stage = {
  driver : Ape_device.Mos.sized;  (** PMOS common-source device *)
  sink : Ape_device.Mos.sized;  (** NMOS current-sink load *)
  i2 : float;  (** stage current, A *)
  gain2 : float;  (** stage gain magnitude *)
  cc : float;  (** Miller compensation capacitance, F *)
  rz : float;  (** nulling resistor, Ω *)
}

type buffer_stage = {
  driver : Ape_device.Mos.sized;  (** NMOS follower *)
  sink : Ape_device.Mos.sized;
  i_buf : float;
  gain_buf : float;  (** < 1 *)
}

type design = {
  spec : spec;
  diff : Diff_pair.design;
  stage2 : second_stage option;
  buffer : buffer_stage option;
  c_internal : float option;
      (** explicit compensation cap at the first-stage output when the
          opamp is buffered but single-stage, F *)
  input_cm : float;
  output_dc : float;  (** expected DC level of the output node *)
  gain : float;  (** total estimated DC gain *)
  ugf : float;
  slew_rate : float;
  zout : float;
  phase_margin : float;
  perf : Perf.t;
}

exception Infeasible of string

val design : Ape_process.Process.t -> spec -> design
(** Raises {!Infeasible} when no topology in the family meets the
    spec (e.g. gain unreachable even with two stages at maximum L). *)

val fragment : Ape_process.Process.t -> design -> Fragment.t
(** Ports: [vdd], [inp], [inn], [out]. *)

val describe : design -> string
(** One-line topology summary, e.g.
    ["Wilson + DiffCMOS + CS2 + buffer, 11 devices"]. *)
