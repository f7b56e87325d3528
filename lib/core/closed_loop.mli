(** Level-4 closed-loop amplifier modules: inverting / non-inverting
    amplifiers, the integrator and the summing adder — opamp + R/C
    networks, with the ideal behaviour corrected by the non-ideal opamp
    attributes exactly as the paper's §4.4 describes.

    All modules run single-supply around a mid-rail reference generated
    by a level-2 {!Bias.Dc_volt} — the elaborated netlist is therefore a
    three-level composition (transistors → bias/diff components → opamp →
    module), mirroring the paper's Figure 2. *)

type kind =
  | Inverting of { gain : float  (** magnitude of −R2/R1 *) }
  | Non_inverting of { gain : float  (** 1 + R2/R1, > 1 *) }
  | Integrator of { f_unity : float  (** 1/(2πRC), Hz *) }
  | Adder of { gains : float list  (** per-input inverting gains *) }

type spec = {
  kind : kind;
  bandwidth : float;  (** required closed-loop −3 dB bandwidth, Hz *)
  cl : float;  (** output load capacitance, F *)
  r_base : float;  (** input resistor value, Ω (default 10 kΩ) *)
  sr : float option;  (** slew-rate requirement forwarded to the opamp *)
}

val spec :
  ?cl:float -> ?r_base:float -> ?sr:float -> bandwidth:float -> kind -> spec
(** [r_base] defaults to 400 kΩ — large relative to both the reference
    divider's Thevenin impedance and the buffered opamp's Z_out. *)

val noise_gain : kind -> float
(** 1/β of the configuration: the designer needs it ≥ 1. *)

type design = {
  spec : spec;
  opamp : Opamp.design;
  r_div : float;  (** each half of the mid-rail reference divider, Ω *)
  resistors : (string * float) list;  (** role → Ω *)
  capacitors : (string * float) list;  (** role → F *)
  gain_ideal : float;
  gain_est : float;  (** finite-gain-corrected closed-loop gain *)
  bandwidth_est : float;  (** UGF / noise gain *)
  perf : Perf.t;
}

val design : Ape_process.Process.t -> spec -> design
(** Sizes the embedded opamp (buffered, Z_out ≤ r_base/50) so loop gain
    ≥ ~20 at DC and the closed-loop bandwidth meets spec with 30 %
    margin.  Raises {!Opamp.Infeasible} when that opamp cannot be
    built. *)

val fragment : Ape_process.Process.t -> design -> Fragment.t
(** Ports: [vdd], [in] (or [in1], [in2], … for the adder), [out]. *)
