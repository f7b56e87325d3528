(** MOS transistor model: large-signal current, small-signal parameters,
    parasitic capacitances, and the sizing procedures that form level 1 of
    the APE hierarchy (paper §4.1).

    Two views coexist deliberately:

    - {b Simulation view} ({!evaluate}, {!drain_current},
      {!small_signal}): a smooth single-expression model (EKV-style
      effective overdrive) valid in all regions, polarity- and
      terminal-order-agnostic, with refinements selected by the card's
      model level.  The MNA simulator stamps {!evaluate}, which returns
      the current together with its exact partial derivatives (the chain
      rule worked by hand through the same expression), so the
      linearisation is the derivative of the nonlinear equations, not an
      approximation of it.
    - {b Estimation view} ({!size_for_gm_id}, {!size_for_id_vov},
      {!operating_vgs}, {!size}): the paper's closed-form
      Level-1 equations (1)–(4), used by the estimator.  The small
      systematic gap between the two views is precisely the estimate-vs-
      simulation error the paper's tables measure. *)

type geom = {
  w : float;  (** drawn channel width, m *)
  l : float;  (** drawn channel length, m *)
}

val geom : w:float -> l:float -> geom
(** Raises [Invalid_argument] on non-positive dimensions. *)

val gate_area : geom -> float
(** W·L in m² — the paper's "gate area" metric. *)

type region = Cutoff | Triode | Saturation

type operating_point = {
  ids : float;  (** drain current, A; sign follows device convention *)
  region : region;
  vth : float;  (** threshold magnitude at this body bias, V *)
  vov : float;  (** effective overdrive magnitude, V *)
  vdsat : float;  (** saturation voltage magnitude, V *)
}

type small_signal = {
  gm : float;  (** gate transconductance, S (>= 0) *)
  gmb : float;  (** body transconductance, S (>= 0) *)
  gds : float;  (** output conductance, S (>= 0) *)
  cgs : float;
  cgd : float;
  cgb : float;
  cdb : float;
  csb : float;  (** capacitances, F (>= 0) *)
}

(** {1 Simulation view} *)

type evaluation = {
  ids : float;  (** drain current, as {!drain_current} returns it *)
  di_dvgs : float;  (** ∂ids/∂vgs, S *)
  di_dvds : float;  (** ∂ids/∂vds, S *)
  di_dvsb : float;  (** ∂ids/∂vsb, S *)
  region : region;
}

val evaluate :
  Ape_process.Model_card.t ->
  geom ->
  vgs:float ->
  vds:float ->
  vsb:float ->
  evaluation
(** One evaluation of the model at signed terminal voltages: the drain
    current, its exact partials in (vgs, vds, vsb) and the region.  The
    partials follow the current expression through the body-effect
    threshold (frozen where [phi + vsb] is clamped), BSIM1's [eta·vds]
    shift, the overdrive smoothing, the level-dependent KP and CLM, the
    polarity flip and the source/drain exchange.  The region classifies
    the voltages as given (no exchange, no [eta] shift), as
    {!operating_point} reports it. *)

val drain_current :
  Ape_process.Model_card.t ->
  geom ->
  vgs:float ->
  vds:float ->
  vsb:float ->
  float
(** Drain current with actual terminal voltages (volts, signed; for PMOS
    pass the physically signed values — internally the device frame is
    flipped).  The returned current is the conventional current flowing
    {e into} the drain terminal: positive for a conducting NMOS, negative
    for a conducting PMOS.  Smooth in all arguments; handles [vds < 0] by
    source/drain exchange.  It is [(evaluate ...).ids]. *)

val operating_point :
  Ape_process.Model_card.t ->
  geom ->
  vgs:float ->
  vds:float ->
  vsb:float ->
  operating_point

val small_signal :
  Ape_process.Model_card.t ->
  geom ->
  vgs:float ->
  vds:float ->
  vsb:float ->
  small_signal
(** Conductances are the magnitudes of {!evaluate}'s partials
    ([gmb] = |∂ids/∂vsb|); capacitances come from the charge model below
    at {!evaluate}'s region. *)

val capacitances :
  Ape_process.Model_card.t ->
  geom ->
  region:region ->
  vdb:float ->
  vsb:float ->
  float * float * float * float * float
(** [(cgs, cgd, cgb, cdb, csb)].  Intrinsic gate capacitance split by
    region (Meyer model: 2/3·WLC_ox to the source in saturation, half and
    half in triode, all to bulk in cutoff) plus overlap; junction caps use
    drain/source diffusions of width W and length 3·L_min with the
    [1/(1+V/PB)^MJ] bias dependence. *)

(** {1 Estimation view (paper equations (1)–(4))} *)

val est_vth : Ape_process.Model_card.t -> vsb:float -> float
(** Threshold magnitude with body effect (paper's V_th). *)

val est_gm : Ape_process.Model_card.t -> w_over_l:float -> ids:float -> float
(** gm = √(2·KP·(W/L)·|I_D|) — paper Eq. (2) in the KP = µC_ox
    convention. *)

val est_gmb : Ape_process.Model_card.t -> gm:float -> vsb:float -> float
(** gmb = gm·γ / (2√(2φ_f + V_SB)) — paper Eq. (3). *)

val est_gds :
  Ape_process.Model_card.t -> l:float -> ids:float -> vds:float -> float
(** gds = λ(L)·I_D / (1 + λ(L)·V_DS) — paper Eq. (4) with the λ(L)
    scaling of DESIGN.md D2. *)

val size_for_gm_id :
  Ape_process.Model_card.t -> gm:float -> ids:float -> float
(** W/L from a transconductance and current spec:
    W/L = gm² / (2·KP·I_D). *)

val size_for_id_vov :
  Ape_process.Model_card.t -> ids:float -> vov:float -> float
(** W/L from a current and overdrive spec: W/L = 2·I_D/(KP·V_ov²). *)

val operating_vgs :
  Ape_process.Model_card.t -> w_over_l:float -> ids:float -> vsb:float -> float
(** The V_GS magnitude that conducts [ids] in saturation:
    V_GS = V_T + V_ov with V_ov = √(2·I_D/(KP·W/L)), corrected through
    the inverse of the simulation model's overdrive smoothing so that a
    device biased at this V_GS actually conducts [ids] under
    {!drain_current} (the correction only matters below ~150 mV of
    overdrive). *)

(** {1 Sized transistor objects (the paper's level-1 "objects")} *)

type sized = {
  card : Ape_process.Model_card.t;
  geom : geom;
  ids : float;  (** bias current magnitude, A *)
  vgs : float;  (** gate-source magnitude, V *)
  vds : float;  (** drain-source magnitude assumed for the bias, V *)
  vsb : float;  (** source-body magnitude, V *)
  gm : float;
  gmb : float;
  gds : float;
  ss : small_signal;  (** full small-signal set incl. capacitances *)
}

type size_spec =
  | By_gm_id of { gm : float; ids : float; l : float }
      (** the paper's leading example: specify transconductance + current *)
  | By_id_vov of { ids : float; vov : float; l : float }
  | By_geom of { geom : geom; ids : float }
      (** explicit geometry carrying a current *)

val size :
  ?vds:float ->
  ?vsb:float ->
  process:Ape_process.Process.t ->
  Ape_process.Model_card.t ->
  size_spec ->
  sized
(** Build a sized-transistor object.  [vds] defaults to VDD/2 and [vsb]
    to 0 (both magnitudes).  Widths are clamped to
    [[wmin, wmax]] of the process; raises [Invalid_argument] if the spec
    is not realisable (non-positive gm/current). *)

val pp_sized : Format.formatter -> sized -> unit
