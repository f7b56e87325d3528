(** Module-level synthesis problems — the Table 5 experiment: audio
    amplifier, sample-and-hold, flash ADC, low-pass and band-pass
    filters, each synthesised (a) standalone with wide intervals and a
    random start, and (b) APE-presized with ±20 % intervals.

    Unknown discovery is structural: MOSFETs of identical geometry and
    polarity inside the elaborated module are treated as matched groups
    sharing one width unknown; every fragment resistor and capacitor
    becomes a value unknown.  The flash ADC is synthesised through its
    unit comparator (all 2ⁿ−1 are identical replicas; the ladder is
    linear) with the area requirement scaled back to the full
    converter. *)

type kind =
  | M_audio of { gain : float; bandwidth : float }
  | M_sh of { gain : float; bandwidth : float; sr : float }
  | M_adc of { bits : int; delay : float }
  | M_lpf of { order : int; f_cutoff : float }
  | M_bpf of { f_center : float; q : float; gain : float }

val kind_name : kind -> string

type mode = Wide | Ape_centered of float

type problem = {
  kind : kind;
  template : Template.t;
  cost_model : Cost.t;
  dim : int;  (** sizes/passives + relaxed node voltages *)
  cost : float array -> float;
      (** KCL penalty + spec penalties measured at the relaxed bias
          point (see {!Relax}) *)
  final : float array -> Cost.measurement option;
      (** true Newton-DC measurement of a candidate, for verdicts *)
  start : Ape_util.Rng.t -> float array;
  area_scale : float;
      (** multiplier from the synthesised core's area to the full module
          (1 except for the ADC, where it is 2ⁿ−1) *)
  cache : Est_cache.t;
      (** the memo behind [cost] — keyed on the quantized point, so
          re-visited sizings skip the relaxed estimation entirely *)
}

val ape_module :
  Ape_process.Process.t -> kind -> Ape_estimator.Module_lib.design
(** The APE pass for the module. *)

val build :
  Ape_process.Process.t -> mode:mode -> area_max:float -> kind -> problem
(** [area_max] is the gate-area budget (of the full module), m².
    [cost] memoises through a fresh {!Est_cache}. *)

type result = {
  kind : kind;
  mode : mode;
  meets_spec : bool;
  works : bool;
  measured : Cost.measurement option;
  area : float;  (** full-module gate area, m² *)
  stats : Anneal.stats;
  cache_hits : int;  (** estimation-cache hits during the anneal *)
  cache_lookups : int;  (** total cost evaluations requested *)
}

val run :
  ?schedule:Anneal.schedule ->
  rng:Ape_util.Rng.t ->
  Ape_process.Process.t ->
  mode:mode ->
  area_max:float ->
  kind ->
  result
(** One annealing chain on [rng], stopping once the cost drops under
    0.05. *)
