(** One estimate-vs-simulation comparison per (case, attribute) — the
    cells of the paper's Tables 2/3/5 with an explicit pass/fail
    verdict attached. *)

type status =
  | Pass  (** gated and within tolerance *)
  | Fail
      (** gated and out of tolerance, or the estimate for a measurable
          attribute is missing *)
  | Info
      (** report-only attribute, or a gated attribute this testbench
          cannot measure (disappearing measurements surface as golden
          drift instead) *)
  | Skipped  (** neither side defines the attribute *)

val status_name : status -> string

type row = {
  case : string;
  attr : string;
  est : float option;  (** the gated estimate (corrected when calibrated) *)
  raw_est : float option;
      (** the uncorrected estimate; equal to [est] unless {!calibrate}
          changed it.  Golden tables persist this column, so one set of
          tables serves calibrated and raw runs alike. *)
  sim : float option;
  rel_err : float option;  (** |est − sim| / |sim|, when both exist *)
  gate : Tolerance.gate;
  status : status;
}

val calibrated : row -> bool
(** True when a correction actually moved this row's estimate. *)

val raw_rel_err : row -> float option
(** |raw_est − sim| / |sim|, when both exist. *)

val calibrate : f:(string -> float -> float option) -> row -> row
(** [calibrate ~f row] replaces the estimate with [f attr est] (when
    [Some] and different), recomputing error and status against the
    unchanged gate; [raw_est] keeps the original. *)

val make :
  case:string ->
  attr:string ->
  gate:Tolerance.gate ->
  est:float option ->
  sim:float option ->
  row

val rows_of_perf :
  case:string ->
  tols:Tolerance.t list ->
  Ape_estimator.Perf.t ->
  Ape_estimator.Perf.t ->
  row list
(** Rows for every attribute the tolerance set declares; [Skipped]
    rows (absent on both sides) are dropped. *)

val failures : row list -> row list
