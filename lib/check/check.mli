(** Top-level differential verification: run the case catalog for the
    requested levels, gate every attribute against its declared
    tolerance, and (optionally) compare or promote the golden tables.

    This is the engine behind [ape verify] and the CI regression
    gate. *)

type level_result = {
  level : Tolerance.level;
  rows : Diff.row list;
  drifts : Golden.drift list;  (** golden mismatches (empty without a dir) *)
  promoted : bool;  (** true when this run rewrote the golden table *)
}

type outcome = { results : level_result list }

val run :
  ?slew:bool ->
  ?calibration:Ape_calib.Card.t ->
  ?golden_dir:string ->
  ?update:bool ->
  ?levels:Tolerance.level list ->
  Ape_process.Process.t ->
  outcome
(** [update] (or the env var [APE_UPDATE_GOLDEN=1]) promotes the fresh
    values into the golden tables instead of comparing.  [calibration]
    re-gates every estimate through the card's corrections; golden
    tables still persist (and compare) the {e raw} estimates, so one
    set of tables serves calibrated and raw runs alike. *)

val error_table : outcome -> Golden.error_entry list
(** Per-(level, attribute) max relative error, raw and calibrated —
    equal columns for an uncalibrated run.  This is what the frozen
    [calib_errors.tsv] snapshot and the calibration gate of
    [bench/main.exe gate] are built from. *)

val failures : outcome -> Diff.row list
val drifts : outcome -> Golden.drift list

val ok : outcome -> bool
(** No tolerance failures and no golden drift. *)

val render : ?tsv:bool -> outcome -> string
(** Per-level tables, drift messages, error summary and final verdict. *)
