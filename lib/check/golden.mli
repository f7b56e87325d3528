(** Golden-table persistence for the differential verifier.

    A golden table is a TSV snapshot of one level's (case, attribute,
    estimate, simulation) quadruples, checked into [test/golden/].
    Values are printed with {!Ape_util.Units.to_exact}, so a re-run on
    the same code recomputes them bit-identically; [compare_rows] then
    flags any drift beyond a tiny [rtol] (default 1e-6, i.e. only real
    behaviour changes, not formatting) in any attribute, CMRR included:
    with exact device partials its near-cancelled common-mode gain is
    well-conditioned.

    Promotion: rerun with [APE_UPDATE_GOLDEN=1] (or [ape verify
    --update]) to overwrite the tables with the fresh values, then
    review the diff like any other code change. *)

type entry = {
  case : string;
  attr : string;
  est : float option;
  sim : float option;
}

type drift = { case : string; attr : string; what : string }

val path : dir:string -> Tolerance.level -> string

val save : dir:string -> Tolerance.level -> Diff.row list -> unit
(** Creates [dir] if missing; overwrites the level's table. *)

val load : dir:string -> Tolerance.level -> entry list option
(** [None] when the level's table does not exist yet. *)

val compare_rows :
  ?rtol:float -> golden:entry list -> Diff.row list -> drift list
(** Empty list = fresh run matches the golden table. *)

val update_requested : unit -> bool
(** True when [APE_UPDATE_GOLDEN] is set to 1/true/yes. *)

(** {1 Calibrated-error snapshot}

    A frozen per-(level, attribute) table of max relative error before
    and after calibration ([calib_errors.tsv]), promoted through the
    same [--update]/[APE_UPDATE_GOLDEN=1] path as the value tables.
    Error values are ratios of nearly-cancelling quantities — est≈sim
    makes the relative error itself ill-conditioned — so comparisons
    take an absolute floor [atol] (default 2e-3) on top of [rtol]. *)

type error_entry = {
  e_level : string;
  e_attr : string;
  raw_max : float;
  cal_max : float;
}

val errors_path : dir:string -> string

val save_errors : dir:string -> error_entry list -> unit

val load_errors : dir:string -> error_entry list option
(** [None] when the table does not exist yet. *)

val compare_errors :
  ?rtol:float -> ?atol:float -> golden:error_entry list -> error_entry list ->
  drift list
(** Empty list = fresh errors match the frozen table.  [drift.case]
    carries the level name. *)
