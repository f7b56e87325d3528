(** Golden-table persistence for the differential verifier.

    A golden table is a TSV snapshot of one level's (case, attribute,
    estimate, simulation) quadruples, checked into [test/golden/].
    Values are printed with {!Ape_util.Units.to_exact}, so a re-run on
    the same code recomputes them bit-identically; [compare_rows] then
    flags any drift beyond a relative 1e-6 (only real behaviour changes,
    not formatting) in any attribute, CMRR included:
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

val compare_rows : golden:entry list -> Diff.row list -> drift list
(** Empty list = fresh run matches the golden table. *)

val update_requested : unit -> bool
(** True when [APE_UPDATE_GOLDEN] is set to 1/true/yes. *)

(** One row of a per-(level, attribute) table of max relative error
    before and after calibration (see [Check.error_table]). *)
type error_entry = {
  e_level : string;
  e_attr : string;
  raw_max : float;
  cal_max : float;
}
