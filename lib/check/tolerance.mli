(** Named per-attribute tolerances, one set per level of the APE
    hierarchy (paper §4: transistors → basic circuits → opamps →
    modules).

    Each attribute of a level is either {e gated} — the relative
    estimate-vs-simulation error must stay within a declared bound, and
    [ape verify]/CI fail when it does not — or {e report-only}:
    measured and tabulated, but known to be a rough estimate (the
    paper's own tables show CMRR and slew off by large factors) and
    therefore not a gate. *)

type level = Device | Basic | Opamp | Module_level

val level_name : level -> string
val level_of_name : string -> level option
val all_levels : level list

type gate =
  | Rel of float  (** max allowed |est − sim| / |sim| *)
  | Report_only  (** tabulated but never failing *)

type t = { attr : string; gate : gate }

val for_level : level -> t list
(** The declared tolerance set of a level.  Attributes not listed are
    not compared at that level. *)

val find : t list -> string -> t option

val register_golden_rtol : attr:string -> float -> unit
(** Declare that golden-table comparisons of [attr] need a widened
    relative tolerance (the entry is global; last registration wins).
    Ill-conditioned attributes — CMRR is pre-registered at 1e-3 — are
    legitimately moved beyond the default 1e-6 by a last-bit change in
    the underlying solve (e.g. a different elimination order). *)

val golden_rtol : rtol:float -> string -> float
(** The comparison tolerance for one attribute: the registered value
    when wider than [rtol], else [rtol] itself. *)
