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
