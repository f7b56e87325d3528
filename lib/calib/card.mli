(** Versioned calibration cards: persisted per-attribute, per-region
    affine corrections fitted by {!Fit} and consumed by the estimator
    composition paths ([Check.run ?calibration],
    [Synth.Driver.run ?calibration]).

    Card format (canonical print, one fit per line):
    {v
    (calibration-card
     (version 1)
     (process c12)
     (fit (level opamp) (attr gain) (region low)
          (scale 1.02) (bias -3.1) (n 24) (raw-err 0.12) (cal-err 0.02)))
    v}

    [print] is canonical — entries sorted by (level, attr, region),
    floats in exact round-trip notation — so print→parse→print is a
    fixpoint, the property CI relies on for the jobs-1-vs-3 card diff.
    Cards are read through {!Ape_util.Sexpr}'s field layer: positioned
    errors, [fit] the only repeatable key, unknown keys rejected, and
    finite numbers that may take SPICE suffixes ([1.5meg]) for
    hand-edited cards. *)

(** Operating region of the fitted correction.  [All] entries act as
    the fallback when no exact-region entry matches. *)
type region = Low | Mid | High | All

val region_name : region -> string

val region_of : ugf:float -> ibias:float -> cl:float -> region
(** Classify an opamp design point by speed pressure
    2π·UGF·C_L/I_bias (1/V): < 120 → [Low], < 300 → [Mid], else
    [High].  Composition error concentrates at high pressure, where
    the single-pole model under-predicts. *)

type corr = { scale : float; bias : float }
(** Corrected value = [scale]·raw + [bias]. *)

val identity : corr
val is_identity : corr -> bool
val correct : corr -> float -> float

type entry = {
  level : string;  (** tolerance-level name: basic / opamp / module *)
  attr : string;
  region : region;
  corr : corr;
  n : int;  (** fitting-sample count *)
  raw_err : float;  (** max relative error before correction *)
  cal_err : float;  (** max relative error after correction *)
}

type t = { version : int; process : string; entries : entry list }

val version : int
(** The card format version this build reads and writes. *)

exception Parse_error of { pos : Ape_util.Sexpr.pos option; msg : string }

val describe_error : pos:Ape_util.Sexpr.pos option -> msg:string -> string
(** ["calibration card: 3:14: unknown fit field ..."]. *)

val find : t -> level:string -> attr:string -> region:region -> entry option
(** Exact (level, attr, region) entry, falling back to the (level,
    attr, [All]) entry when the region has none. *)

val apply : t -> level:string -> attr:string -> region:region -> float -> float
(** Corrected value; the raw value when the card has no entry. *)

val is_identity_card : t -> bool

val sort_entries : entry list -> entry list
(** Canonical (level, attr, region) order. *)

val print : t -> string
val parse : string -> t
val load : string -> t

val save : string -> t -> unit
(** [save file t] writes [print t]. *)
