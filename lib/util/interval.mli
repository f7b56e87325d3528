(** Closed real intervals.

    Used for two distinct purposes that share the same arithmetic: the
    search ranges of synthesis unknowns (ASTRX/OBLX-style "allowable
    value" intervals), and the directed interval constraint transformation
    of the VASE front end. *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi].  Raises [Invalid_argument] if [lo > hi] or either bound
    is NaN. *)

val point : float -> t
(** Degenerate interval [[x, x]]. *)

val of_center : ?pct:float -> float -> t
(** [of_center ~pct x] is the interval [x] ± [pct] (fraction, default 0.2
    — the paper's ±20 %).  Works for negative centres: bounds are sorted. *)

val lo : t -> float
val hi : t -> float
val width : t -> float
val mid : t -> float
val contains : t -> float -> bool

val clamp : t -> float -> float
(** Clamp a value into the interval. *)

val intersect : t -> t -> t option
val hull : t -> t -> t

(** {1 Interval arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Raises [Division_by_zero] when the divisor contains 0. *)

val scale : float -> t -> t
val inv : t -> t

val map_monotone : (float -> float) -> t -> t
(** Image of the interval under a monotone function (increasing or
    decreasing: the result bounds are sorted). *)

val sample : Random.State.t -> t -> float
(** Uniform sample inside the interval. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
