(** Closed real intervals: the search ranges of synthesis unknowns
    (ASTRX/OBLX-style "allowable value" intervals). *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi].  Raises [Invalid_argument] if [lo > hi] or either bound
    is NaN. *)

val of_center : ?pct:float -> float -> t
(** [of_center ~pct x] is the interval [x] ± [pct] (fraction, default 0.2
    — the paper's ±20 %).  Works for negative centres: bounds are sorted. *)

val lo : t -> float
val hi : t -> float
val width : t -> float
