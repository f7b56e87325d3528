(** Small floating-point helpers shared across the code base. *)

val approx_equal : ?rtol:float -> ?atol:float -> float -> float -> bool
(** [approx_equal a b] is true when [|a - b| <= atol + rtol * max |a| |b|].
    Defaults: [rtol = 1e-9], [atol = 1e-12]. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [[lo, hi]].  Raises [Invalid_argument] if [lo > hi]. *)

val lerp : float -> float -> float -> float
(** [lerp a b t] is [a + t * (b - a)]. *)

val linspace : float -> float -> int -> float list
(** [linspace a b n] is [n] evenly spaced points from [a] to [b]
    inclusive.  [n >= 2]. *)

val logspace : float -> float -> int -> float list
(** [logspace a b n] is [n] log-spaced points from [a] to [b] inclusive;
    both must be positive. *)

val db_of_gain : float -> float
(** [20 * log10 |gain|]. *)

val gain_of_db : float -> float

val sq : float -> float

val rel_error : float -> float -> float
(** [rel_error reference measured] is [|measured - reference| / |reference|];
    when [reference = 0.] it is [|measured|]. *)

val mean : float list -> float
(** Arithmetic mean; raises [Invalid_argument] on the empty list. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values; raises [Invalid_argument] on the
    empty list. *)
