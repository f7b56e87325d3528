(** Small floating-point helpers shared across the code base. *)

val approx_equal : ?rtol:float -> ?atol:float -> float -> float -> bool
(** [approx_equal a b] is true when [|a - b| <= atol + rtol * max |a| |b|].
    Defaults: [rtol = 1e-9], [atol = 1e-12]. *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp into [[lo, hi]].  Raises [Invalid_argument] if [lo > hi]. *)

val lerp : float -> float -> float -> float
(** [lerp a b t] is [a + t * (b - a)]. *)

val logspace : float -> float -> int -> float list
(** [logspace a b n] is [n] log-spaced points from [a] to [b] inclusive;
    both must be positive. *)

val db_of_gain : float -> float
(** [20 * log10 |gain|]. *)

val gain_of_db : float -> float
