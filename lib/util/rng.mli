(** Seeded random sources for the annealing engine and the property tests.

    A thin wrapper over [Random.State] so every stochastic component takes
    an explicit, reproducible source. *)

type t

val create : int -> t
(** Deterministic source from an integer seed. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent child sources keyed by index
    from a {e single} batch of parent draws: element [i] depends only on
    the parent state at call time and on [i], never on how many siblings
    exist or in what order they are consumed.  This is the Monte Carlo
    per-sample stream constructor — handing stream [i] to sample [i]
    makes results independent of worker count and scheduling. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] in [[lo, hi)]. *)

val log_uniform : t -> float -> float -> float
(** Log-uniform sample; [lo] and [hi] must be positive.  Natural for
    device widths spanning decades. *)

val gauss : t -> mean:float -> sigma:float -> float
(** Box–Muller normal sample. *)

val int : t -> int -> int
(** [int t n] in [[0, n)]. *)

val bool : t -> bool

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
