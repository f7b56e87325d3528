(** Streaming summary statistics for one Monte Carlo metric.

    Mean and variance are maintained by Welford's single-pass update
    (numerically stable even when σ ≪ |µ|, the usual situation for
    e.g. a 5 V supply with millivolt variation); the raw samples are
    also retained so exact quantiles and histograms are available after
    the run.  Accumulators are mutable and single-owner: the MC runner
    aggregates worker results sequentially in sample order, which is
    what makes statistics independent of the worker count. *)

type t

val create : unit -> t
val add : t -> float -> unit

val mean : t -> float
(** [nan] when empty. *)

val std : t -> float
(** Square root of the unbiased sample variance (n−1); [nan] when fewer
    than 2 samples. *)

val min_value : t -> float
val max_value : t -> float

val quantile : t -> float -> float
(** [quantile t q] for q in [[0,1]], linearly interpolated between order
    statistics (type-7); [nan] when empty. *)

type bin = { b_lo : float; b_hi : float; b_count : int }

val histogram : bins:int -> t -> bin array
(** Equal-width bins over [[min, max]]; empty array when no samples.
    All-identical samples land in bin 0. *)
