(** Plain-ASCII rendering of Monte Carlo reports, shared by the
    [ape mc] CLI, the bench harness and the tests. *)

val metric_table : Run.report -> string
(** One row per metric: mean, std, min, q05/q50/q95, max
    (engineering-formatted). *)

val to_string : ?histograms:string list -> Run.report -> string
(** The summary (samples/jobs/seed/throughput, failure count, overall
    yield and per-check yields), the {!metric_table}, and per requested
    metric a 10-bin, 40-column ASCII histogram annotated with the
    worst-case low and high sample indices ("which die was the
    outlier"). *)
