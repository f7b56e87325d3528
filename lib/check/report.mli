(** Rendering for verification results: aligned ASCII for humans,
    TSV for machines, plus the per-attribute error summary quoted in
    EXPERIMENTS.md. *)

val ascii : level:Tolerance.level -> Diff.row list -> string

val tsv : Diff.row list -> string
(** Columns: case, attr, est, sim, rel_err, gate, status — floats in
    exact round-trip notation. *)

val summary : Diff.row list -> string
(** Per-attribute row count, mean and max relative error. *)
