(** Cost-function construction: "ASTRX/OBLX generates a cost function
    from the objectives, specifications, constraints and Kirchoff Laws"
    (paper §3).  Kirchhoff's laws are enforced by the embedded MNA solve;
    specifications become relative-violation penalties; objectives add a
    small pressure so the annealer prefers cheaper circuits among
    feasible ones. *)

type bound = At_least of float | At_most of float

type requirement = {
  metric : string;  (** key into the measurement *)
  bound : bound;
  weight : float;
}

val at_least : ?weight:float -> string -> float -> requirement
val at_most : ?weight:float -> string -> float -> requirement

type measurement = (string * float) list
(** metric name → measured value.  A missing metric counts as a gross
    violation (the circuit "doesn't work"). *)

val find : measurement -> string -> float option

type objective = { metric_o : string; scale : float; weight_o : float }
(** Adds [weight · value/scale] to the cost (minimisation pressure). *)

val minimize : ?weight:float -> string -> scale:float -> objective

type t = { requirements : requirement list; objectives : objective list }

val make : requirement list -> objective list -> t

val evaluate : t -> measurement option -> float
(** Total cost; [None] (an unevaluable candidate, e.g. DC
    non-convergence) costs 50. *)

val all_satisfied : t -> measurement -> bool

val calibrate : (string -> float -> float) -> measurement -> measurement
(** Map every metric value through a correction (e.g. a calibration
    card's per-attribute fit) before {!evaluate} judges it. *)
