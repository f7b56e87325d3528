(** Solving the estimator's symbolic equations.

    The paper's sizing process "consists in solving these symbolic
    equations such that the constraints are met" (§4.1).  For the
    closed-form cases the estimator inverts equations directly; for the
    rest this module provides numeric inversion of a single unknown with
    symbolic-derivative Newton and a bracketing fallback. *)

type equation = { lhs : Expr.t; rhs : Expr.t }
(** An equation [lhs = rhs]. *)

val equation : Expr.t -> Expr.t -> equation

exception No_solution of string

val solve_for :
  ?lo:float ->
  ?hi:float ->
  ?guess:float ->
  var:string ->
  env:Expr.Env.t ->
  equation ->
  float
(** [solve_for ~var ~env eqn] finds a value of [var] making the equation
    hold, with every other free variable bound by [env].

    Strategy: symbolic-derivative Newton from [guess] (default: midpoint
    of [[lo, hi]] or 1.0), falling back to Brent on the expanding bracket
    [[lo, hi]] (defaults [1e-12, 1e12]).  Raises {!No_solution} when both
    fail or the equation has remaining unbound variables. *)

val solve_system_1d :
  var:string ->
  env:Expr.Env.t ->
  equation list ->
  float
(** Least-squares-free exact solve of several equations sharing one
    unknown: solves the first and checks the rest hold within 0.1 %
    (raises {!No_solution} otherwise).  Used to cross-check redundant
    composition equations. *)

val sensitivity :
  var:string -> env:Expr.Env.t -> Expr.t -> float
(** Normalised sensitivity [ (x / f) * df/dx ] evaluated at [env]; the
    classic first-order design sensitivity.  Raises [Division_by_zero]
    via {!Expr.Domain_error} when [f] evaluates to 0. *)
