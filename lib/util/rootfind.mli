(** One-dimensional root finding.

    The symbolic solver solves its sizing equations with these; the
    measurement extractor and the verify benches use {!brent} to locate
    crossings. *)

exception No_bracket
(** Raised when a bracketing step cannot find a sign change. *)

exception No_convergence
(** Raised when the iteration budget is exhausted. *)

val brent : ?tol:float -> (float -> float) -> float -> float -> float
(** [brent f lo hi] finds a root of [f] in [[lo, hi]] by Brent's method
    (inverse quadratic interpolation + secant + bisection, at most 100
    iterations).  [f lo] and [f hi] must have opposite signs (raises
    {!No_bracket} otherwise).  [tol] is the x tolerance relative to
    [1 + |x|] (default 1e-13). *)

val newton : f:(float -> float) -> df:(float -> float) -> float -> float
(** Newton–Raphson from an initial guess, to a step below 1e-12 relative
    in at most 60 iterations.  Raises {!No_convergence} if it fails;
    callers typically fall back to {!brent}. *)

val expand_bracket : (float -> float) -> float -> float -> float * float
(** [expand_bracket f lo hi] grows the interval outward about its middle,
    by 1.6× per step, until [f] changes sign across it; raises
    {!No_bracket} after 60 steps. *)
