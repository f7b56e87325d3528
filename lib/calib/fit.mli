(** Correction-model fitting: turn (estimate, simulation) sample pairs
    into a {!Card}.

    Samples are grouped by (level, attr, region); each group gets the
    best of three candidates — identity, scale-only least squares, and
    affine least squares (normal equations, requiring n ≥ 3 and
    x-variance) — judged by {e max} relative error over the group's
    own samples, so the selected correction is never worse than
    identity on its fitting data.  Groups whose raw residual is
    already within [tol] (default 2 %) keep the identity correction,
    recorded as an explicit "checked, already fine" entry.  Fits with
    non-positive or non-finite scale are discarded.  Area attributes
    are never calibrated (they are exact by construction and gated at
    1e-6). *)

type sample = {
  s_level : string;  (** tolerance-level name: basic / opamp / module *)
  s_attr : string;
  s_region : Card.region;
  s_est : float;
  s_sim : float;
}

val calibratable : string -> bool
(** False for the area attributes. *)

val rel_err : est:float -> sim:float -> float

val fit : ?tol:float -> process:string -> sample list -> Card.t
(** Non-finite samples and non-calibratable attributes are dropped;
    entries come out in canonical card order. *)
