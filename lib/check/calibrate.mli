(** Catalog-anchored calibration: fit a {!Ape_calib.Card} from the
    differential-verification catalog (the paper's Tables 2/3/5 cases)
    plus any extra grid samples, then harden it so calibrated error
    can never exceed raw error on the catalog itself.

    This is the engine behind [ape calibrate]: {!Ape_calib.Grid}
    supplies breadth (random design points across the spec space), the
    catalog supplies the anchor the CI gate measures on, and hardening
    makes "calibrated ≤ raw on the goldens" true by construction. *)

val fit :
  ?slew:bool ->
  ?tol:float ->
  ?extra:Ape_calib.Fit.sample list ->
  Ape_process.Process.t ->
  Ape_calib.Card.t
(** Catalog + [extra] samples → fitted, hardened card ([tol] as in
    {!Ape_calib.Fit.fit}). *)
