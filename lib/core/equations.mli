(** The paper's symbolic performance equations, as first-class
    {!Ape_symbolic.Expr} values.

    §4 of the paper presents the estimator as a library of "symbolic
    equations which relate the performance of the components to the
    circuit topology", numbered (1)–(7).  This module states them
    symbolically so they can be inspected, differentiated for
    sensitivities and inverted by the generic solver; the test suite
    cross-checks them against the hand-coded estimation functions
    (design choice D5 in DESIGN.md).

    Variable naming (all SI): [kp] (µC_ox), [w_over_l], [ids], [vgs],
    [vds], [vsb], [vth], [gamma], [phi] (2φ_f), [lambda], [gm], [gmi],
    [gml], [gdi], [gdl], [g0]. *)

val eq2_gm : Ape_symbolic.Expr.t
(** (2)  g_m = √(2·KP·(W/L)·|I_DS|)  (the paper's √(4·KP′·…) with
    KP′ = µC_ox/2; see DESIGN.md §6). *)

val eq3_gmb : Ape_symbolic.Expr.t
(** (3)  g_mb = g_m·γ / (2·√(2φ_f + V_SB)). *)

val eq4_gd : Ape_symbolic.Expr.t
(** (4)  g_d = λ·I_DS / (1 + λ·|V_DS|). *)

val eq5_adm : Ape_symbolic.Expr.t
(** (5)  A_dm ≈ g_mi / (g_dl + g_di). *)

val eq6_acm : Ape_symbolic.Expr.t
(** (6)  A_cm ≈ −g_0·g_di / (2·g_ml·(g_dl + g_di)). *)

val eq7_cmrr : Ape_symbolic.Expr.t
(** (7)  CMRR ≈ 2·g_mi·g_ml / (g_0·g_di). *)

val all : (string * Ape_symbolic.Expr.t) list
(** The seven equations keyed by "eq1".."eq7", for printing and
    generic iteration. *)

val solve_wl_for_gm :
  kp:float -> gm:float -> ids:float -> float
(** Invert (2) for W/L with the symbolic solver — the paper's
    "sizing process consists in solving these symbolic equations". *)

val sensitivity_gm_to_ids :
  kp:float -> w_over_l:float -> ids:float -> float
(** Normalised sensitivity (∂g_m/∂I·I/g_m) of (2); ½ for the square
    law, computed symbolically. *)
