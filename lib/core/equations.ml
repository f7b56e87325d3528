module Expr = Ape_symbolic.Expr
module Parser = Ape_symbolic.Parser
module Solver = Ape_symbolic.Solver

(* Stated in the parser's concrete syntax so the equations read like
   the paper. *)
let eq2_gm = Parser.parse "sqrt(2 * kp * w_over_l * abs(ids))"
let eq3_gmb = Parser.parse "gm * gamma / (2 * sqrt(phi + vsb))"
let eq4_gd = Parser.parse "lambda * ids / (1 + lambda * abs(vds))"
let eq5_adm = Parser.parse "gmi / (gdl + gdi)"
let eq6_acm = Parser.parse "-(g0 * gdi) / (2 * gml * (gdl + gdi))"
let eq7_cmrr = Parser.parse "2 * gmi * gml / (g0 * gdi)"

let solve_wl_for_gm ~kp ~gm ~ids =
  let env = Expr.Env.of_list [ ("kp", kp); ("gm", gm); ("ids", ids) ] in
  Solver.solve_for ~var:"w_over_l" ~env
    (Solver.equation (Expr.var "gm") eq2_gm)

let sensitivity_gm_to_ids ~kp ~w_over_l ~ids =
  let env =
    Expr.Env.of_list [ ("kp", kp); ("w_over_l", w_over_l); ("ids", ids) ]
  in
  Solver.sensitivity ~var:"ids" ~env eq2_gm
