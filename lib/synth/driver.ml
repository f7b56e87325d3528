module E = Ape_estimator
module Obs = Ape_obs

type result = {
  row : Opamp_problem.row;
  mode : Opamp_problem.mode;
  meets_spec : bool;
  works : bool;
  gain : float option;
  ugf : float option;
  area : float;
  power : float;
  stats : Anneal.stats;
  best_values : (string * float) list;
  best_netlist : Ape_circuit.Netlist.t;
  comment : string;
  cache_hits : int;
  cache_lookups : int;
}

let comment_of (row : Opamp_problem.row) measurement =
  match measurement with
  | None -> "doesn't work."
  | Some m ->
    let get k = Cost.find m k in
    let biased =
      match get "vout_center" with Some v -> v <= 0.8 | None -> false
    in
    if not biased then "doesn't work."
    else begin
      let gain_ok =
        match get "gain" with
        | Some g -> g >= row.Opamp_problem.gain
        | None -> false
      in
      let ugf_ok =
        match get "ugf" with
        | Some u -> u >= row.Opamp_problem.ugf
        | None -> false
      in
      let area_ok =
        match get "area" with
        | Some a -> a <= row.Opamp_problem.area
        | None -> false
      in
      if gain_ok && ugf_ok && area_ok then "Meets spec"
      else begin
        let gain_val = Option.value ~default:0. (get "gain") in
        if gain_val < 0.5 *. row.Opamp_problem.gain then "Gain << Spec"
        else if not gain_ok then "Gain < spec"
        else if not ugf_ok then "UGF < spec"
        else begin
          let area_val = Option.value ~default:infinity (get "area") in
          if area_val > 3. *. row.Opamp_problem.area then "Area >> Spec"
          else "Area > spec"
        end
      end
    end

(* Post-synthesis yield: re-measure the best candidate's netlist on
   perturbed dies.  The sizing is frozen — only the model cards move —
   so this answers "how much of the spec margin did the annealer leave
   against process variation". *)
let yield_check process (row : Opamp_problem.row) netlist config =
  Obs.span "yield_check" @@ fun () ->
  let checks =
    [
      Ape_mc.Run.at_least "gain" row.Opamp_problem.gain;
      Ape_mc.Run.at_least "ugf" row.Opamp_problem.ugf;
    ]
  in
  let measure rng _i =
    let proc = Ape_mc.Variation.perturb rng Ape_mc.Variation.default process in
    let nl = Ape_circuit.Netlist.retarget_process proc netlist in
    match Opamp_problem.measure_netlist proc row nl with
    | None ->
      raise
        (Ape_spice.Dc.No_convergence
           (Printf.sprintf "mc-yield(%s): perturbed die did not converge"
              row.Opamp_problem.name))
    | Some m ->
      List.filter_map
        (fun k -> Option.map (fun v -> (k, v)) (Cost.find m k))
        [ "gain"; "ugf"; "power"; "area" ]
  in
  Ape_mc.Run.run ~checks config ~measure

let run ?(schedule = Anneal.default_schedule) ?(chains = 1) ?(jobs = 1) ?cache
    ?calibration ~rng process ~mode row =
  Obs.span "synth" @@ fun () ->
  let design =
    Obs.span "seed_design" (fun () ->
        match mode with
        | Opamp_problem.Wide -> Opamp_problem.strawman_design process row
        | Opamp_problem.Ape_centered _ -> Opamp_problem.ape_design process row)
  in
  let problem =
    Obs.span "build" (fun () ->
        Opamp_problem.build ?cache ?calibration process ~mode row design)
  in
  (* Time-to-spec: stop once every requirement is met, KCL is satisfied
     and only the small objective pressure remains. *)
  let stop_below = 0.05 in
  let best, stats =
    Obs.span "anneal" (fun () ->
        Anneal.optimize ~schedule ~stop_below ~chains ~jobs ~rng
          ~dim:problem.Opamp_problem.dim ~cost:problem.Opamp_problem.cost
          ~start:problem.Opamp_problem.start ())
  in
  let best_netlist, measurement =
    Obs.span "final_measure" (fun () -> problem.Opamp_problem.final best)
  in
  let comment = comment_of row measurement in
  let get k =
    match measurement with Some m -> Cost.find m k | None -> None
  in
  let meets_spec = String.equal comment "Meets spec" in
  let works = comment <> "doesn't work." in
  {
    row;
    mode;
    meets_spec;
    works;
    gain = get "gain";
    ugf = get "ugf";
    area = Option.value ~default:0. (get "area");
    power = Option.value ~default:0. (get "power");
    stats;
    best_values = problem.Opamp_problem.values best;
    best_netlist;
    comment;
    cache_hits = Est_cache.hits problem.Opamp_problem.cache;
    cache_lookups = Est_cache.lookups problem.Opamp_problem.cache;
  }
