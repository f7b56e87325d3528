module Card = Ape_calib.Card
module Fit = Ape_calib.Fit

(* Pair each row's raw estimate with its simulation (rows missing a
   side are dropped). *)
let samples_of_rows ~level ?(region_of_case = fun _ -> Card.All) rows =
  let level = Tolerance.level_name level in
  List.filter_map
    (fun (r : Diff.row) ->
      match (r.Diff.raw_est, r.Diff.sim) with
      | Some e, Some s ->
        Some
          {
            Fit.s_level = level;
            s_attr = r.Diff.attr;
            s_region = region_of_case r.Diff.case;
            s_est = e;
            s_sim = s;
          }
      | _ -> None)
    rows

(* The operating region of each Table 3 opamp, by case name (unknown
   cases map to [All]). *)
let opamp_region_of_case () =
  let regions =
    List.map
      (fun (case, (spec : Ape_estimator.Opamp.spec)) ->
        ( case,
          Card.region_of ~ugf:spec.Ape_estimator.Opamp.ugf
            ~ibias:spec.Ape_estimator.Opamp.ibias
            ~cl:spec.Ape_estimator.Opamp.cl ))
      (Cases.opamp_specs ())
  in
  fun case -> Option.value ~default:Card.All (List.assoc_opt case regions)

let catalog_samples ?slew process =
  List.concat
    [
      samples_of_rows ~level:Tolerance.Basic (Cases.basic_rows process);
      samples_of_rows ~level:Tolerance.Opamp
        ~region_of_case:(opamp_region_of_case ())
        (Cases.opamp_rows ?slew process);
      samples_of_rows ~level:Tolerance.Module_level (Cases.module_rows process);
    ]

(* Do-no-harm pass: a card fitted on grid + catalog samples minimises
   error over the *combined* set, which can in principle trade a little
   catalog error for a lot of grid error.  The CI gate is on the
   catalog (the Tables 2/3/5 goldens), so any (level, attr) whose
   catalog max error got worse is reset to identity — the gate
   "calibrated <= raw" then holds by construction. *)
let harden card ~samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Fit.sample) ->
      let key = (s.Fit.s_level, s.Fit.s_attr) in
      let raw = Fit.rel_err ~est:s.Fit.s_est ~sim:s.Fit.s_sim in
      let cal =
        Fit.rel_err
          ~est:
            (Card.apply card ~level:s.Fit.s_level ~attr:s.Fit.s_attr
               ~region:s.Fit.s_region s.Fit.s_est)
          ~sim:s.Fit.s_sim
      in
      match Hashtbl.find_opt tbl key with
      | Some (r0, c0) ->
        Hashtbl.replace tbl key (Float.max r0 raw, Float.max c0 cal)
      | None -> Hashtbl.replace tbl key (raw, cal))
    samples;
  let harmed level attr =
    match Hashtbl.find_opt tbl (level, attr) with
    | Some (raw_max, cal_max) -> cal_max > raw_max
    | None -> false
  in
  {
    card with
    Card.entries =
      List.map
        (fun (e : Card.entry) ->
          if harmed e.Card.level e.Card.attr then
            { e with Card.corr = Card.identity; cal_err = e.Card.raw_err }
          else e)
        card.Card.entries;
  }

let fit ?slew ?tol ?(extra = []) process =
  Ape_obs.span "calib.fit" @@ fun () ->
  let catalog = catalog_samples ?slew process in
  let card =
    Fit.fit ?tol ~process:process.Ape_process.Process.name (catalog @ extra)
  in
  harden card ~samples:catalog
