module Table = Ape_util.Table
module Units = Ape_util.Units

let opt_cell = function None -> "-" | Some v -> Units.to_eng v

let gate_cell = function
  | Tolerance.Rel b -> Printf.sprintf "<= %.0f%%" (100. *. b)
  | Tolerance.Report_only -> "report"

let err_cell = function
  | None -> "-"
  | Some e when e >= 10. -> Printf.sprintf "%.0fx" e
  | Some e -> Printf.sprintf "%.1f%%" (100. *. e)

(* Calibrated runs grow raw-estimate/raw-error columns so the card's
   effect is visible per cell; raw runs keep the historical layout. *)
let ascii ~level rows =
  let calibrated = List.exists Diff.calibrated rows in
  let body =
    List.map
      (fun (r : Diff.row) ->
        [ r.Diff.case; r.Diff.attr; opt_cell r.Diff.est; opt_cell r.Diff.sim ]
        @ (if calibrated then
             [ opt_cell r.Diff.raw_est; err_cell (Diff.raw_rel_err r) ]
           else [])
        @ [
            err_cell r.Diff.rel_err;
            gate_cell r.Diff.gate;
            Diff.status_name r.Diff.status;
          ])
      rows
  in
  let header =
    [ "case"; "attr"; "est"; "sim" ]
    @ (if calibrated then [ "raw est"; "raw err" ] else [])
    @ [ (if calibrated then "cal err" else "rel err"); "gate"; "status" ]
  in
  Table.render_titled
    ~title:
      (Printf.sprintf "APE vs simulation, level: %s%s"
         (Tolerance.level_name level)
         (if calibrated then " (calibrated)" else ""))
    ~header body

let tsv rows =
  let calibrated = List.exists Diff.calibrated rows in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (if calibrated then
       "case\tattr\test\tsim\traw_est\traw_err\trel_err\tgate\tstatus\n"
     else "case\tattr\test\tsim\trel_err\tgate\tstatus\n");
  let cell = function None -> "-" | Some v -> Units.to_exact v in
  List.iter
    (fun (r : Diff.row) ->
      Buffer.add_string b
        (Printf.sprintf "%s\t%s\t%s\t%s\t%s%s\t%s\t%s\n" r.Diff.case r.Diff.attr
           (cell r.Diff.est) (cell r.Diff.sim)
           (if calibrated then
              Printf.sprintf "%s\t%s\t"
                (cell r.Diff.raw_est)
                (cell (Diff.raw_rel_err r))
            else "")
           (cell r.Diff.rel_err)
           (gate_cell r.Diff.gate)
           (Diff.status_name r.Diff.status)))
    rows;
  Buffer.contents b

(* Per-attribute error statistics over every row that produced one. *)
let stats_of err_of rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Diff.row) ->
      match err_of r with
      | None -> ()
      | Some e ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl r.Diff.attr) in
        Hashtbl.replace tbl r.Diff.attr (e :: prev))
    rows;
  let stats =
    Hashtbl.fold
      (fun attr errs acc ->
        let n = List.length errs in
        let sum = List.fold_left ( +. ) 0. errs in
        let mx = List.fold_left Float.max 0. errs in
        (attr, n, sum /. float_of_int n, mx) :: acc)
      tbl []
  in
  List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b) stats

(* [(attr, rows, mean, max)] relative-error statistics of the
   calibrated and of the raw estimates. *)
let attr_stats rows = stats_of (fun (r : Diff.row) -> r.Diff.rel_err) rows

let raw_attr_stats rows = stats_of Diff.raw_rel_err rows

let summary rows =
  if not (List.exists Diff.calibrated rows) then
    let body =
      List.map
        (fun (attr, n, mean, mx) ->
          [ attr; string_of_int n; err_cell (Some mean); err_cell (Some mx) ])
        (attr_stats rows)
    in
    Table.render ~header:[ "attr"; "rows"; "mean err"; "max err" ] body
  else
    let raw = raw_attr_stats rows in
    let body =
      List.map
        (fun (attr, n, mean, mx) ->
          let raw_max =
            List.find_map
              (fun (a, _, _, m) -> if a = attr then Some m else None)
              raw
          in
          [
            attr;
            string_of_int n;
            err_cell raw_max;
            err_cell (Some mean);
            err_cell (Some mx);
          ])
        (attr_stats rows)
    in
    Table.render
      ~header:[ "attr"; "rows"; "raw max"; "cal mean"; "cal max" ]
      body
