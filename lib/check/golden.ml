type entry = {
  case : string;
  attr : string;
  est : float option;
  sim : float option;
}

type drift = { case : string; attr : string; what : string }

let file_of_level = function
  | Tolerance.Device -> "level1_device.tsv"
  | Tolerance.Basic -> "table2_basic.tsv"
  | Tolerance.Opamp -> "table3_opamps.tsv"
  | Tolerance.Module_level -> "table5_modules.tsv"

let path ~dir level = Filename.concat dir (file_of_level level)

let cell = function
  | None -> "-"
  | Some v -> Ape_util.Units.to_exact v

let parse_cell = function
  | "-" -> None
  | s -> (
    match float_of_string_opt s with
    | Some v -> Some v
    | None -> failwith (Printf.sprintf "golden table: unreadable number %S" s))

(* Tables persist the *raw* estimate, so a calibrated run compares
   against the same goldens as a raw one: the calibration card corrects
   what is gated, not what is frozen. *)
let entries_of_rows rows =
  List.map
    (fun (r : Diff.row) ->
      {
        case = r.Diff.case;
        attr = r.Diff.attr;
        est = r.Diff.raw_est;
        sim = r.Diff.sim;
      })
    rows

let save ~dir level rows =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (path ~dir level) in
  output_string oc
    "# APE differential-verification golden table (values are exact \
     float round-trips)\n";
  output_string oc "# case\tattr\test\tsim\n";
  List.iter
    (fun (e : entry) ->
      Printf.fprintf oc "%s\t%s\t%s\t%s\n" e.case e.attr (cell e.est)
        (cell e.sim))
    (entries_of_rows rows);
  close_out oc

let load ~dir level =
  let file = path ~dir level in
  if not (Sys.file_exists file) then None
  else begin
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else
          (match String.split_on_char '\t' line with
          | [ case; attr; est; sim ] ->
            go ({ case; attr; est = parse_cell est; sim = parse_cell sim } :: acc)
          | _ ->
            failwith
              (Printf.sprintf "golden table %s: malformed line %S" file line))
    in
    let entries = go [] in
    close_in ic;
    Some entries
  end

let same rtol a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a = b || Float.abs (a -. b) <= rtol *. Float.max (Float.abs a) (Float.abs b)
  | _ -> false

let describe golden fresh =
  Printf.sprintf "golden %s, fresh %s" (cell golden) (cell fresh)

let compare_rows ?(rtol = 1e-6) ~golden rows =
  let fresh = entries_of_rows rows in
  let key (e : entry) = (e.case, e.attr) in
  let drifts = ref [] in
  let push case attr what = drifts := { case; attr; what } :: !drifts in
  List.iter
    (fun (g : entry) ->
      match List.find_opt (fun f -> key f = key g) fresh with
      | None -> push g.case g.attr "row disappeared from the fresh run"
      | Some f ->
        if not (same rtol g.est f.est) then
          push g.case g.attr ("est drift: " ^ describe g.est f.est)
        else if not (same rtol g.sim f.sim) then
          push g.case g.attr ("sim drift: " ^ describe g.sim f.sim))
    golden;
  List.iter
    (fun f ->
      if not (List.exists (fun g -> key g = key f) golden) then
        push f.case f.attr "new row absent from the golden table")
    fresh;
  List.rev !drifts

let update_requested () =
  match Sys.getenv_opt "APE_UPDATE_GOLDEN" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Calibrated-error snapshot: per-(level, attr) max relative error     *)
(* before and after calibration, frozen alongside the value tables.    *)
(* Error values are ratios of nearly-cancelling quantities, so the     *)
(* comparison takes an absolute floor on top of [rtol].                *)
(* ------------------------------------------------------------------ *)

type error_entry = {
  e_level : string;
  e_attr : string;
  raw_max : float;
  cal_max : float;
}

let errors_file = "calib_errors.tsv"

let errors_path ~dir = Filename.concat dir errors_file

let save_errors ~dir entries =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (errors_path ~dir) in
  output_string oc
    "# APE calibrated-vs-raw max relative error per (level, attr)\n";
  output_string oc "# level\tattr\traw_max\tcal_max\n";
  List.iter
    (fun e ->
      Printf.fprintf oc "%s\t%s\t%s\t%s\n" e.e_level e.e_attr
        (Ape_util.Units.to_exact e.raw_max)
        (Ape_util.Units.to_exact e.cal_max))
    entries;
  close_out oc

let load_errors ~dir =
  let file = errors_path ~dir in
  if not (Sys.file_exists file) then None
  else begin
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else
          (match String.split_on_char '\t' line with
          | [ e_level; e_attr; raw; cal ] ->
            let num s =
              match float_of_string_opt s with
              | Some v -> v
              | None ->
                failwith
                  (Printf.sprintf "error table %s: unreadable number %S" file s)
            in
            go ({ e_level; e_attr; raw_max = num raw; cal_max = num cal } :: acc)
          | _ ->
            failwith
              (Printf.sprintf "error table %s: malformed line %S" file line))
    in
    let entries = go [] in
    close_in ic;
    Some entries
  end

let compare_errors ?(rtol = 1e-6) ?(atol = 2e-3) ~golden entries =
  let close a b =
    a = b
    || Float.abs (a -. b)
       <= Float.max atol (rtol *. Float.max (Float.abs a) (Float.abs b))
  in
  let key e = (e.e_level, e.e_attr) in
  let drifts = ref [] in
  let push level attr what = drifts := { case = level; attr; what } :: !drifts in
  List.iter
    (fun g ->
      match List.find_opt (fun f -> key f = key g) entries with
      | None -> push g.e_level g.e_attr "row disappeared from the fresh run"
      | Some f ->
        if not (close g.raw_max f.raw_max) then
          push g.e_level g.e_attr
            (Printf.sprintf "raw error drift: golden %s, fresh %s"
               (cell (Some g.raw_max)) (cell (Some f.raw_max)))
        else if not (close g.cal_max f.cal_max) then
          push g.e_level g.e_attr
            (Printf.sprintf "calibrated error drift: golden %s, fresh %s"
               (cell (Some g.cal_max)) (cell (Some f.cal_max))))
    golden;
  List.iter
    (fun f ->
      if not (List.exists (fun g -> key g = key f) golden) then
        push f.e_level f.e_attr "new row absent from the golden table")
    entries;
  List.rev !drifts
