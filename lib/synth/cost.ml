type bound = At_least of float | At_most of float

type requirement = { metric : string; bound : bound; weight : float }

let at_least ?(weight = 1.) metric v =
  { metric; bound = At_least v; weight }

let at_most ?(weight = 1.) metric v = { metric; bound = At_most v; weight }

type measurement = (string * float) list

let find m key = List.assoc_opt key m

(* Relative violation in [0, ∞): 0 when satisfied, a fixed large value
   (3.0) when the metric is absent. *)
let violation req m =
  match find m req.metric with
  | None -> 3.0
  | Some x -> (
    match req.bound with
    | At_least v ->
      if x >= v then 0. else (v -. x) /. Float.max 1e-30 (Float.abs v)
    | At_most v ->
      if x <= v then 0. else (x -. v) /. Float.max 1e-30 (Float.abs v))

let satisfied req m = violation req m = 0.

type objective = { metric_o : string; scale : float; weight_o : float }

let minimize ?(weight = 0.05) metric ~scale =
  { metric_o = metric; scale; weight_o = weight }

type t = { requirements : requirement list; objectives : objective list }

let make requirements objectives = { requirements; objectives }

let evaluate t = function
  | None -> 50.
  | Some m ->
    let penalty =
      List.fold_left
        (fun acc req -> acc +. (req.weight *. violation req m))
        0. t.requirements
    in
    let pressure =
      List.fold_left
        (fun acc o ->
          match find m o.metric_o with
          | Some x -> acc +. (o.weight_o *. (x /. o.scale))
          | None -> acc)
        0. t.objectives
    in
    penalty +. pressure

let all_satisfied t m = List.for_all (fun req -> satisfied req m) t.requirements

let calibrate f m = List.map (fun (k, v) -> (k, f k v)) m
