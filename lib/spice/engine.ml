module N = Ape_circuit.Netlist
module Mos = Ape_device.Mos
module Rmat = Ape_util.Matrix.Rmat

type index = {
  node_ids : (string, int) Hashtbl.t;
  branch_ids : (string, int) Hashtbl.t;
  n_nodes : int;
  total : int;
}

exception
  Engine_error of { analysis : string; node : string option; detail : string }

let engine_error ~analysis ?node detail =
  raise (Engine_error { analysis; node; detail })

let build_index netlist =
  let node_ids = Hashtbl.create 16 in
  List.iteri
    (fun i n -> Hashtbl.replace node_ids n i)
    (N.nodes netlist);
  let n_nodes = Hashtbl.length node_ids in
  let branch_ids = Hashtbl.create 4 in
  let next = ref n_nodes in
  List.iter
    (fun e ->
      match e with
      | N.Vsource { name; _ } | N.Vcvs { name; _ } ->
        Hashtbl.replace branch_ids name !next;
        incr next
      | N.Mosfet _ | N.Resistor _ | N.Capacitor _ | N.Isource _ | N.Switch _
        ->
        ())
    (N.elements netlist);
  { node_ids; branch_ids; n_nodes; total = !next }

let size idx = idx.total
let n_nodes idx = idx.n_nodes

let node_id idx n =
  if N.is_ground n then None else Hashtbl.find_opt idx.node_ids n

let branch_id idx name = Hashtbl.find_opt idx.branch_ids name

let branch_id_exn idx ~analysis name =
  match Hashtbl.find_opt idx.branch_ids name with
  | Some i -> i
  | None ->
    engine_error ~analysis ~node:name
      "no branch-current unknown for this element (index built from a \
       different netlist?)"

let node_voltage idx x n =
  match node_id idx n with
  | None -> 0.
  | Some i -> x.(i)

type stimulus = (string * (float -> float)) list

let volt idx x n = node_voltage idx x n

(* Accumulate [v] into residual slot for node [n] (ground rows are
   dropped). *)
let add_residual idx f n v =
  match node_id idx n with None -> () | Some i -> f.(i) <- f.(i) +. v

let source_value ~time ~stimulus ~name ~dc =
  match stimulus with
  | [] -> dc
  | list -> (
    match List.assoc_opt name list with
    | Some wave -> wave time
    | None -> dc)

(* Finite-difference partial derivatives of the drain current with
   respect to the four terminal voltages.  Differencing the same function
   the residual uses guarantees a consistent Jacobian. *)
let mos_partials card geom ~vd ~vg ~vs ~vb =
  let id vd vg vs vb =
    Mos.drain_current card geom ~vgs:(vg -. vs) ~vds:(vd -. vs)
      ~vsb:(vs -. vb)
  in
  let i0 = id vd vg vs vb in
  let h = 1e-6 in
  let gd = (id (vd +. h) vg vs vb -. id (vd -. h) vg vs vb) /. (2. *. h) in
  let gg = (id vd (vg +. h) vs vb -. id vd (vg -. h) vs vb) /. (2. *. h) in
  let gs = (id vd vg (vs +. h) vb -. id vd vg (vs -. h) vb) /. (2. *. h) in
  let gb = (id vd vg vs (vb +. h) -. id vd vg vs (vb -. h)) /. (2. *. h) in
  (i0, gd, gg, gs, gb)

(* Stamping core, parameterised on the Jacobian sink: the dense form
   passes [Rmat.add_to], the sparse engine a slot-cursor writer, and the
   plan builder a coordinate recorder.  The [add] call sequence is
   deterministic and independent of [x], [gmin], [source_scale] and
   [stimulus] — every element stamps the same positions in the same
   order whatever its state (the Switch stamps both branches
   identically) — which is what lets one recorded plan replay any
   number of numeric evaluations. *)
let stamp_core ~gmin ~source_scale ~time ~stimulus netlist idx x
    ~(add : int -> int -> float -> unit) f =
  let add_jac row col v =
    match (node_id idx row, node_id idx col) with
    | Some r, Some c -> add r c v
    | _ -> ()
  in
  let add_jac_row_unknown row col_unknown v =
    match node_id idx row with Some r -> add r col_unknown v | None -> ()
  in
  let add_jac_unknown_col row_unknown col v =
    match node_id idx col with Some c -> add row_unknown c v | None -> ()
  in
  (* gmin from every node to ground. *)
  for i = 0 to idx.n_nodes - 1 do
    f.(i) <- f.(i) +. (gmin *. x.(i));
    add i i gmin
  done;
  let conductance_stamp a b g =
    let va = volt idx x a and vb = volt idx x b in
    let i = g *. (va -. vb) in
    add_residual idx f a i;
    add_residual idx f b (-.i);
    add_jac a a g;
    add_jac a b (-.g);
    add_jac b a (-.g);
    add_jac b b g
  in
  List.iter
    (fun e ->
      match e with
      | N.Resistor { a; b; r; _ } -> conductance_stamp a b (1. /. r)
      | N.Capacitor _ -> () (* open in DC; transient adds companions *)
      | N.Switch { a; b; ctrl; ron; roff; vthreshold; _ } ->
        let g =
          if volt idx x ctrl > vthreshold then 1. /. ron else 1. /. roff
        in
        conductance_stamp a b g
      | N.Isource { name; p; n = nn; dc; _ } ->
        let value = source_scale *. source_value ~time ~stimulus ~name ~dc in
        (* Current flows from p through the source to n: leaves p. *)
        add_residual idx f p value;
        add_residual idx f nn (-.value)
      | N.Vsource { name; p; n = nn; dc; _ } ->
        let value = source_scale *. source_value ~time ~stimulus ~name ~dc in
        let br = branch_id_exn idx ~analysis:"mna" name in
        let ibr = x.(br) in
        add_residual idx f p ibr;
        add_residual idx f nn (-.ibr);
        add_jac_row_unknown p br 1.;
        add_jac_row_unknown nn br (-1.);
        f.(br) <- volt idx x p -. volt idx x nn -. value;
        add_jac_unknown_col br p 1.;
        add_jac_unknown_col br nn (-1.)
      | N.Vcvs { name; p; n = nn; cp; cn; gain } ->
        let br = branch_id_exn idx ~analysis:"mna" name in
        let ibr = x.(br) in
        add_residual idx f p ibr;
        add_residual idx f nn (-.ibr);
        add_jac_row_unknown p br 1.;
        add_jac_row_unknown nn br (-1.);
        f.(br) <-
          volt idx x p -. volt idx x nn
          -. (gain *. (volt idx x cp -. volt idx x cn));
        add_jac_unknown_col br p 1.;
        add_jac_unknown_col br nn (-1.);
        add_jac_unknown_col br cp (-.gain);
        add_jac_unknown_col br cn gain
      | N.Mosfet { card; d; g; s; b; geom; m; _ } ->
        (* M= parallel devices behave as one device of width m·W under
           the width-proportional current and capacitance models. *)
        let geom = { geom with Mos.w = geom.Mos.w *. m } in
        let vd = volt idx x d
        and vg = volt idx x g
        and vs = volt idx x s
        and vb = volt idx x b in
        let i0, gd, gg, gs, gb = mos_partials card geom ~vd ~vg ~vs ~vb in
        (* Drain current i0 enters the drain terminal: leaves node d,
           re-enters the circuit at the source node. *)
        add_residual idx f d i0;
        add_residual idx f s (-.i0);
        add_jac d d gd;
        add_jac d g gg;
        add_jac d s gs;
        add_jac d b gb;
        add_jac s d (-.gd);
        add_jac s g (-.gg);
        add_jac s s (-.gs);
        add_jac s b (-.gb))
    (N.elements netlist)

let residual_jacobian ?(gmin = 1e-12) ?(time = 0.) ?(stimulus = []) netlist
    idx x =
  let n = idx.total in
  let f = Array.make n 0. in
  let j = Rmat.create n n in
  stamp_core ~gmin ~source_scale:1. ~time ~stimulus netlist idx x
    ~add:(fun r c v -> Rmat.add_to j r c v)
    f;
  (f, j)

(* Capacitance stamping core, same sink parameterisation. *)
let caps_core netlist idx x ~(add : int -> int -> float -> unit) =
  let add_jac row col v =
    match (node_id idx row, node_id idx col) with
    | Some r, Some c -> add r c v
    | _ -> ()
  in
  let cap_stamp a b value =
    add_jac a a value;
    add_jac a b (-.value);
    add_jac b a (-.value);
    add_jac b b value
  in
  List.iter
    (fun e ->
      match e with
      | N.Capacitor { a; b; c = value; _ } -> cap_stamp a b value
      | N.Mosfet { card; d; g; s; b; geom; m; _ } ->
        (* M= parallel devices behave as one device of width m·W under
           the width-proportional current and capacitance models. *)
        let geom = { geom with Mos.w = geom.Mos.w *. m } in
        let vd = volt idx x d
        and vg = volt idx x g
        and vs = volt idx x s
        and vb = volt idx x b in
        let ss =
          Mos.small_signal card geom ~vgs:(vg -. vs) ~vds:(vd -. vs)
            ~vsb:(vs -. vb)
        in
        cap_stamp g s ss.Mos.cgs;
        cap_stamp g d ss.Mos.cgd;
        cap_stamp g b ss.Mos.cgb;
        cap_stamp d b ss.Mos.cdb;
        cap_stamp s b ss.Mos.csb
      | N.Resistor _ | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Switch _ ->
        ())
    (N.elements netlist)

let stamp_capacitances netlist idx x =
  let n = idx.total in
  let c = Rmat.create n n in
  caps_core netlist idx x ~add:(fun r col v -> Rmat.add_to c r col v);
  c

(* ------------------------------------------------------------------ *)
(* Sparse stamp plans                                                  *)
(* ------------------------------------------------------------------ *)

module Sp = Ape_util.Sparse

(* A plan compiles the deterministic stamp sequences into slot arrays
   over one shared sparsity pattern (the union of Jacobian and
   capacitance stamps, so one symbolic factorisation serves DC, AC and
   transient).  Built once per (netlist, index); every numeric pass is
   then a cursor replay with no hash lookups. *)
type plan = {
  p_pattern : Sp.pattern;
  p_jac : int array;  (* slot of the k-th Jacobian [add] call *)
  p_cap : int array;  (* slot of the k-th capacitance [add] call *)
}

let plan netlist idx =
  let n = idx.total in
  let x0 = Array.make n 0. in
  let f0 = Array.make n 0. in
  let b = Sp.Builder.create n in
  let jac_coords = ref [] and cap_coords = ref [] in
  stamp_core ~gmin:1e-12 ~source_scale:1. ~time:0. ~stimulus:[] netlist idx x0
    ~add:(fun r c _ ->
      Sp.Builder.add b r c;
      jac_coords := (r, c) :: !jac_coords)
    f0;
  caps_core netlist idx x0 ~add:(fun r c _ ->
      Sp.Builder.add b r c;
      cap_coords := (r, c) :: !cap_coords);
  let pattern = Sp.Builder.compile b in
  let slots coords =
    List.rev_map (fun (r, c) -> Sp.slot pattern ~row:r ~col:c) coords
    |> Array.of_list
  in
  { p_pattern = pattern; p_jac = slots !jac_coords; p_cap = slots !cap_coords }

let plan_pattern p = p.p_pattern

let sparse_residual ?(gmin = 1e-12) ?(source_scale = 1.) ?(time = 0.)
    ?(stimulus = []) plan netlist idx x vals =
  if Sp.Real.pattern vals != plan.p_pattern then
    invalid_arg "Engine.sparse_residual: pattern mismatch";
  Sp.Real.clear vals;
  let n = idx.total in
  let f = Array.make n 0. in
  let cursor = ref 0 in
  stamp_core ~gmin ~source_scale ~time ~stimulus netlist idx x
    ~add:(fun _ _ v ->
      Sp.Real.add_slot vals plan.p_jac.(!cursor) v;
      incr cursor)
    f;
  f

let sparse_capacitances plan netlist idx x vals =
  if Sp.Real.pattern vals != plan.p_pattern then
    invalid_arg "Engine.sparse_capacitances: pattern mismatch";
  Sp.Real.clear vals;
  let cursor = ref 0 in
  caps_core netlist idx x ~add:(fun _ _ v ->
      Sp.Real.add_slot vals plan.p_cap.(!cursor) v;
      incr cursor)

(* The Newton linear solve shared by the DC and transient loops.  The
   factor's symbolic analysis (pivot order) is done on the first step
   and replayed numerically on every later one — across Newton
   iterations, gmin/source-stepping stages and time steps alike, since
   the pattern never changes.  [ws_fac] drops back to [None] when a
   replay goes unstable, so the next step re-pivots. *)
type workspace = {
  ws_plan : plan;
  ws_jac : Sp.Real.t;
  mutable ws_fac : Sp.Real.factor option;
}

let workspace netlist idx =
  let ws_plan = plan netlist idx in
  { ws_plan; ws_jac = Sp.Real.create ws_plan.p_pattern; ws_fac = None }

let newton_step ws rhs =
  let fresh () =
    match Sp.Real.factor ws.ws_jac with
    | exception Sp.Singular -> None
    | fac ->
      ws.ws_fac <- Some fac;
      Some (Sp.Real.solve fac rhs)
  in
  match ws.ws_fac with
  | None -> fresh ()
  | Some fac -> (
    match Sp.Real.refactor fac ws.ws_jac with
    | () -> Some (Sp.Real.solve fac rhs)
    | exception (Sp.Unstable | Sp.Singular) ->
      ws.ws_fac <- None;
      fresh ())

let mosfet_small_signal netlist idx x =
  List.filter_map
    (fun e ->
      match e with
      | N.Mosfet { name; card; d; g; s; b; geom; m; _ } ->
        let geom = { geom with Mos.w = geom.Mos.w *. m } in
        let vd = volt idx x d
        and vg = volt idx x g
        and vs = volt idx x s
        and vb = volt idx x b in
        Some
          ( name,
            Mos.small_signal card geom ~vgs:(vg -. vs) ~vds:(vd -. vs)
              ~vsb:(vs -. vb) )
      | N.Resistor _ | N.Capacitor _ | N.Vsource _ | N.Isource _ | N.Vcvs _
      | N.Switch _ ->
        None)
    (N.elements netlist)
