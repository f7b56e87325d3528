module N = Ape_circuit.Netlist

type op = {
  netlist : N.t;
  index : Engine.index;
  x : float array;
  iterations : int;
}

exception No_convergence of string

let c_solves = Ape_obs.counter "dc.solves"
let c_newton_iters = Ape_obs.counter "dc.newton_iters"
let c_failures = Ape_obs.counter "dc.no_convergence"
let c_index_reuses = Ape_obs.counter "dc.index_reuses"

let max_norm a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. a

(* One damped-Newton solve at a fixed (gmin, source_scale); updates [x]
   in place and returns iterations used, or None on failure.  It
   converges when the largest node-voltage step is below 1 nV and the
   residual below 1 pA (or 1e-6 · gmin).  [ws] carries the Jacobian
   values and factor across iterations and stages. *)
let newton ?(max_iter = 150) ?(damping = 0.5) ~ws ~gmin ~source_scale netlist
    index x =
  let n_nodes = Engine.n_nodes index in
  let rec loop iter =
    if iter > max_iter then None
    else begin
      let f =
        Engine.sparse_residual ~gmin ~source_scale netlist index x
          ws.Engine.ws_jac
      in
      match Engine.newton_step ws (Array.map (fun v -> -.v) f) with
      | None -> None
      | Some dx when Array.exists Float.is_nan dx -> None
      | Some dx ->
        (* Damping: limit node-voltage steps to 0.5 V. *)
        let worst_dv = ref 0. in
        Array.iteri
          (fun i d ->
            let d =
              if i < n_nodes then
                Ape_util.Float_ext.clamp ~lo:(-.damping) ~hi:damping d
              else d
            in
            if i < n_nodes then worst_dv := Float.max !worst_dv (Float.abs d);
            x.(i) <- x.(i) +. d)
          dx;
        if !worst_dv < 1e-9 && max_norm f < Float.max 1e-12 (1e-6 *. gmin)
        then Some iter
        else loop (iter + 1)
    end
  in
  loop 1

let initial_guess netlist index =
  let x = Array.make (Engine.size index) 0. in
  (* Start from the average of supply values: keeps diff pairs away from
     the flat region at 0 V. *)
  let supplies =
    List.filter_map
      (fun e ->
        match e with
        | N.Vsource { dc; _ } -> Some dc
        | N.Mosfet _ | N.Resistor _ | N.Capacitor _ | N.Isource _ | N.Vcvs _
        | N.Switch _ ->
          None)
      (N.elements netlist)
  in
  let v0 =
    match supplies with
    | [] -> 1.
    | _ ->
      List.fold_left Float.max 0. supplies /. 2.
  in
  for i = 0 to Engine.n_nodes index - 1 do
    x.(i) <- v0
  done;
  x

let solve_impl ?(max_iter = 150) ?x0 ?index netlist =
  N.validate netlist;
  let index =
    match index with
    | Some index ->
      Ape_obs.incr c_index_reuses;
      index
    | None -> Engine.build_index netlist
  in
  let x =
    match x0 with
    | Some x ->
      if Array.length x <> Engine.size index then
        invalid_arg "Dc.solve: x0 size mismatch";
      Array.copy x
    | None -> initial_guess netlist index
  in
  let ws = Engine.workspace index in
  let try_newton ~gmin ~source_scale x =
    newton ~max_iter ~ws ~gmin ~source_scale netlist index x
  in
  (* Plain Newton first. *)
  match try_newton ~gmin:1e-12 ~source_scale:1. x with
  | Some iters -> { netlist; index; x; iterations = iters }
  | None -> (
    (* gmin stepping: heavy shunt conductance first, relax gradually,
       warm-starting each stage. *)
    let x = initial_guess netlist index in
    let gmins = [ 1e-2; 1e-4; 1e-6; 1e-8; 1e-10; 1e-12 ] in
    let gmin_ok =
      List.for_all
        (fun gmin ->
          match try_newton ~gmin ~source_scale:1. x with
          | Some _ -> true
          | None -> false)
        gmins
    in
    if gmin_ok then
      match try_newton ~gmin:1e-12 ~source_scale:1. x with
      | Some iters -> { netlist; index; x; iterations = iters }
      | None ->
        raise
          (No_convergence
             (Printf.sprintf
                "dc(%s): gmin stepping converged at every stage but lost \
                 convergence at the final gmin"
                netlist.N.title))
    else begin
      (* Source stepping. *)
      let x = Array.make (Engine.size index) 0. in
      let steps = [ 0.1; 0.2; 0.4; 0.6; 0.8; 0.9; 1.0 ] in
      let ok =
        List.for_all
          (fun scale ->
            match try_newton ~gmin:1e-9 ~source_scale:scale x with
            | Some _ -> true
            | None -> false)
          steps
      in
      let finish_from x =
        match try_newton ~gmin:1e-12 ~source_scale:1. x with
        | Some iters -> Some { netlist; index; x; iterations = iters }
        | None -> None
      in
      let result =
        if ok then finish_from x
        else begin
          (* Last resort: heavily damped Newton (small steps track the
             continuation path through near-singular regions). *)
          let x = initial_guess netlist index in
          match
            newton ~max_iter:800 ~damping:0.05 ~ws ~gmin:1e-9
              ~source_scale:1. netlist index x
          with
          | Some _ -> finish_from x
          | None -> None
        end
      in
      match result with
      | Some op -> op
      | None ->
        raise
          (No_convergence
             (Printf.sprintf
                "dc(%s): Newton, gmin stepping, source stepping and damped \
                 Newton all failed (max_iter=%d, %d unknowns)"
                netlist.N.title max_iter (Engine.size index)))
    end)

let solve ?max_iter ?x0 ?index netlist =
  Ape_obs.incr c_solves;
  match solve_impl ?max_iter ?x0 ?index netlist with
  | op ->
    Ape_obs.add c_newton_iters op.iterations;
    op
  | exception (No_convergence _ as e) ->
    Ape_obs.incr c_failures;
    raise e

let voltage op node = Engine.node_voltage op.index op.x node

let branch_current op name =
  match Engine.branch_id op.index name with
  | None -> None
  | Some i -> Some op.x.(i)

(* Magnitude of the current delivered by the named V-source; raises
   [Not_found] for an unknown name. *)
let supply_current op name =
  match branch_current op name with
  | Some i -> Float.abs i
  | None -> raise Not_found

let static_power op ~supply =
  let dc =
    List.find_map
      (fun e ->
        match e with
        | N.Vsource { name; dc; _ } when String.equal name supply -> Some dc
        | N.Mosfet _ | N.Resistor _ | N.Capacitor _ | N.Vsource _
        | N.Isource _ | N.Vcvs _ | N.Switch _ ->
          None)
      (N.elements op.netlist)
  in
  match dc with
  | None -> raise Not_found
  | Some v -> Float.abs v *. supply_current op supply

let mosfet_regions op =
  List.filter_map
    (fun e ->
      match e with
      | N.Mosfet { name; card; d; g; s; b; geom; m; _ } ->
        let geom =
          { geom with Ape_device.Mos.w = geom.Ape_device.Mos.w *. m }
        in
        let vd = voltage op d
        and vg = voltage op g
        and vs = voltage op s
        and vb = voltage op b in
        let point =
          Ape_device.Mos.operating_point card geom ~vgs:(vg -. vs)
            ~vds:(vd -. vs) ~vsb:(vs -. vb)
        in
        Some (name, point.Ape_device.Mos.region, point.Ape_device.Mos.ids)
      | N.Resistor _ | N.Capacitor _ | N.Vsource _ | N.Isource _ | N.Vcvs _
      | N.Switch _ ->
        None)
    (N.elements op.netlist)

let pp fmt op =
  Format.fprintf fmt "operating point (%d iterations):@." op.iterations;
  List.iter
    (fun n -> Format.fprintf fmt "  V(%s) = %.6g@." n (voltage op n))
    (N.nodes op.netlist);
  List.iter
    (fun (name, region, ids) ->
      Format.fprintf fmt "  %s: %s Id=%s@." name
        (match region with
        | Ape_device.Mos.Cutoff -> "cutoff"
        | Ape_device.Mos.Triode -> "triode"
        | Ape_device.Mos.Saturation -> "saturation")
        (Ape_util.Units.to_eng ids))
    (mosfet_regions op)
