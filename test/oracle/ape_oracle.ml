(* Reference implementations for the differential suites: the MOS
   model's partials by finite differences, a C matrix stamped element
   by element, and dense versions of the simulator's analyses.  The
   analyses re-stamp the netlist through [Engine.residual_jacobian] and
   [capacitances] below and solve with the dense [Matrix] LU, so they
   share no assembly, ordering or factorisation code with the sparse
   engine they check, and their C shares no code with the engine's
   stamping core. *)

module N = Ape_circuit.Netlist
module Mos = Ape_device.Mos
module Dc = Ape_spice.Dc
module Engine = Ape_spice.Engine
module Rmat = Ape_util.Matrix.Rmat
module Cmat = Ape_util.Matrix.Cmat

let max_norm a =
  Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. a

(* Central finite differences of [Mos.drain_current] in (vgs, vds, vsb)
   with step [h]: the reference for [Mos.evaluate]'s analytic
   partials. *)
let mos_partials ?(h = 1e-6) card geom ~vgs ~vds ~vsb =
  let i vgs vds vsb = Mos.drain_current card geom ~vgs ~vds ~vsb in
  let d f = (f h -. f (-.h)) /. (2. *. h) in
  ( d (fun e -> i (vgs +. e) vds vsb),
    d (fun e -> i vgs (vds +. e) vsb),
    d (fun e -> i vgs vds (vsb +. e)) )

(* The C matrix at [x], element by element: explicit capacitors plus
   each MOSFET's [Mos.small_signal] capacitances, terminals looked up by
   name.  The reference for the C that [Engine]'s one device pass
   stamps; it adds in the same element and per-device order, so the two
   agree bit for bit. *)
let capacitances netlist index x =
  let n = Engine.size index in
  let c = Rmat.create n n in
  let pair a b v =
    let add r col v =
      match (Engine.node_id index r, Engine.node_id index col) with
      | Some i, Some j -> Rmat.add_to c i j v
      | _ -> ()
    in
    add a a v;
    add a b (-.v);
    add b a (-.v);
    add b b v
  in
  List.iter
    (function
      | N.Capacitor { a; b; c = value; _ } -> pair a b value
      | N.Mosfet { card; d; g; s; b; geom; m; _ } ->
        let geom = { geom with Mos.w = geom.Mos.w *. m } in
        let v node = Engine.node_voltage index x node in
        let ss =
          Mos.small_signal card geom ~vgs:(v g -. v s) ~vds:(v d -. v s)
            ~vsb:(v s -. v b)
        in
        pair g s ss.Mos.cgs;
        pair g d ss.Mos.cgd;
        pair g b ss.Mos.cgb;
        pair d b ss.Mos.cdb;
        pair s b ss.Mos.csb
      | N.Resistor _ | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Switch _ -> ())
    (N.elements netlist);
  c

(* One dense Newton step J dx = -F from the operating point's solution.
   At a converged point it must vanish to solver tolerance. *)
let newton_step (op : Dc.op) =
  let f, j = Engine.residual_jacobian op.Dc.netlist op.Dc.index op.Dc.x in
  Rmat.solve j (Array.map Float.neg f)

(* Fixed-step backward-Euler transient: full Newton per step on the dense
   Jacobian plus the C/dt companion, steps clamped to 1 like the engine.
   Returns every node's samples, in [Netlist.nodes] order. *)
let transient_be ~stimulus ~tstop ~dt (op : Dc.op) =
  let netlist = op.Dc.netlist and index = op.Dc.index in
  let n = Engine.size index in
  let steps = int_of_float (Float.ceil (tstop /. dt)) in
  let xs = Array.make (steps + 1) op.Dc.x in
  for k = 1 to steps do
    let x_prev = xs.(k - 1) in
    let c = capacitances netlist index x_prev in
    let x = Array.copy x_prev in
    let rec iterate budget =
      if budget = 0 then failwith "oracle transient: no convergence";
      let f, j =
        Engine.residual_jacobian ~time:(float_of_int k *. dt) ~stimulus
          netlist index x
      in
      for r = 0 to n - 1 do
        for col = 0 to n - 1 do
          let g = Rmat.get c r col /. dt in
          if g <> 0. then begin
            f.(r) <- f.(r) +. (g *. (x.(col) -. x_prev.(col)));
            Rmat.add_to j r col g
          end
        done
      done;
      let dx = Rmat.solve j (Array.map Float.neg f) in
      Array.iteri
        (fun i d -> x.(i) <- x.(i) +. Float.max (-1.) (Float.min 1. d))
        dx;
      if max_norm dx >= 1e-9 then iterate (budget - 1)
    in
    iterate 60;
    xs.(k) <- x
  done;
  List.map
    (fun node ->
      (node, Array.map (fun x -> Engine.node_voltage index x node) xs))
    (N.nodes netlist)

(* G + jωC at [freq], stamped afresh from the operating point. *)
let ac_matrix (op : Dc.op) freq =
  let netlist = op.Dc.netlist and index = op.Dc.index in
  let n = Engine.size index in
  let _, g = Engine.residual_jacobian netlist index op.Dc.x in
  let c = capacitances netlist index op.Dc.x in
  let omega = 2. *. Float.pi *. freq in
  let a = Cmat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Cmat.set a i j
        { Complex.re = Rmat.get g i j; im = omega *. Rmat.get c i j }
    done
  done;
  a

(* The netlist's AC excitation: V-source magnitudes on their branch
   rows, I-source currents leaving p and entering n. *)
let ac_rhs (op : Dc.op) =
  let index = op.Dc.index in
  let b = Array.make (Engine.size index) Complex.zero in
  let add i v = b.(i) <- Complex.add b.(i) { Complex.re = v; im = 0. } in
  let add_node node v =
    Option.iter (fun i -> add i v) (Engine.node_id index node)
  in
  List.iter
    (function
      | N.Vsource { name; ac; _ } ->
        Option.iter (fun i -> add i ac) (Engine.branch_id index name)
      | N.Isource { p; n; ac; _ } ->
        add_node p (-.ac);
        add_node n ac
      | N.Mosfet _ | N.Resistor _ | N.Capacitor _ | N.Vcvs _ | N.Switch _ -> ())
    (N.elements op.Dc.netlist);
  b

let ac_solve op freq = Cmat.solve (ac_matrix op freq) (ac_rhs op)

(* Output noise with one direct solve per source: each source's
   (element, PSD at [out]), in [Noise.noise_sources] order. *)
let output_noise ~out ~freq (op : Dc.op) =
  let index = op.Dc.index in
  let lu = Cmat.lu_factor (ac_matrix op freq) in
  List.map
    (fun (element, a, b, psd) ->
      let rhs = Array.make (Engine.size index) Complex.zero in
      let inject node v =
        Option.iter
          (fun i -> rhs.(i) <- Complex.add rhs.(i) v)
          (Engine.node_id index node)
      in
      inject a (Complex.neg Complex.one);
      inject b Complex.one;
      let z =
        match Engine.node_id index out with
        | Some i -> Complex.norm (Cmat.lu_solve lu rhs).(i)
        | None -> 0.
      in
      (element, psd *. z *. z))
    (Ape_spice.Noise.noise_sources op freq)
