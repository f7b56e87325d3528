(* Reference implementations for the differential suites: the MOS
   model's partials by finite differences, a C matrix stamped element
   by element, dense versions of the simulator's analyses, and the
   dense AWE with its general-q Durand–Kerner Padé ([Support] holds
   the tests' other helpers).  The dense
   matrices are the sparse stamps' slot values scattered into [Matrix]
   (each slot holds the sum a dense stamp would), and every analysis
   solves them with the dense [Matrix] LU, so they share no ordering
   or factorisation code with the sparse engine they check, and their
   C below shares no code with the engine's stamping core. *)

module N = Ape_circuit.Netlist
module Mos = Ape_device.Mos
module Dc = Ape_spice.Dc
module Engine = Ape_spice.Engine
module Sp = Ape_util.Sparse
module Matrix = Matrix
module Poly = Poly
module Support = Support
module Rmat = Matrix.Rmat
module Cmat = Matrix.Cmat

let dense_of_slots vals =
  let pat = Sp.Real.pattern vals in
  let m = Rmat.create (Sp.dim pat) (Sp.dim pat) in
  Sp.iter pat (fun s row col -> Rmat.set m row col (Sp.Real.get_slot vals s));
  m

(* [(f, J)] at [x], dense: the KCL/branch residual and its Jacobian. *)
let residual_jacobian ?gmin ?time ?stimulus netlist index x =
  let j = Sp.Real.create (Engine.pattern index) in
  let f = Engine.sparse_residual ?gmin ?time ?stimulus netlist index x j in
  (f, dense_of_slots j)

(* [(f, G, C)] at [x] from one device pass, dense. *)
let linearize netlist index x =
  let g = Sp.Real.create (Engine.pattern index) in
  let c = Sp.Real.create (Engine.pattern index) in
  let f = Engine.sparse_residual ~c netlist index x g in
  (f, dense_of_slots g, dense_of_slots c)

let max_norm a =
  Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. a

(* Central finite differences of [Mos.evaluate]'s current in (vgs, vds,
   vsb) with step [h]: the reference for its analytic partials. *)
let mos_partials ?(h = 1e-6) card geom ~vgs ~vds ~vsb =
  let i vgs vds vsb = Support.drain_current card geom ~vgs ~vds ~vsb in
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
  let f, j = residual_jacobian op.Dc.netlist op.Dc.index op.Dc.x in
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
        residual_jacobian ~time:(float_of_int k *. dt) ~stimulus netlist
          index x
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
  let _, g = residual_jacobian netlist index op.Dc.x in
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

(* ---------- polynomial roots ---------- *)

module Poly_ref = struct
  let eval_complex t v =
    let c = Poly.coeffs t in
    let acc = ref Complex.zero in
    for i = Array.length c - 1 downto 0 do
      acc := Complex.add (Complex.mul !acc v) { Complex.re = c.(i); im = 0. }
    done;
    !acc

  (* Durand–Kerner: iterate all roots simultaneously from perturbed
     points on a circle; converges for the well-separated small-degree
     polynomials AWE produces. *)
  let roots ?(max_iter = 500) ?(tol = 1e-12) t =
    let n = Poly.degree t in
    if n < 1 then invalid_arg "Poly.roots: degree < 1";
    let c = Poly.coeffs t in
    let lead = c.(n) in
    let monic = Poly.of_coeffs (Array.map (fun x -> x /. lead) c) in
    (* Initial guesses: points on a circle of radius based on
       coefficient magnitudes, at non-symmetric angles (the classic
       0.4 + 0.9i seed). *)
    let radius =
      Array.fold_left
        (fun acc x -> Float.max acc (Float.abs x))
        1. (Poly.coeffs monic)
    in
    let radius = 1. +. radius in
    let zs =
      Array.init n (fun k ->
          let angle = (float_of_int k *. 2.6) +. 0.4 in
          Complex.mul
            { Complex.re = radius; im = 0. }
            { Complex.re = Float.cos angle; im = Float.sin angle })
    in
    let converged = ref false and iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      incr iter;
      let worst = ref 0. in
      for k = 0 to n - 1 do
        let zk = zs.(k) in
        let denom = ref Complex.one in
        for j = 0 to n - 1 do
          if j <> k then denom := Complex.mul !denom (Complex.sub zk zs.(j))
        done;
        let delta = Complex.div (eval_complex monic zk) !denom in
        zs.(k) <- Complex.sub zk delta;
        worst := Float.max !worst (Complex.norm delta)
      done;
      if !worst < tol *. radius then converged := true
    done;
    Array.to_list zs

  (* The roots whose imaginary part is negligible, sorted ascending. *)
  let real_roots ?(tol = 1e-7) t =
    roots t
    |> List.filter_map (fun (z : Complex.t) ->
           if Float.abs z.im <= tol *. (1. +. Float.abs z.re) then Some z.re
           else None)
    |> List.sort compare
end

(* ---------- AWE ---------- *)

(* The dense AWE the relaxed synthesis cost's closed-form path is
   checked against: moments by the dense LU of G and dense C·m
   products, and the Padé approximant for any q by a dense Hankel
   solve, Durand–Kerner poles and a complex residue solve. *)
module Awe_ref = struct
  module Awe = Ape_spice.Awe

  let moments ?(count = 8) ~out (op : Dc.op) =
    let netlist = op.Dc.netlist and index = op.Dc.index in
    let _, g, c = linearize netlist index op.Dc.x in
    let lu =
      match Rmat.lu_factor g with
      | lu -> lu
      | exception Matrix.Singular -> raise (Awe.Moment_failure "G matrix singular")
    in
    let out_id =
      match Engine.node_id index out with
      | Some i -> i
      | None -> raise (Awe.Moment_failure "output node is ground")
    in
    let b = Awe.excitation netlist index in
    let mus = Array.make count 0. in
    let m = ref (Rmat.lu_solve lu b) in
    mus.(0) <- !m.(out_id);
    for k = 1 to count - 1 do
      let cm = Rmat.mat_vec c !m in
      Array.iteri (fun i v -> cm.(i) <- -.v) cm;
      m := Rmat.lu_solve lu cm;
      mus.(k) <- !m.(out_id)
    done;
    mus

  (* Padé [q-1 / q] with denominator D(s) = 1 + b1·s + ... + bq·s^q:
     matching moments q..2q−1 gives Σ_{j=1..q} b_j·μ_{q+k−j} = −μ_{q+k}
     for k = 0..q−1. *)
  let of_moments ?(q = 2) ?tol mus =
    if q < 1 then invalid_arg "Awe_ref.of_moments: q < 1";
    let h = Rmat.create q q in
    let rhs = Array.make q 0. in
    for k = 0 to q - 1 do
      for j = 1 to q do
        Rmat.set h k (j - 1) mus.(q + k - j)
      done;
      rhs.(k) <- -.mus.(q + k)
    done;
    let b =
      match Rmat.solve h rhs with
      | b -> b
      | exception Matrix.Singular ->
        raise (Awe.Moment_failure "Hankel system singular (reduce q)")
    in
    let poles =
      Poly_ref.roots ?tol (Poly.of_coeffs (Array.append [| 1. |] b))
    in
    (* Residues k_i from the moment-matching conditions
       μ_k = Σ_i −k_i / p_i^{k+1}: a q×q Vandermonde-like system. *)
    let cq = List.length poles in
    let v = Cmat.create cq cq in
    let rhsc = Array.make cq Complex.zero in
    for k = 0 to cq - 1 do
      List.iteri
        (fun i p ->
          let pk = Complex.pow p { Complex.re = float_of_int (k + 1); im = 0. } in
          Cmat.set v k i (Complex.neg (Complex.inv pk)))
        poles;
      rhsc.(k) <- { Complex.re = mus.(k); im = 0. }
    done;
    let residues =
      match Cmat.solve v rhsc with
      | r -> Array.to_list r
      | exception Matrix.Singular -> List.map (fun _ -> Complex.zero) poles
    in
    { Awe.moments = mus; poles; residues; dc_value = mus.(0) }

  let pade ?(q = 2) ~out op = of_moments ~q (moments ~count:(2 * q) ~out op)

  (* Magnitude/2π of the slowest stable pole: the −3 dB estimate of a
     low-pass response. *)
  let dominant_pole_hz (approx : Awe.approximant) =
    let stable =
      List.filter_map
        (fun (p : Complex.t) ->
          let m = Complex.norm p in
          if m > 0. then Some m else None)
        approx.Awe.poles
    in
    match List.sort compare stable with
    | [] -> None
    | slowest :: _ -> Some (slowest /. (2. *. Float.pi))

  (* The single-pole UGF estimate |a0|·p1, when |a0| > 1. *)
  let unity_gain_frequency_hz (approx : Awe.approximant) =
    let a0 = Float.abs approx.Awe.dc_value in
    if a0 <= 1. then None
    else Option.map (fun f3db -> a0 *. f3db) (dominant_pole_hz approx)

  (* The pole/residue expansion at a frequency in Hz. *)
  let eval (approx : Awe.approximant) freq_hz =
    let s = { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz } in
    List.fold_left2
      (fun acc k p -> Complex.add acc (Complex.div k (Complex.sub s p)))
      Complex.zero approx.Awe.residues approx.Awe.poles
end
