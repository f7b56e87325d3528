module N = Ape_circuit.Netlist
module Rmat = Ape_util.Matrix.Rmat
module Poly = Ape_util.Poly

type approximant = {
  moments : float array;
  poles : Complex.t list;
  residues : Complex.t list;
  dc_value : float;
}

exception Moment_failure of string

let rhs_vector netlist index =
  let n = Engine.size index in
  let b = Array.make n 0. in
  List.iter
    (fun e ->
      match e with
      | N.Vsource { name; ac; _ } when ac <> 0. ->
        let br = Engine.branch_id_exn index ~analysis:"awe" name in
        b.(br) <- b.(br) +. ac
      | N.Isource { p; n = nn; ac; _ } when ac <> 0. ->
        (match Engine.node_id index p with
        | Some i -> b.(i) <- b.(i) -. ac
        | None -> ());
        (match Engine.node_id index nn with
        | Some i -> b.(i) <- b.(i) +. ac
        | None -> ())
      | N.Vsource _ | N.Isource _ | N.Mosfet _ | N.Resistor _
      | N.Capacitor _ | N.Vcvs _ | N.Switch _ ->
        ())
    (N.elements netlist);
  b

let moments ?(count = 8) ?g ?c ~out (op : Dc.op) =
  let netlist = op.Dc.netlist and index = op.Dc.index in
  let g, c =
    match (g, c) with
    | Some g, Some c -> (g, c)
    | _ ->
      let _, g', c' = Engine.linearize netlist index op.Dc.x in
      (Option.value g ~default:g', Option.value c ~default:c')
  in
  let lu =
    match Rmat.lu_factor g with
    | lu -> lu
    | exception Ape_util.Matrix.Singular ->
      raise (Moment_failure "G matrix singular")
  in
  let out_id =
    match Engine.node_id index out with
    | Some i -> i
    | None -> raise (Moment_failure "output node is ground")
  in
  let b = rhs_vector netlist index in
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
   matching moments q..2q−1 gives  Σ_{j=1..q} b_j·μ_{q+k−j} = −μ_{q+k}
   for k = 0..q−1. *)
let pade ?(q = 2) ?g ?c ~out op =
  if q < 1 then invalid_arg "Awe.pade: q < 1";
  let mus = moments ~count:(2 * q) ?g ?c ~out op in
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
    | exception Ape_util.Matrix.Singular ->
      raise (Moment_failure "Hankel system singular (reduce q)")
  in
  let denom = Poly.of_coeffs (Array.append [| 1. |] b) in
  let poles = Poly.roots denom in
  (* Residues k_i from the moment-matching conditions:
     μ_k = Σ_i −k_i / p_i^{k+1}. Solve the q×q Vandermonde-like system in
     complex arithmetic. *)
  let cq = List.length poles in
  let module Cmat = Ape_util.Matrix.Cmat in
  let v = Cmat.create cq cq in
  let rhsc = Array.make cq Complex.zero in
  List.iteri
    (fun k () ->
      List.iteri
        (fun i p ->
          (* coefficient of k_i in μ_k: −1 / p^{k+1} *)
          let pk = Complex.pow p { Complex.re = float_of_int (k + 1); im = 0. } in
          Cmat.set v k i (Complex.neg (Complex.inv pk)))
        poles;
      rhsc.(k) <- { Complex.re = mus.(k); im = 0. })
    (List.init cq (fun _ -> ()));
  let residues =
    match Cmat.solve v rhsc with
    | r -> Array.to_list r
    | exception Ape_util.Matrix.Singular -> List.map (fun _ -> Complex.zero) poles
  in
  { moments = mus; poles; residues; dc_value = mus.(0) }

let dominant_pole_hz approx =
  let stable =
    List.filter_map
      (fun (p : Complex.t) ->
        let m = Complex.norm p in
        if m > 0. then Some m else None)
      approx.poles
  in
  match List.sort compare stable with
  | [] -> None
  | slowest :: _ -> Some (slowest /. (2. *. Float.pi))

let unity_gain_frequency_hz approx =
  let a0 = Float.abs approx.dc_value in
  if a0 <= 1. then None
  else
    match dominant_pole_hz approx with
    | None -> None
    | Some f3db -> Some (a0 *. f3db)

let unity_crossing_hz ?(fmin = 1e2) ?(fmax = 1e10) approx =
  if Float.abs approx.dc_value <= 1. then None
  else begin
    let eval_mag f =
      let s = { Complex.re = 0.; im = 2. *. Float.pi *. f } in
      Complex.norm
        (List.fold_left2
           (fun acc k p -> Complex.add acc (Complex.div k (Complex.sub s p)))
           Complex.zero approx.residues approx.poles)
    in
    let g lf = eval_mag (10. ** lf) -. 1. in
    let llo = Float.log10 fmin and lhi = Float.log10 fmax in
    if g llo <= 0. || g lhi >= 0. then None
    else begin
      let rec bisect lo hi k =
        if k = 0 then Some (10. ** (0.5 *. (lo +. hi)))
        else begin
          let mid = 0.5 *. (lo +. hi) in
          if g mid > 0. then bisect mid hi (k - 1) else bisect lo mid (k - 1)
        end
      in
      bisect llo lhi 40
    end
  end

let eval approx freq_hz =
  let s = { Complex.re = 0.; im = 2. *. Float.pi *. freq_hz } in
  List.fold_left2
    (fun acc k p ->
      Complex.add acc (Complex.div k (Complex.sub s p)))
    Complex.zero approx.residues approx.poles
