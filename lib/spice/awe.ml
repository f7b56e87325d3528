module N = Ape_circuit.Netlist
module Sp = Ape_util.Sparse

type approximant = {
  moments : float array;
  poles : Complex.t list;
  residues : Complex.t list;
  dc_value : float;
}

exception Moment_failure of string

let excitation netlist index =
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

(* The moment solves' scratch: a dense n×n LU factored in place (rows
   swap as arrays), its row permutation, the slot coordinates that
   scatter G into it and gather C·m, and two length-n vectors. *)
type workspace = {
  n : int;
  slot_row : int array;
  slot_col : int array;
  lu : float array array;
  perm : int array;
  m : float array;  (* the current moment vector *)
  cm : float array;  (* −C·m, the next solve's right-hand side *)
}

let workspace index =
  let pat = Engine.pattern index in
  let n = Sp.dim pat and nnz = Sp.nnz pat in
  let slot_row = Array.make nnz 0 and slot_col = Array.make nnz 0 in
  Sp.iter pat (fun s row col ->
      slot_row.(s) <- row;
      slot_col.(s) <- col);
  {
    n;
    slot_row;
    slot_col;
    lu = Array.make_matrix n n 0.;
    perm = Array.make n 0;
    m = Array.make n 0.;
    cm = Array.make n 0.;
  }

(* Doolittle LU with partial pivoting over G's slot values, with the
   dense reference's pivot rule (first strictly larger magnitude, the
   1e-300 singularity test) and its [a - f·b] update order.  A row
   whose multiplier is zero is left alone: every trailing entry is a
   sum from [+0.] and so never [-0.], and subtracting [0·b] from it
   changes no bit when [b] is finite — which is checked, pivot row by
   pivot row, before any row is skipped. *)
let factor ws g =
  let n = ws.n and a = ws.lu in
  for i = 0 to n - 1 do
    Array.fill a.(i) 0 n 0.;
    ws.perm.(i) <- i
  done;
  for s = 0 to Array.length ws.slot_row - 1 do
    a.(ws.slot_row.(s)).(ws.slot_col.(s)) <- Sp.Real.get_slot g s
  done;
  for k = 0 to n - 1 do
    let pivot = ref k and best = ref (Float.abs a.(k).(k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs a.(i).(k) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best < 1e-300 then raise (Moment_failure "G matrix singular");
    if !pivot <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(!pivot);
      a.(!pivot) <- tmp;
      let tp = ws.perm.(k) in
      ws.perm.(k) <- ws.perm.(!pivot);
      ws.perm.(!pivot) <- tp
    end;
    let ak = a.(k) in
    let akk = ak.(k) in
    let finite = ref true in
    for j = k + 1 to n - 1 do
      if not (Float.is_finite ak.(j)) then finite := false
    done;
    for i = k + 1 to n - 1 do
      let ai = a.(i) in
      let factor = ai.(k) /. akk in
      ai.(k) <- factor;
      if factor <> 0. || not !finite then
        for j = k + 1 to n - 1 do
          ai.(j) <- ai.(j) -. (factor *. ak.(j))
        done
    done
  done

(* [m <- A⁻¹ b] by the factor, in the reference's substitution order. *)
let solve ws b =
  let n = ws.n and a = ws.lu and y = ws.m in
  for i = 0 to n - 1 do
    y.(i) <- b.(ws.perm.(i))
  done;
  for i = 1 to n - 1 do
    let ai = a.(i) in
    let acc = ref y.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (ai.(j) *. y.(j))
    done;
    y.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let ai = a.(i) in
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (ai.(j) *. y.(j))
    done;
    y.(i) <- !acc /. ai.(i)
  done

(* [cm <- −C·m], each row summed from [0.] in ascending column order,
   as a dense product would.  The slots are column-major, so one pass
   adds every row's terms in that order; a product it skips (no slot)
   is [0·m_j], which moves no bit of a sum from [+0.] when [m_j] is
   finite.  A non-finite [m] takes the dense product instead. *)
let neg_c_times ws c =
  let n = ws.n and m = ws.m and cm = ws.cm in
  if Array.for_all Float.is_finite m then begin
    Array.fill cm 0 n 0.;
    for s = 0 to Array.length ws.slot_row - 1 do
      let row = ws.slot_row.(s) in
      cm.(row) <- cm.(row) +. (Sp.Real.get_slot c s *. m.(ws.slot_col.(s)))
    done
  end
  else begin
    let dense = Array.make_matrix n n 0. in
    for s = 0 to Array.length ws.slot_row - 1 do
      dense.(ws.slot_row.(s)).(ws.slot_col.(s)) <- Sp.Real.get_slot c s
    done;
    for i = 0 to n - 1 do
      let acc = ref 0. in
      for j = 0 to n - 1 do
        acc := !acc +. (dense.(i).(j) *. m.(j))
      done;
      cm.(i) <- !acc
    done
  end;
  for i = 0 to n - 1 do
    cm.(i) <- -.cm.(i)
  done

let moments ws ~g ~c ~rhs ~out count =
  factor ws g;
  let mus = Array.make count 0. in
  solve ws rhs;
  mus.(0) <- ws.m.(out);
  for k = 1 to count - 1 do
    neg_c_times ws c;
    solve ws ws.cm;
    mus.(k) <- ws.m.(out)
  done;
  mus

let hankel_singular () = raise (Moment_failure "Hankel system singular (reduce q)")

(* The Padé denominator 1 + b1·s + b2·s², from matching moments q..2q−1
   (Σ_j b_j·μ_{q+k−j} = −μ_{q+k}, k < q).  The q = 2 Hankel system is
   eliminated with the dense reference's partial pivoting, so b and the
   singular cases are the reference's to the bit. *)
let denominator q mus =
  if q = 1 then begin
    if Float.abs mus.(0) < 1e-300 then hankel_singular ();
    (-.mus.(1) /. mus.(0), 0.)
  end
  else begin
    let a00, a01, r0, a10, a11, r1 =
      if Float.abs mus.(2) > Float.abs mus.(1) then
        (mus.(2), mus.(1), -.mus.(3), mus.(1), mus.(0), -.mus.(2))
      else (mus.(1), mus.(0), -.mus.(2), mus.(2), mus.(1), -.mus.(3))
    in
    if Float.abs a00 < 1e-300 then hankel_singular ();
    let f = a10 /. a00 in
    let u11 = a11 -. (f *. a01) in
    if Float.abs u11 < 1e-300 then hankel_singular ();
    let b2 = (r1 -. (f *. r0)) /. u11 in
    ((r0 -. (a01 *. b2)) /. a00, b2)
  end

let real re = { Complex.re; im = 0. }

(* Roots of 1 + b1·s + b2·s² (trailing zero coefficients dropped): the
   stable quadratic formula for a real pair, the exact conjugate pair
   otherwise. *)
let roots b1 b2 =
  if b2 = 0. then if b1 = 0. then [] else [ real (-1. /. b1) ]
  else begin
    let disc = (b1 *. b1) -. (4. *. b2) in
    if disc = 0. then
      let p = real (-.b1 /. (2. *. b2)) in
      [ p; p ]
    else if disc > 0. then
      let t = -0.5 *. (b1 +. Float.copy_sign (Float.sqrt disc) b1) in
      [ real (t /. b2); real (1. /. t) ]
    else
      let re = -.b1 /. (2. *. b2)
      and im = Float.sqrt (-.disc) /. (2. *. Float.abs b2) in
      [ { Complex.re; im }; { Complex.re; im = -.im } ]
  end

(* Residues k_i from μ_k = Σ_i −k_i/p_i^{k+1}, k < #poles.  An exactly
   repeated pole leaves the system singular: zero residues, as the
   reference gives for a singular residue system. *)
let residues mus = function
  | [] -> []
  | [ p ] -> [ Complex.mul (real (-.mus.(0))) p ]
  | [ p1; p2 ] ->
    let u1 = Complex.inv p1 and u2 = Complex.inv p2 in
    let d = Complex.sub u2 u1 in
    if d.Complex.re = 0. && d.Complex.im = 0. then [ Complex.zero; Complex.zero ]
    else
      let mu0 = real mus.(0) and mu1 = real mus.(1) in
      [
        Complex.div (Complex.sub mu1 (Complex.mul mu0 u2)) (Complex.mul u1 d);
        Complex.div
          (Complex.sub mu1 (Complex.mul mu0 u1))
          (Complex.mul u2 (Complex.neg d));
      ]
  | _ -> invalid_arg "Awe.residues"

let of_moments ?(q = 2) mus =
  if q < 1 || q > 2 then invalid_arg "Awe.of_moments: q must be 1 or 2";
  if Array.length mus < 2 * q then invalid_arg "Awe.of_moments: too few moments";
  let b1, b2 = denominator q mus in
  let poles = roots b1 b2 in
  { moments = mus; poles; residues = residues mus poles; dc_value = mus.(0) }

let pade ?(q = 2) ~out (op : Dc.op) =
  let netlist = op.Dc.netlist and index = op.Dc.index in
  let out =
    match Engine.node_id index out with
    | Some i -> i
    | None -> raise (Moment_failure "output node is ground")
  in
  let pat = Engine.pattern index in
  let g = Sp.Real.create pat and c = Sp.Real.create pat in
  ignore (Engine.sparse_residual ~c netlist index op.Dc.x g);
  let rhs = excitation netlist index in
  of_moments ~q (moments (workspace index) ~g ~c ~rhs ~out (2 * q))

let unity_crossing_hz ?(fmin = 1e2) ?(fmax = 1e10) approx =
  if Float.abs approx.dc_value <= 1. then None
  else begin
    let parts f l = Array.of_list (List.map f l) in
    let re (z : Complex.t) = z.Complex.re and im (z : Complex.t) = z.Complex.im in
    let pr = parts re approx.poles and pi = parts im approx.poles in
    let kr = parts re approx.residues and ki = parts im approx.residues in
    (* |Σ_i k_i/(j2πf − p_i)| in [Complex.sub]/[div]/[add]/[norm]'s
       operation order, on unboxed floats. *)
    let g lf =
      let w = 2. *. Float.pi *. (10. ** lf) in
      let acc_re = ref 0. and acc_im = ref 0. in
      for i = 0 to Array.length pr - 1 do
        let yre = 0. -. pr.(i) and yim = w -. pi.(i) in
        let xre = kr.(i) and xim = ki.(i) in
        if Float.abs yre >= Float.abs yim then begin
          let r = yim /. yre in
          let d = yre +. (r *. yim) in
          acc_re := !acc_re +. ((xre +. (r *. xim)) /. d);
          acc_im := !acc_im +. ((xim -. (r *. xre)) /. d)
        end
        else begin
          let r = yre /. yim in
          let d = yim +. (r *. yre) in
          acc_re := !acc_re +. (((r *. xre) +. xim) /. d);
          acc_im := !acc_im +. (((r *. xim) -. xre) /. d)
        end
      done;
      Float.hypot !acc_re !acc_im -. 1.
    in
    let lo = ref (Float.log10 fmin) and hi = ref (Float.log10 fmax) in
    if g !lo <= 0. || g !hi >= 0. then None
    else begin
      for _ = 1 to 40 do
        let mid = 0.5 *. (!lo +. !hi) in
        if g mid > 0. then lo := mid else hi := mid
      done;
      Some (10. ** (0.5 *. (!lo +. !hi)))
    end
  end
