module type FIELD = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val norm : t -> float
end

exception Singular

module type S = sig
  type elt
  type t

  val create : int -> int -> t
  val rows : t -> int
  val get : t -> int -> int -> elt
  val set : t -> int -> int -> elt -> unit
  val add_to : t -> int -> int -> elt -> unit
  val of_arrays : elt array array -> t
  val to_arrays : t -> elt array array
  val mat_vec : t -> elt array -> elt array

  type lu

  val lu_factor : t -> lu
  val lu_solve : lu -> elt array -> elt array
  val solve : t -> elt array -> elt array
  val residual_norm : t -> elt array -> elt array -> float
end

module Make (F : FIELD) = struct
  type elt = F.t
  type t = { nr : int; nc : int; a : F.t array array }

  let create nr nc =
    if nr < 0 || nc < 0 then invalid_arg "Matrix.create";
    { nr; nc; a = Array.make_matrix nr nc F.zero }

  let rows m = m.nr
  let get m i j = m.a.(i).(j)
  let set m i j x = m.a.(i).(j) <- x
  let add_to m i j x = m.a.(i).(j) <- F.add m.a.(i).(j) x

  let of_arrays a =
    let nr = Array.length a in
    let nc = if nr = 0 then 0 else Array.length a.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> nc then invalid_arg "Matrix.of_arrays: ragged")
      a;
    { nr; nc; a = Array.map Array.copy a }

  let to_arrays m = Array.map Array.copy m.a

  let mat_vec m v =
    if m.nc <> Array.length v then invalid_arg "Matrix.mat_vec";
    if m.nr = 0 then [||]  (* explicit empty-system short-circuit *)
    else
      Array.init m.nr (fun i ->
          let acc = ref F.zero in
          for j = 0 to m.nc - 1 do
            acc := F.add !acc (F.mul m.a.(i).(j) v.(j))
          done;
          !acc)

  type lu = { lu_a : F.t array array; perm : int array; n : int }

  (* Doolittle LU with partial pivoting; L has unit diagonal and is stored
     below the diagonal of [lu_a], U on and above it. *)
  let lu_factor m =
    if m.nr <> m.nc then invalid_arg "Matrix.lu_factor: not square";
    let n = m.nr in
    let a = Array.map Array.copy m.a in
    let perm = Array.init n Fun.id in
    (* n = 0 is a valid empty system: the pivot loop below vanishes and
       [lu_solve] returns [||].  Kept explicit rather than incidental so
       the contract survives refactoring — a 0-unknown netlist (ground
       only) must not trip the singularity test. *)
    for k = 0 to n - 1 do
      let pivot = ref k and best = ref (F.norm a.(k).(k)) in
      for i = k + 1 to n - 1 do
        let v = F.norm a.(i).(k) in
        if v > !best then begin
          best := v;
          pivot := i
        end
      done;
      if !best < 1e-300 then raise Singular;
      if !pivot <> k then begin
        let tmp = a.(k) in
        a.(k) <- a.(!pivot);
        a.(!pivot) <- tmp;
        let tp = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- tp
      end;
      for i = k + 1 to n - 1 do
        let factor = F.div a.(i).(k) a.(k).(k) in
        a.(i).(k) <- factor;
        for j = k + 1 to n - 1 do
          a.(i).(j) <- F.sub a.(i).(j) (F.mul factor a.(k).(j))
        done
      done
    done;
    { lu_a = a; perm; n }

  let lu_solve { lu_a = a; perm; n } b =
    if Array.length b <> n then invalid_arg "Matrix.lu_solve";
    if n = 0 then [||]  (* explicit empty-system short-circuit *)
    else begin
    let y = Array.init n (fun i -> b.(perm.(i))) in
    (* Forward substitution with unit-diagonal L. *)
    for i = 1 to n - 1 do
      for j = 0 to i - 1 do
        y.(i) <- F.sub y.(i) (F.mul a.(i).(j) y.(j))
      done
    done;
    (* Back substitution with U. *)
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        y.(i) <- F.sub y.(i) (F.mul a.(i).(j) y.(j))
      done;
      y.(i) <- F.div y.(i) a.(i).(i)
    done;
    y
    end

  let solve m b = lu_solve (lu_factor m) b

  let residual_norm m x b =
    let ax = mat_vec m x in
    let worst = ref 0. in
    Array.iteri
      (fun i v -> worst := Float.max !worst (F.norm (F.sub v b.(i))))
      ax;
    !worst
end

(* The float instance, written out over [float array array] rather than
   applied through [Make].  Every operation keeps the functor's order —
   the same pivot rule, [a - f·b] updates, sums from [0.] and
   substitution order — so each result is bit-identical to [Make]'s over
   floats (a property test checks it), and the relaxed synthesis cost's
   in-place moment LU ([Ape_spice.Awe.moments]) equals it bit for bit
   in turn. *)
module Rmat = struct
  type elt = float
  type t = { nr : int; nc : int; a : float array array }

  let create nr nc =
    if nr < 0 || nc < 0 then invalid_arg "Matrix.create";
    { nr; nc; a = Array.make_matrix nr nc 0. }

  let rows m = m.nr
  let get m i j = m.a.(i).(j)
  let set m i j x = m.a.(i).(j) <- x

  let add_to m i j x =
    let row = m.a.(i) in
    row.(j) <- row.(j) +. x

  let of_arrays a =
    let nr = Array.length a in
    let nc = if nr = 0 then 0 else Array.length a.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> nc then invalid_arg "Matrix.of_arrays: ragged")
      a;
    { nr; nc; a = Array.map Array.copy a }

  let to_arrays m = Array.map Array.copy m.a

  let mat_vec m v =
    if m.nc <> Array.length v then invalid_arg "Matrix.mat_vec";
    if m.nr = 0 then [||]  (* explicit empty-system short-circuit *)
    else begin
      let r = Array.make m.nr 0. in
      for i = 0 to m.nr - 1 do
        let row = m.a.(i) in
        let acc = ref 0. in
        for j = 0 to m.nc - 1 do
          acc := !acc +. (row.(j) *. v.(j))
        done;
        r.(i) <- !acc
      done;
      r
    end

  type lu = { lu_a : float array array; perm : int array; n : int }

  (* Doolittle LU with partial pivoting, as [Make.lu_factor]. *)
  let lu_factor m =
    if m.nr <> m.nc then invalid_arg "Matrix.lu_factor: not square";
    let n = m.nr in
    let a = Array.map Array.copy m.a in
    let perm = Array.init n Fun.id in
    for k = 0 to n - 1 do
      let pivot = ref k and best = ref (Float.abs a.(k).(k)) in
      for i = k + 1 to n - 1 do
        let v = Float.abs a.(i).(k) in
        if v > !best then begin
          best := v;
          pivot := i
        end
      done;
      if !best < 1e-300 then raise Singular;
      if !pivot <> k then begin
        let tmp = a.(k) in
        a.(k) <- a.(!pivot);
        a.(!pivot) <- tmp;
        let tp = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- tp
      end;
      let ak = a.(k) in
      let akk = ak.(k) in
      for i = k + 1 to n - 1 do
        let ai = a.(i) in
        let factor = ai.(k) /. akk in
        ai.(k) <- factor;
        for j = k + 1 to n - 1 do
          ai.(j) <- ai.(j) -. (factor *. ak.(j))
        done
      done
    done;
    { lu_a = a; perm; n }

  let lu_solve { lu_a = a; perm; n } b =
    if Array.length b <> n then invalid_arg "Matrix.lu_solve";
    if n = 0 then [||]  (* explicit empty-system short-circuit *)
    else begin
      let y = Array.make n 0. in
      for i = 0 to n - 1 do
        y.(i) <- b.(perm.(i))
      done;
      (* Forward substitution with unit-diagonal L. *)
      for i = 1 to n - 1 do
        let ai = a.(i) in
        let acc = ref y.(i) in
        for j = 0 to i - 1 do
          acc := !acc -. (ai.(j) *. y.(j))
        done;
        y.(i) <- !acc
      done;
      (* Back substitution with U. *)
      for i = n - 1 downto 0 do
        let ai = a.(i) in
        let acc = ref y.(i) in
        for j = i + 1 to n - 1 do
          acc := !acc -. (ai.(j) *. y.(j))
        done;
        y.(i) <- !acc /. ai.(i)
      done;
      y
    end

  let solve m b = lu_solve (lu_factor m) b

  let residual_norm m x b =
    let ax = mat_vec m x in
    let worst = ref 0. in
    Array.iteri
      (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i))))
      ax;
    !worst
end

module Cmat = Make (struct
  type t = Complex.t

  let zero = Complex.zero
  let one = Complex.one
  let add = Complex.add
  let sub = Complex.sub
  let mul = Complex.mul
  let div = Complex.div
  let neg = Complex.neg
  let norm = Complex.norm
end)
