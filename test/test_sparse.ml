(* Differential test harness for the sparse MNA engine.

   [Ape_util.Sparse] has no bit-identity contract with the dense LU
   (the elimination order differs), so these tests pin the actual
   guarantees: sparse solves agree with [Matrix] dense solves to tight
   tolerances on random MNA-shaped systems; the AC, DC and transient
   analyses agree with the dense [Ape_oracle] references on every
   golden deck; refactorisation replays are exact; parallel sweeps are
   bit-identical to sequential ones for any [~jobs]; and the Newton
   counter invariants hold. *)

module Sp = Ape_util.Sparse
module Rmat = Ape_oracle.Rmat
module Cmat = Ape_oracle.Cmat
module N = Ape_circuit.Netlist
module Dc = Ape_spice.Dc
module Ac = Ape_spice.Ac
module Tr = Ape_spice.Transient

let proc = Ape_process.Process.c12

(* ---------- pattern / builder ---------- *)

let test_builder_basics () =
  let b = Sp.Builder.create 3 in
  Sp.Builder.add b 0 0;
  Sp.Builder.add b 2 1;
  Sp.Builder.add b 0 0;
  (* duplicate collapses *)
  Sp.Builder.add b 1 2;
  Sp.Builder.add b 2 2;
  let p = Sp.Builder.compile b in
  Alcotest.(check int) "dim" 3 (Sp.dim p);
  Alcotest.(check int) "nnz (dups collapsed)" 4 (Sp.nnz p);
  (* Slots are column-major, rows ascending within a column. *)
  let seen = ref [] in
  Sp.iter p (fun slot row col -> seen := (slot, row, col) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "iter order"
    [ (0, 0, 0); (1, 2, 1); (2, 1, 2); (3, 2, 2) ]
    (List.rev !seen);
  Alcotest.(check int) "slot lookup" 2 (Sp.slot p ~row:1 ~col:2);
  Alcotest.check_raises "absent entry" Not_found (fun () ->
      ignore (Sp.slot p ~row:1 ~col:0));
  Alcotest.(check bool) "builder range check" true
    (match Sp.Builder.add b 3 0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_min_degree_permutation () =
  let b = Sp.Builder.create 5 in
  (* Arrow matrix: dense last row/col + diagonal. *)
  for i = 0 to 4 do
    Sp.Builder.add b i i;
    Sp.Builder.add b 4 i;
    Sp.Builder.add b i 4
  done;
  let q = Sp.min_degree (Sp.Builder.compile b) in
  Alcotest.(check int) "length" 5 (Array.length q);
  let seen = Array.make 5 false in
  Array.iter (fun j -> seen.(j) <- true) q;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen);
  (* The dense hub must be eliminated last: anything else fills in. *)
  Alcotest.(check int) "hub last" 4 q.(4)

(* ---------- degenerate systems ---------- *)

let test_empty_system () =
  let p = Sp.Builder.compile (Sp.Builder.create 0) in
  Alcotest.(check int) "0 dim" 0 (Sp.dim p);
  let v = Sp.Real.create p in
  let f = Sp.Real.factor v in
  Alcotest.(check int) "0x0 solve" 0 (Array.length (Sp.Real.solve f [||]));
  Sp.Real.refactor f v;
  Alcotest.(check int) "lnz" 0 (Sp.Real.lnz f);
  Alcotest.(check int) "unz" 0 (Sp.Real.unz f)

let test_one_by_one () =
  let b = Sp.Builder.create 1 in
  Sp.Builder.add b 0 0;
  let p = Sp.Builder.compile b in
  let v = Sp.Real.create p in
  Sp.Real.add_slot v 0 4.;
  let f = Sp.Real.factor v in
  Alcotest.(check (float 1e-12)) "1x1 solve" 2. (Sp.Real.solve f [| 8. |]).(0);
  Sp.Real.set_slot v 0 0.;
  Alcotest.check_raises "numerically singular 1x1" Sp.Singular (fun () ->
      ignore (Sp.Real.factor v))

let test_structurally_singular () =
  (* Column 1 has no entries: no pivot can exist. *)
  let b = Sp.Builder.create 2 in
  Sp.Builder.add b 0 0;
  Sp.Builder.add b 1 0;
  let p = Sp.Builder.compile b in
  let v = Sp.Real.create p in
  Sp.Real.add_slot v (Sp.slot p ~row:0 ~col:0) 1.;
  Sp.Real.add_slot v (Sp.slot p ~row:1 ~col:0) 2.;
  Alcotest.check_raises "empty column" Sp.Singular (fun () ->
      ignore (Sp.Real.factor v))

let test_numerically_singular () =
  let b = Sp.Builder.create 2 in
  List.iter
    (fun (r, c) -> Sp.Builder.add b r c)
    [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  let p = Sp.Builder.compile b in
  let v = Sp.Real.create p in
  let set r c x = Sp.Real.set_slot v (Sp.slot p ~row:r ~col:c) x in
  (* Rank 1: [[1; 2]; [2; 4]]. *)
  set 0 0 1.;
  set 0 1 2.;
  set 1 0 2.;
  set 1 1 4.;
  Alcotest.check_raises "rank deficient" Sp.Singular (fun () ->
      ignore (Sp.Real.factor v))

let test_unstable_refactor () =
  let b = Sp.Builder.create 2 in
  List.iter
    (fun (r, c) -> Sp.Builder.add b r c)
    [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  let p = Sp.Builder.compile b in
  let v = Sp.Real.create p in
  let set r c x = Sp.Real.set_slot v (Sp.slot p ~row:r ~col:c) x in
  set 0 0 2.;
  set 0 1 1.;
  set 1 0 1.;
  set 1 1 2.;
  let f = Sp.Real.factor v in
  (* New values make the frozen (0,0) pivot vanish relative to its
     column: the replay must refuse rather than divide by ~0. *)
  set 0 0 1e-20;
  set 0 1 1.;
  set 1 0 1.;
  set 1 1 1.;
  Alcotest.check_raises "frozen pivot degenerated" Sp.Unstable (fun () ->
      Sp.Real.refactor f v);
  (* A fresh pivoting factorisation handles the same values fine. *)
  let f2 = Sp.Real.factor v in
  let x = Sp.Real.solve f2 [| 1.; 1. |] in
  Alcotest.(check bool) "fresh factor recovers" true
    (Float.abs (x.(0) -. 0.) < 1e-9 && Float.abs (x.(1) -. 1.) < 1e-9)

(* ---------- random MNA-shaped systems vs the dense reference ---------- *)

(* MNA shape: strong banded diagonal block (node conductances) plus a
   few off-band couplings and zero-diagonal "branch" rows coupled like a
   voltage source (the part that forces real pivoting). *)
let mna_system_gen =
  QCheck.Gen.(
    int_range 2 12 >>= fun n_nodes ->
    int_range 0 (min 2 (n_nodes - 1)) >>= fun n_branch ->
    let n = n_nodes + n_branch in
    list_size (return (n_nodes * 3)) (float_range 0.1 2.) >>= fun offs ->
    int_range 0 (n_nodes - 1) >>= fun b0 ->
    (* Distinct branch nodes by construction: two sources on the same
       node would make the system exactly singular (identical rows). *)
    let bnodes = List.init n_branch (fun k -> (b0 + k) mod n_nodes) in
    return (n_nodes, n, offs, bnodes))

let build_mna (n_nodes, n, offs, bnodes) =
  let dense = Rmat.create n n in
  (* Banded conductance block, diagonally dominant. *)
  List.iteri
    (fun k g ->
      let i = k mod n_nodes in
      let j = (i + 1 + (k / n_nodes)) mod n_nodes in
      if i <> j then begin
        Rmat.add_to dense i j (-.g);
        Rmat.add_to dense j i (-.g);
        Rmat.add_to dense i i g;
        Rmat.add_to dense j j g
      end)
    offs;
  for i = 0 to n_nodes - 1 do
    Rmat.add_to dense i i 1.
  done;
  (* Voltage-source-like branch rows: zero diagonal, +-1 couplings. *)
  List.iteri
    (fun k node ->
      let br = n_nodes + k in
      Rmat.add_to dense node br 1.;
      Rmat.add_to dense br node 1.)
    bnodes;
  let b = Sp.Builder.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Rmat.get dense i j <> 0. then Sp.Builder.add b i j
    done
  done;
  let p = Sp.Builder.compile b in
  let v = Sp.Real.create p in
  Sp.iter p (fun s row col -> Sp.Real.set_slot v s (Rmat.get dense row col));
  (dense, p, v)

let rel_err x y =
  let scale =
    Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1e-30 x
  in
  let worst = ref 0. in
  Array.iteri
    (fun i v -> worst := Float.max !worst (Float.abs (v -. y.(i)) /. scale))
    x;
  !worst

let prop_sparse_matches_dense =
  QCheck.Test.make ~name:"sparse LU matches dense LU within 1e-10" ~count:200
    (QCheck.make mna_system_gen) (fun sys ->
      let dense, _, v = build_mna sys in
      let n = Rmat.rows dense in
      let b = Array.init n (fun i -> Float.sin (float_of_int (i + 1))) in
      let x_dense = Rmat.solve dense b in
      let x_sparse = Sp.Real.solve (Sp.Real.factor v) b in
      rel_err x_dense x_sparse <= 1e-10)

let prop_refactor_matches_fresh =
  QCheck.Test.make
    ~name:"numeric refactor equals dense solve on perturbed values"
    ~count:200 (QCheck.make mna_system_gen) (fun sys ->
      let dense, p, v = build_mna sys in
      let n = Rmat.rows dense in
      let f = Sp.Real.factor v in
      (* Perturb every entry by a smooth +-10% and replay numerics
         only. *)
      Sp.iter p (fun s row col ->
          let x = Rmat.get dense row col in
          let x' = x *. (1. +. (0.1 *. Float.sin (float_of_int (s + 1)))) in
          Rmat.set dense row col x';
          Sp.Real.set_slot v s x');
      match Sp.Real.refactor f v with
      | exception Sp.Unstable -> QCheck.assume_fail ()
      | () ->
        let b = Array.init n (fun i -> Float.cos (float_of_int i)) in
        let x_dense = Rmat.solve dense b in
        let x_sparse = Sp.Real.solve f b in
        rel_err x_dense x_sparse <= 1e-10)

let prop_csplit_matches_cmat =
  QCheck.Test.make ~name:"complex sparse LU matches Cmat within 1e-10"
    ~count:200 (QCheck.make mna_system_gen) (fun sys ->
      let dense, p, _ = build_mna sys in
      let n = Rmat.rows dense in
      let a = Cmat.create n n in
      let v = Sp.Csplit.create p in
      Sp.iter p (fun s row col ->
          let re = Rmat.get dense row col in
          let im = 0.3 *. Float.sin (float_of_int (s + 2)) in
          Cmat.set a row col { Complex.re; im };
          Sp.Csplit.set_slot v s re im);
      let b =
        Array.init n (fun i ->
            { Complex.re = 1. /. float_of_int (i + 1); im = 0.5 })
      in
      let x_dense = Cmat.solve a b in
      let x_sparse = Sp.Csplit.solve (Sp.Csplit.factor v) b in
      let scale =
        Array.fold_left
          (fun acc (z : Complex.t) -> Float.max acc (Complex.norm z))
          1e-30 x_dense
      in
      let worst = ref 0. in
      Array.iteri
        (fun i (z : Complex.t) ->
          worst :=
            Float.max !worst (Complex.norm (Complex.sub z x_sparse.(i)) /. scale))
        x_dense;
      !worst <= 1e-10)

(* ---------- frequency panels ---------- *)

(* The panel contract is bit-identity, not tolerance: each lane must
   replay the scalar refactor/solve floating-point sequence exactly, and
   a lane must drop its [ok] flag precisely when the scalar replay would
   raise.  These properties drive random MNA systems (with synthetic
   capacitances) through both paths and compare bitwise. *)

let bitwise_eq (a : Complex.t array) (b : Complex.t array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Complex.t) (y : Complex.t) ->
         x.Complex.re = y.Complex.re && x.Complex.im = y.Complex.im)
       a b

let prop_panel_bitwise_scalar =
  QCheck.Test.make ~name:"panel lanes replay scalar refactor bit-for-bit"
    ~count:150
    (QCheck.make QCheck.Gen.(pair mna_system_gen (int_range 1 6)))
    (fun (sys, k) ->
      let dense, p, _ = build_mna sys in
      let n = Rmat.rows dense in
      let g = Sp.Real.create p and c = Sp.Real.create p in
      Sp.iter p (fun s row col ->
          Sp.Real.set_slot g s (Rmat.get dense row col);
          Sp.Real.set_slot c s
            (1e-9 *. Float.abs (Float.sin (float_of_int (s + 1)))));
      let omegas =
        Array.init k (fun kk -> 6.28e3 *. (7.3 ** float_of_int kk))
      in
      let vals = Sp.Csplit.create p in
      Sp.Csplit.assemble_gc vals ~g ~c ~omega:omegas.(0);
      let base = Sp.Csplit.factor vals in
      let b =
        Array.init n (fun i ->
            { Complex.re = Float.sin (float_of_int (i + 1)); im = 0.25 })
      in
      let pv = Sp.Csplit.Panel.create p ~k in
      Sp.Csplit.Panel.assemble_gc pv ~g ~c ~omegas;
      let pf = Sp.Csplit.Panel.prepare base ~k in
      Sp.Csplit.Panel.refactor pf pv;
      let xs = Sp.Csplit.Panel.solve pf b in
      let ok = ref true in
      for kk = 0 to k - 1 do
        Sp.Csplit.assemble_gc vals ~g ~c ~omega:omegas.(kk);
        (match Sp.Csplit.refactor base vals with
        | exception (Sp.Unstable | Sp.Singular) ->
          if Sp.Csplit.Panel.ok pf kk then ok := false
        | () ->
          if not (Sp.Csplit.Panel.ok pf kk) then ok := false
          else if not (bitwise_eq (Sp.Csplit.solve base b) xs.(kk)) then
            ok := false)
      done;
      !ok)

let prop_panel_transposed_bitwise_scalar =
  (* The adjoint twin of the property above, at widths 1-8: each lane of
     [Panel.solve_transposed] must equal a scalar refactor plus
     [Csplit.solve_transposed] bit for bit.  Slot-dependent capacitances
     make A unsymmetric, so a forward solve cannot pass for the
     adjoint.  Optionally one lane is zeroed: its frozen pivots fail, it
     must drop its [ok] flag (its scalar replay refuses too), and the
     other lanes must stay exact. *)
  QCheck.Test.make
    ~name:"panel adjoint lanes replay scalar solve_transposed bit-for-bit"
    ~count:150
    (QCheck.make
       QCheck.Gen.(
         triple mna_system_gen (int_range 1 8) (opt (int_range 0 7))))
    (fun (sys, k, zeroed) ->
      let dense, p, _ = build_mna sys in
      let n = Rmat.rows dense in
      let g = Sp.Real.create p and c = Sp.Real.create p in
      Sp.iter p (fun s row col ->
          Sp.Real.set_slot g s (Rmat.get dense row col);
          Sp.Real.set_slot c s
            (1e-9 *. Float.abs (Float.sin (float_of_int (s + 1)))));
      let omegas =
        Array.init k (fun kk -> 6.28e3 *. (7.3 ** float_of_int kk))
      in
      let bad = Option.map (fun j -> j mod k) zeroed in
      let vals = Sp.Csplit.create p in
      Sp.Csplit.assemble_gc vals ~g ~c ~omega:omegas.(0);
      let base = Sp.Csplit.factor vals in
      let b =
        Array.init n (fun i ->
            { Complex.re = Float.cos (float_of_int (i + 2)); im = -0.4 })
      in
      let pv = Sp.Csplit.Panel.create p ~k in
      Sp.Csplit.Panel.assemble_gc pv ~g ~c ~omegas;
      Option.iter
        (fun lane ->
          for s = 0 to Sp.nnz p - 1 do
            Sp.Csplit.Panel.set_slot pv s ~lane 0. 0.
          done)
        bad;
      let pf = Sp.Csplit.Panel.prepare base ~k in
      Sp.Csplit.Panel.refactor pf pv;
      let ys = Sp.Csplit.Panel.solve_transposed pf b in
      let ok = ref (Array.length ys = k) in
      for kk = 0 to k - 1 do
        if bad = Some kk then
          for s = 0 to Sp.nnz p - 1 do
            Sp.Csplit.set_slot vals s 0. 0.
          done
        else Sp.Csplit.assemble_gc vals ~g ~c ~omega:omegas.(kk);
        match Sp.Csplit.refactor base vals with
        | exception (Sp.Unstable | Sp.Singular) ->
          if Sp.Csplit.Panel.ok pf kk then ok := false
        | () ->
          if bad = Some kk || not (Sp.Csplit.Panel.ok pf kk) then ok := false
          else if not (bitwise_eq (Sp.Csplit.solve_transposed base b) ys.(kk))
          then ok := false
      done;
      !ok)

let test_panel_unstable_lane () =
  (* Same 2x2 degeneration as [test_unstable_refactor], injected into
     the middle lane of a 3-wide panel: that lane must drop its [ok]
     flag while its neighbours still replay the scalar path exactly. *)
  let bld = Sp.Builder.create 2 in
  List.iter
    (fun (r, c) -> Sp.Builder.add bld r c)
    [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  let p = Sp.Builder.compile bld in
  let coords = [| (0, 0); (0, 1); (1, 0); (1, 1) |] in
  let lane_vals =
    [| [| 2.; 1.; 1.; 2. |];  (* good *)
       [| 1e-20; 1.; 1.; 1. |];  (* frozen (0,0) pivot degenerates *)
       [| 3.; 1.; 1.; 4. |] |]  (* good *)
  in
  let set_lane_scalar v lane =
    Array.iteri
      (fun i (r, c) ->
        Sp.Csplit.set_slot v (Sp.slot p ~row:r ~col:c) lane_vals.(lane).(i) 0.)
      coords
  in
  let v = Sp.Csplit.create p in
  set_lane_scalar v 0;
  let base = Sp.Csplit.factor v in
  let pv = Sp.Csplit.Panel.create p ~k:3 in
  Array.iteri
    (fun lane vals ->
      Array.iteri
        (fun i (r, c) ->
          Sp.Csplit.Panel.set_slot pv (Sp.slot p ~row:r ~col:c) ~lane vals.(i)
            0.)
        coords)
    lane_vals;
  let pf = Sp.Csplit.Panel.prepare base ~k:3 in
  Sp.Csplit.Panel.refactor pf pv;
  Alcotest.(check (list bool))
    "ok flags" [ true; false; true ]
    (List.init 3 (Sp.Csplit.Panel.ok pf));
  let b = [| { Complex.re = 1.; im = 0.5 }; { Complex.re = -2.; im = 0. } |] in
  let xs = Sp.Csplit.Panel.solve pf b in
  List.iter
    (fun lane ->
      set_lane_scalar v lane;
      Sp.Csplit.refactor base v;
      Alcotest.(check bool)
        (Printf.sprintf "lane %d bitwise equals scalar replay" lane)
        true
        (bitwise_eq (Sp.Csplit.solve base b) xs.(lane)))
    [ 0; 2 ];
  set_lane_scalar v 1;
  Alcotest.check_raises "bad lane's values refuse the scalar replay too"
    Sp.Unstable (fun () -> Sp.Csplit.refactor base v)

let prop_csplit_transposed =
  QCheck.Test.make ~name:"Csplit.solve_transposed solves the adjoint system"
    ~count:200 (QCheck.make mna_system_gen) (fun sys ->
      let dense, p, _ = build_mna sys in
      let n = Rmat.rows dense in
      let a = Cmat.create n n in
      let v = Sp.Csplit.create p in
      Sp.iter p (fun s row col ->
          let re = Rmat.get dense row col in
          let im = 0.3 *. Float.sin (float_of_int (s + 2)) in
          Cmat.set a row col { Complex.re; im };
          Sp.Csplit.set_slot v s re im);
      let b =
        Array.init n (fun i ->
            { Complex.re = Float.cos (float_of_int i); im = 0.1 })
      in
      let y = Sp.Csplit.solve_transposed (Sp.Csplit.factor v) b in
      (* Residual of Aᵀy = b against the dense assembly. *)
      let scale =
        Array.fold_left
          (fun acc (z : Complex.t) -> Float.max acc (Complex.norm z))
          1e-30 b
      in
      let worst = ref 0. in
      for i = 0 to n - 1 do
        let acc = ref Complex.zero in
        for j = 0 to n - 1 do
          acc := Complex.add !acc (Complex.mul (Cmat.get a j i) y.(j))
        done;
        worst :=
          Float.max !worst (Complex.norm (Complex.sub !acc b.(i)) /. scale)
      done;
      !worst <= 1e-9)

(* ---------- golden decks: analyses vs the dense oracle ---------- *)

let golden_decks () =
  let dir =
    List.find Sys.file_exists
      [ Filename.concat "golden" "decks"; Filename.concat "test" "golden/decks" ]
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sp")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat dir f)

let parse_deck file =
  let text = In_channel.with_open_text file In_channel.input_all in
  Ape_oracle.Support.parse ~process:proc ~title:file text

let test_golden_sweep_differential () =
  (* Documented tolerance: the engine and the oracle share stamp values
     bit-for-bit but eliminate in different orders, so solutions agree
     only to rounding.  1e-8 relative is ~6 orders of slack over the
     observed worst case (~1e-15) while still catching any structural
     bug. *)
  let tol = 1e-8 in
  let freqs = Ac.sweep_frequencies ~fstart:1e2 ~fstop:1e9 () in
  let checked = ref 0 in
  List.iter
    (fun file ->
      match parse_deck file with
      | exception _ -> ()
      | deck -> (
        match Dc.solve deck with
        | exception Dc.No_convergence _ -> ()
        | op ->
          incr checked;
          List.iter
            (fun (s : Ac.solution) ->
              let d = Ape_oracle.ac_solve op s.Ac.freq in
              let scale =
                Array.fold_left
                  (fun acc (z : Complex.t) -> Float.max acc (Complex.norm z))
                  1e-12 d
              in
              Array.iteri
                (fun i (z : Complex.t) ->
                  let err = Complex.norm (Complex.sub z s.Ac.x.(i)) /. scale in
                  if err > tol then
                    Alcotest.failf "%s: dense/sparse drift %g at %g Hz (x%d)"
                      file err s.Ac.freq i)
                d)
            (Ac.sweep_prepared (Ac.prepare op) freqs).Ac.points))
    (golden_decks ());
  Alcotest.(check bool) "checked several decks" true (!checked >= 3)

(* The oracle's C (element by element, one [Mos.small_signal] per
   device, terminals looked up by name) against [Engine.sparse_residual ~c]'s
   one device pass, bit for bit: at each golden deck's and the
   hierarchical two-stage deck's operating point, and at a spread point
   that puts devices in other regions. *)
let test_golden_oracle_capacitances () =
  let module Engine = Ape_spice.Engine in
  let bits m = Array.map (Array.map Int64.bits_of_float) (Rmat.to_arrays m) in
  let hier =
    List.fold_left Filename.concat
      (Filename.dirname (List.hd (golden_decks ())))
      [ "hier"; "two_stage.sp" ]
  in
  let hier_nl =
    Ape_oracle.Support.parse ~process:proc ~path:hier ~title:hier
      (In_channel.with_open_text hier In_channel.input_all)
  in
  let decks =
    List.map (fun f -> (f, parse_deck f)) (golden_decks ()) @ [ (hier, hier_nl) ]
  in
  List.iter
    (fun (file, nl) ->
      let index = Engine.build_index nl in
      let spread =
        Array.init (Engine.size index) (fun i -> 0.37 *. float_of_int (i + 1))
      in
      let points =
        match Dc.solve nl with
        | op -> [ ("operating point", op.Dc.x); ("spread point", spread) ]
        | exception Dc.No_convergence _ -> [ ("spread point", spread) ]
      in
      List.iter
        (fun (where, x) ->
          let _, _, c = Ape_oracle.linearize nl index x in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %s: oracle C = one-pass C" file where)
            true
            (bits (Ape_oracle.capacitances nl index x) = bits c))
        points)
    decks

(* The minimum-degree order is computed once, when the pattern is
   compiled: every fresh factorisation of the pattern takes the same
   array, and two of the same values agree bit for bit.  The digest
   pins every golden deck's real factor and solve at its operating
   point and its complex factor and solve at 1 MHz (fill counts and
   solution bits, in hex) to the values factorisations gave when each
   one recomputed its order. *)
let test_golden_order_once_per_pattern () =
  let module Engine = Ape_spice.Engine in
  let buf = Buffer.create 4096 in
  List.iter
    (fun file ->
      let nl = parse_deck file in
      let op = Dc.solve nl in
      let index = op.Dc.index in
      let pat = Engine.pattern index in
      let n = Sp.dim pat in
      Alcotest.(check bool)
        (file ^ ": one order per pattern")
        true
        (Sp.min_degree pat == Sp.min_degree pat);
      let g = Sp.Real.create pat and c = Sp.Real.create pat in
      ignore (Engine.sparse_residual ~c nl index op.Dc.x g);
      let rhs = Array.init n (fun i -> float_of_int (i + 1)) in
      let solve () =
        let fac = Sp.Real.factor g in
        (fac, Sp.Real.solve fac rhs)
      in
      let fac, x = solve () in
      let _, again = solve () in
      Alcotest.(check bool)
        (file ^ ": second factorisation bitwise")
        true
        (Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           x again);
      Printf.bprintf buf "%s %d %d %d;" (Filename.basename file) n
        (Sp.Real.lnz fac) (Sp.Real.unz fac);
      Array.iter (fun v -> Printf.bprintf buf "%h," v) x;
      let a = Sp.Csplit.create pat in
      Sp.Csplit.assemble_gc a ~g ~c ~omega:(2. *. Float.pi *. 1e6);
      let cf = Sp.Csplit.factor a in
      let z =
        Sp.Csplit.solve cf
          (Array.init n (fun i -> { Complex.re = float_of_int (i + 1); im = 0. }))
      in
      Printf.bprintf buf "%d %d;" (Sp.Csplit.lnz cf) (Sp.Csplit.unz cf);
      Array.iter (fun (v : Complex.t) -> Printf.bprintf buf "%h %h," v.re v.im) z;
      Buffer.add_char buf '\n')
    (golden_decks ());
  Alcotest.(check string) "factor and solve digest"
    "742a4b07ca9528c43dc529e13cdaa6b0"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_golden_sweep_panel_width_bitwise () =
  (* A sweep in panels of [Ac.panel_width] — 71 points, so the last
     panel is partial — must reproduce the per-frequency path bit for
     bit. *)
  let freqs = Ac.sweep_frequencies ~fstart:1e2 ~fstop:1e9 () in
  List.iter
    (fun file ->
      match Dc.solve (parse_deck file) with
      | exception Dc.No_convergence _ -> ()
      | op ->
        let p = Ac.prepare op in
        List.iter2
          (fun (a : Ac.solution) (b : Ac.solution) ->
            Array.iteri
              (fun i (u : Complex.t) ->
                let v = b.Ac.x.(i) in
                if not (u.Complex.re = v.Complex.re && u.Complex.im = v.Complex.im)
                then
                  Alcotest.failf "%s: scalar vs panel differ at %g Hz" file
                    a.Ac.freq)
              a.Ac.x)
          (List.map (Ac.solve_prepared p) freqs)
          (Ac.sweep_prepared p freqs).Ac.points)
    (golden_decks ())

let test_golden_dc_differential () =
  (* The sparse Newton solution must be a fixed point of a dense Newton
     step on the re-stamped residual and Jacobian. *)
  List.iter
    (fun file ->
      match Dc.solve (parse_deck file) with
      | exception Dc.No_convergence _ -> ()
      | op ->
        let x = op.Dc.x in
        let dx = Ape_oracle.newton_step op in
        let drift = rel_err x (Array.mapi (fun i d -> x.(i) +. d) dx) in
        if drift > 1e-6 then
          Alcotest.failf "%s: DC dense/sparse drift %g" file drift)
    (golden_decks ())

(* ---------- transient ---------- *)

let counter snap name =
  try List.assoc name snap.Ape_obs.counters with Not_found -> 0

let test_transient_counters_sparse () =
  let deck = parse_deck (List.hd (golden_decks ())) in
  Ape_obs.enable ();
  Ape_obs.reset ();
  let op = Dc.solve deck in
  let source =
    List.find_map
      (fun e -> match e with N.Vsource { name; _ } -> Some name | _ -> None)
      (N.elements deck)
    |> Option.get
  in
  let stim = [ (source, Tr.step ~t0:1e-7 ~high:1. ()) ] in
  let _ = Tr.run ~stimulus:stim ~tstop:2e-6 ~dt:2e-8 op in
  let snap = Ape_obs.snapshot () in
  Ape_obs.disable ();
  let steps = counter snap "transient.steps"
  and solves = counter snap "transient.solves"
  and cuts = counter snap "transient.step_cuts" in
  Alcotest.(check bool) "ran steps" true (steps > 0);
  (* Locked since the step-cutting controller landed: each cut retries
     as two half-steps. *)
  Alcotest.(check int) "solves = steps + 2*cuts" (steps + (2 * cuts)) solves;
  Alcotest.(check bool) "sparse engine actually used" true
    (counter snap "sparse.symbolic" > 0)

let test_transient_waveform_differential () =
  let deck = parse_deck (List.hd (golden_decks ())) in
  let source =
    List.find_map
      (fun e -> match e with N.Vsource { name; _ } -> Some name | _ -> None)
      (N.elements deck)
    |> Option.get
  in
  let stim = [ (source, Tr.step ~t0:1e-7 ~high:1. ()) ] in
  let op = Dc.solve deck in
  let rs = Tr.run ~stimulus:stim ~tstop:2e-6 ~dt:2e-8 op in
  List.iter2
    (fun (name, yd) (name', ys) ->
      Alcotest.(check string) "node order" name name';
      Array.iteri
        (fun k v ->
          if Float.abs (v -. ys.(k)) > 1e-6 *. Float.max 1. (Float.abs v) then
            Alcotest.failf "node %s sample %d: dense %g vs sparse %g" name k v
              ys.(k))
        yd)
    (Ape_oracle.transient_be ~stimulus:stim ~tstop:2e-6 ~dt:2e-8 op)
    rs.Tr.nodes

(* ---------- suite ---------- *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_sparse"
    [
      ( "pattern",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basics;
          Alcotest.test_case "min_degree permutation" `Quick
            test_min_degree_permutation;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "0x0 system" `Quick test_empty_system;
          Alcotest.test_case "1x1 system" `Quick test_one_by_one;
          Alcotest.test_case "structurally singular" `Quick
            test_structurally_singular;
          Alcotest.test_case "numerically singular" `Quick
            test_numerically_singular;
          Alcotest.test_case "unstable refactor" `Quick test_unstable_refactor;
        ] );
      qsuite "differential-properties"
        [
          prop_sparse_matches_dense; prop_refactor_matches_fresh;
          prop_csplit_matches_cmat; prop_csplit_transposed;
        ];
      ( "panel",
        List.map QCheck_alcotest.to_alcotest
          [ prop_panel_bitwise_scalar; prop_panel_transposed_bitwise_scalar ]
        @ [
            Alcotest.test_case "injected unstable lane" `Quick
              test_panel_unstable_lane;
          ] );
      ( "golden-decks",
        [
          Alcotest.test_case "AC sweep dense vs sparse" `Quick
            test_golden_sweep_differential;
          Alcotest.test_case "sparse sweep panel width bitwise" `Quick
            test_golden_sweep_panel_width_bitwise;
          Alcotest.test_case "oracle C = one-pass C bitwise" `Quick
            test_golden_oracle_capacitances;
          Alcotest.test_case "DC dense vs sparse" `Quick
            test_golden_dc_differential;
          Alcotest.test_case "min-degree order once per pattern" `Quick
            test_golden_order_once_per_pattern;
        ] );
      ( "transient",
        [
          Alcotest.test_case "counter invariant under sparse" `Quick
            test_transient_counters_sparse;
          Alcotest.test_case "waveform dense vs sparse" `Quick
            test_transient_waveform_differential;
        ] );
    ]
