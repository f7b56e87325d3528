(* Unit and property tests for Ape_util: units, float helpers, intervals,
   matrices, polynomials, root finding, RNG, pools, tables. *)

module U = Ape_util.Units
module F = Ape_util.Float_ext
module I = Ape_util.Interval
module Rmat = Ape_oracle.Rmat
module Cmat = Ape_oracle.Cmat
module Poly = Ape_oracle.Poly
module Root = Ape_util.Rootfind
module Rng = Ape_util.Rng
module Table = Ape_util.Table

let check_float = Alcotest.(check (float 1e-9))
let checkf msg expected actual = check_float msg expected actual
let check_close ?(tol = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.8g vs %.8g" msg expected actual)
    true
    (F.approx_equal ~rtol:tol ~atol:tol expected actual)

(* ---------- Units ---------- *)

let test_eng_format () =
  Alcotest.(check string) "mega" "4.67M" (U.to_eng 4.67e6);
  Alcotest.(check string) "micro" "13u" (U.to_eng 1.3e-5);
  Alcotest.(check string) "unit" "5" (U.to_eng 5.);
  Alcotest.(check string) "negative" "-2.5m" (U.to_eng (-2.5e-3));
  Alcotest.(check string) "zero" "0" (U.to_eng 0.);
  Alcotest.(check string) "kilo trim" "10k" (U.to_eng 1e4)

let test_constants () =
  check_close "eps_ox" (3.9 *. 8.8541878128e-12) U.eps_ox;
  check_close "thermal voltage at 300.15K" 0.02585
    (U.k_boltzmann *. 300.15 /. 1.602176634e-19) ~tol:1e-3

(* ---------- Float_ext ---------- *)

let test_float_helpers () =
  Alcotest.(check bool) "approx eq" true (F.approx_equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "approx ne" false (F.approx_equal 1.0 1.1);
  checkf "clamp hi" 2. (F.clamp ~lo:0. ~hi:2. 5.);
  checkf "clamp lo" 0. (F.clamp ~lo:0. ~hi:2. (-1.));
  checkf "lerp mid" 1.5 (F.lerp 1. 2. 0.5);
  Alcotest.(check int) "logspace length" 5 (List.length (F.logspace 1. 1e4 5));
  checkf "logspace last" 1e4 (List.nth (F.logspace 1. 1e4 5) 4);
  check_close "logspace mid" 10. (List.nth (F.logspace 1. 100. 3) 1);
  checkf "db of 10" 20. (F.db_of_gain 10.);
  check_close "gain of 20dB" 10. (F.gain_of_db 20.)

let test_float_errors () =
  Alcotest.check_raises "clamp bad" (Invalid_argument "Float_ext.clamp: lo > hi")
    (fun () -> ignore (F.clamp ~lo:2. ~hi:1. 0.))

(* ---------- Interval ---------- *)

let test_interval_basic () =
  let iv = I.make 1. 3. in
  checkf "lo" 1. (I.lo iv);
  checkf "hi" 3. (I.hi iv);
  checkf "width" 2. (I.width iv);
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (I.make 3. 1.));
  let c = I.of_center ~pct:0.2 10. in
  checkf "center lo" 8. (I.lo c);
  checkf "center hi" 12. (I.hi c);
  (* Negative centre keeps bounds ordered. *)
  let n = I.of_center ~pct:0.2 (-10.) in
  Alcotest.(check bool) "neg ordered" true (I.lo n < I.hi n)

let prop_interval_of_center =
  QCheck.Test.make ~name:"of_center brackets its centre, width 2 pct |x|"
    ~count:200
    (QCheck.pair (QCheck.float_range (-1e3) 1e3) (QCheck.float_range 0. 0.99))
    (fun (x, pct) ->
      let iv = I.of_center ~pct x in
      I.lo iv <= x && x <= I.hi iv
      && Float.abs (I.width iv -. (2. *. pct *. Float.abs x))
         <= 1e-12 *. Float.max 1. (Float.abs x))

(* ---------- Matrix ---------- *)

let test_matrix_solve () =
  let a = Rmat.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Rmat.solve a [| 5.; 10. |] in
  check_close "x0" 1. x.(0);
  check_close "x1" 3. x.(1)

let test_matrix_identity () =
  let i =
    Rmat.of_arrays
      (Array.init 4 (fun r -> Array.init 4 (fun c -> if r = c then 1. else 0.)))
  in
  let b = [| 1.; 2.; 3.; 4. |] in
  let x = Rmat.solve i b in
  Array.iteri (fun k v -> check_close "identity solve" b.(k) v) x

let test_matrix_singular () =
  let a = Rmat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Ape_oracle.Matrix.Singular (fun () ->
      ignore (Rmat.solve a [| 1.; 1. |]))

let test_matrix_complex () =
  let j = { Complex.re = 0.; im = 1. } in
  let a =
    Cmat.of_arrays
      [| [| Complex.one; j |]; [| Complex.neg j; Complex.one |] |]
  in
  (* Well-conditioned Hermitian-ish system. *)
  let a2 = Cmat.of_arrays (Cmat.to_arrays a) in
  Cmat.set a2 0 0 { Complex.re = 3.; im = 0. };
  let b = [| Complex.one; Complex.zero |] in
  let x = Cmat.solve a2 b in
  let res = Cmat.residual_norm a2 x b in
  Alcotest.(check bool) "complex residual tiny" true (res < 1e-12)

let prop_lu_random =
  QCheck.Test.make ~name:"LU solves random diagonally-dominant systems"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 9) (float_range (-1.) 1.))
    (fun coeffs ->
      let n = 3 in
      let m = Rmat.create n n in
      List.iteri (fun k v -> Rmat.set m (k / n) (k mod n) v) coeffs;
      for i = 0 to n - 1 do
        Rmat.add_to m i i 5.
      done;
      let b = Array.init n (fun i -> float_of_int (i + 1)) in
      let x = Rmat.solve m b in
      Rmat.residual_norm m x b < 1e-9)

(* The float Rmat is written out by hand; Make over floats is the
   functor it must equal bit for bit, row swaps and Singular included. *)
module Fmat = Ape_oracle.Matrix.Make (struct
  type t = float

  let zero = 0.
  let one = 1.
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let norm = Float.abs
end)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* n <= 16 systems of four shapes: dense; sparse (about a quarter of
   the entries nonzero); a zero (0, 0) entry, so the first pivot step
   swaps rows; a zero column, so factorisation raises Singular.  Entry
   magnitudes span six decades. *)
let gen_dense_system =
  QCheck.Gen.(
    int_range 1 16 >>= fun n ->
    int_range 0 3 >>= fun shape ->
    array_size (return (n * n)) (float_range (-1.) 1.) >>= fun vals ->
    array_size (return (n * n)) (int_range (-3) 3) >>= fun exps ->
    array_size (return (n * n)) (int_range 0 3) >>= fun mask ->
    array_size (return n) (float_range (-10.) 10.) >>= fun b ->
    int_range 0 (n - 1) >|= fun zero_col ->
    let a =
      Array.init n (fun i ->
          Array.init n (fun j ->
              let k = (i * n) + j in
              if shape = 1 && mask.(k) > 0 && i <> j then 0.
              else if shape = 3 && j = zero_col then 0.
              else vals.(k) *. (10. ** float_of_int exps.(k))))
    in
    if shape = 2 then a.(0).(0) <- 0.;
    (a, b))

let prop_rmat_equals_functor =
  QCheck.Test.make ~name:"float Rmat = Make over floats, bit for bit"
    ~count:300
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "n=%d a=%s b=%s" (Array.length b)
           (String.concat ";"
              (Array.to_list
                 (Array.map
                    (fun r ->
                      String.concat "," (Array.to_list (Array.map string_of_float r)))
                    a)))
           (String.concat "," (Array.to_list (Array.map string_of_float b))))
       gen_dense_system)
    (fun (a, b) ->
      let n = Array.length b in
      let r = Rmat.of_arrays a and f = Fmat.of_arrays a in
      let same_outcome solve_r solve_f =
        match (solve_r (), solve_f ()) with
        | x, y -> same_bits x y
        | exception Ape_oracle.Matrix.Singular -> (
          match solve_f () with
          | _ -> false
          | exception Ape_oracle.Matrix.Singular -> true)
      in
      let factored =
        same_outcome
          (fun () -> Rmat.lu_solve (Rmat.lu_factor r) b)
          (fun () -> Fmat.lu_solve (Fmat.lu_factor f) b)
      in
      let solved =
        same_outcome (fun () -> Rmat.solve r b) (fun () -> Fmat.solve f b)
      in
      let mat_vec = same_bits (Rmat.mat_vec r b) (Fmat.mat_vec f b) in
      (* Accumulate onto existing entries, twice on the diagonal. *)
      for k = 0 to (2 * n) - 1 do
        let i = k mod n and j = k * 7 mod n in
        Rmat.add_to r i j b.(i);
        Fmat.add_to f i j b.(i)
      done;
      let added =
        Array.for_all2 same_bits (Rmat.to_arrays r) (Fmat.to_arrays f)
      in
      factored && solved && mat_vec && added)

(* ---------- Poly ---------- *)

let test_poly_eval () =
  let p = Poly.of_coeffs [| 1.; 2.; 3. |] in
  checkf "eval at 2" 17. (Poly.eval p 2.);
  Alcotest.(check int) "degree" 2 (Poly.degree p);
  let d = Poly.derivative p in
  checkf "derivative at 1" 8. (Poly.eval d 1.)

let test_poly_roots () =
  let p = Poly.of_real_roots [ 1.; 2.; 3. ] in
  let roots = Ape_oracle.Poly_ref.real_roots p in
  Alcotest.(check int) "three real roots" 3 (List.length roots);
  List.iter2
    (fun expected actual -> check_close "root" expected actual ~tol:1e-5)
    [ 1.; 2.; 3. ] roots

let test_poly_complex_roots () =
  (* x^2 + 1 = 0 -> +/- i *)
  let p = Poly.of_coeffs [| 1.; 0.; 1. |] in
  let roots = Ape_oracle.Poly_ref.roots p in
  Alcotest.(check int) "two roots" 2 (List.length roots);
  List.iter
    (fun (z : Complex.t) ->
      check_close "re" 0. z.re ~tol:1e-6;
      check_close "|im|" 1. (Float.abs z.im) ~tol:1e-6)
    roots

let test_butterworth () =
  (* The fourth-order Butterworth polynomial as its two quadratic
     sections s^2 + 2 sin(a) s + 1: its roots lie on the unit circle in
     the left half plane, and the low-pass designer's stage Qs are
     1/(2|Re p|) of its upper-half-plane roots. *)
  let section a = Poly.of_coeffs [| 1.; 2. *. Float.sin a; 1. |] in
  let b4 =
    Poly.mul (section (Float.pi /. 8.)) (section (3. *. Float.pi /. 8.))
  in
  let poles = Ape_oracle.Poly_ref.roots b4 in
  Alcotest.(check int) "four poles" 4 (List.length poles);
  List.iter
    (fun (p : Complex.t) ->
      check_close "unit magnitude" 1. (Complex.norm p) ~tol:1e-9;
      Alcotest.(check bool) "left half plane" true (p.re < 0.))
    poles;
  let expected =
    List.filter_map
      (fun (p : Complex.t) ->
        if p.im > 1e-9 then Some (1. /. (2. *. Float.abs p.re)) else None)
      poles
    |> List.sort compare
  in
  let lpf =
    Ape_estimator.Filter.design_lp Ape_process.Process.c12
      { order = 4; f_cutoff = 1e3; r_base = 10e3 }
  in
  Alcotest.(check int) "two stages" 2 (List.length lpf.stages);
  List.iter2
    (fun q (s : Ape_estimator.Filter.stage) -> check_close "stage Q" q s.q)
    expected lpf.stages

let prop_poly_mul_eval =
  QCheck.Test.make ~name:"eval(p*q) = eval p * eval q" ~count:200
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 4) (float_range (-3.) 3.))
        (list_of_size (Gen.int_range 1 4) (float_range (-3.) 3.))
        (float_range (-2.) 2.))
    (fun (ca, cb, x) ->
      let pa = Poly.of_coeffs (Array.of_list ca) in
      let pb = Poly.of_coeffs (Array.of_list cb) in
      F.approx_equal ~rtol:1e-9 ~atol:1e-9
        (Poly.eval (Poly.mul pa pb) x)
        (Poly.eval pa x *. Poly.eval pb x))

(* ---------- Rootfind ---------- *)

let test_brent () =
  let root = Root.brent (fun x -> Float.cos x -. x) 0. 1. in
  check_close "dottie number" 0.7390851332151607 root ~tol:1e-9

let test_newton () =
  let root =
    Root.newton ~f:(fun x -> (x *. x) -. 2.) ~df:(fun x -> 2. *. x) 1.
  in
  check_close "sqrt 2 newton" (Float.sqrt 2.) root ~tol:1e-9

let test_no_bracket () =
  Alcotest.check_raises "no bracket" Root.No_bracket (fun () ->
      ignore (Root.brent (fun x -> (x *. x) +. 1.) (-1.) 1.))

let test_expand_bracket () =
  let lo, hi = Root.expand_bracket (fun x -> x -. 100.) 0. 1. in
  Alcotest.(check bool) "bracket found" true (lo <= 100. && hi >= 100.)

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 10 do
    checkf "same stream" (Rng.uniform a 0. 1.) (Rng.uniform b 0. 1.)
  done

let test_rng_ranges () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let u = Rng.uniform rng 2. 5. in
    Alcotest.(check bool) "uniform in range" true (u >= 2. && u < 5.);
    let l = Rng.log_uniform rng 1e-6 1e-3 in
    Alcotest.(check bool) "log uniform in range" true
      (l >= 1e-6 && l <= 1e-3)
  done

let test_rng_gauss_moments () =
  let rng = Rng.create 11 in
  let n = 5000 in
  let samples = List.init n (fun _ -> Rng.gauss rng ~mean:2. ~sigma:0.5) in
  let mean = List.fold_left ( +. ) 0. samples /. float_of_int n in
  Alcotest.(check bool) "gauss mean near 2" true (Float.abs (mean -. 2.) < 0.05)

let correlation xs ys =
  let n = Array.length xs in
  let mx = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let my = Array.fold_left ( +. ) 0. ys /. float_of_int n in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  !sxy /. Float.sqrt (!sxx *. !syy)

(* MC correctness leans on per-sample stream independence: sibling
   streams from any seed must be uncorrelated.  1000 paired uniforms
   have correlation std ~1/sqrt(1000) ~ 0.032, so |r| < 0.15 is a ~5
   sigma acceptance band — tight enough to catch seed-sharing bugs,
   loose enough to never flake. *)
let prop_rng_split_n_independent =
  QCheck.Test.make ~name:"split_n children pairwise uncorrelated" ~count:10
    QCheck.small_nat (fun seed ->
      let children = Rng.split_n (Rng.create seed) 4 in
      let n = 1000 in
      let draws =
        Array.map (fun c -> Array.init n (fun _ -> Rng.uniform c 0. 1.)) children
      in
      let ok = ref true in
      Array.iteri
        (fun i xi ->
          Array.iteri
            (fun j xj ->
              if i < j && Float.abs (correlation xi xj) >= 0.15 then
                ok := false)
            draws)
        draws;
      !ok)

let test_rng_split_n_keyed () =
  (* Child i must depend only on (parent state, i): consuming a prefix
     of the array or asking for more children must not change it. *)
  let child_draw ~of_n i =
    let c = (Rng.split_n (Rng.create 42) of_n).(i) in
    Rng.uniform c 0. 1.
  in
  checkf "child 0 stable" (child_draw ~of_n:1 0) (child_draw ~of_n:8 0);
  checkf "child 2 stable" (child_draw ~of_n:3 2) (child_draw ~of_n:16 2);
  Alcotest.(check bool) "children differ" true
    (child_draw ~of_n:8 0 <> child_draw ~of_n:8 1)

(* ---------- Table ---------- *)

let test_table () =
  let out =
    Table.render ~header:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333" ] ]
  in
  Alcotest.(check bool) "has rule" true (String.length out > 0);
  (* Rows padded to header width must not raise; check cell formats. *)
  Alcotest.(check string) "pct" "13.8%" (Table.cell_pct 0.138)

let test_eng_edge_cases () =
  Alcotest.(check string) "nan" "nan" (U.to_eng Float.nan);
  Alcotest.(check string) "inf" "inf" (U.to_eng Float.infinity);
  Alcotest.(check string) "-inf" "-inf" (U.to_eng Float.neg_infinity);
  (* Beyond the prefix ladder: clamps to the extreme prefixes. *)
  Alcotest.(check bool) "tiny uses atto" true
    (String.length (U.to_eng 1e-20) > 0);
  Alcotest.(check string) "three significant digits" "1.23k" (U.to_eng 1234.56)

let test_linspace_errors () =
  Alcotest.check_raises "linspace n<2"
    (Invalid_argument "Float_ext.linspace: n < 2") (fun () ->
      ignore (F.logspace 1. 10. 1));
  Alcotest.check_raises "logspace non-positive"
    (Invalid_argument "Float_ext.logspace: bounds <= 0") (fun () ->
      ignore (F.logspace 0. 1. 3))

let prop_poly_of_roots_vanishes =
  QCheck.Test.make ~name:"poly of roots vanishes at each root" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 4) (float_range (-3.) 3.))
    (fun roots ->
      let p = Poly.of_real_roots roots in
      List.for_all (fun r -> Float.abs (Poly.eval p r) < 1e-9) roots)

(* ---------- Pool ---------- *)

module Pool = Ape_util.Pool

exception Boom of int

(* A raise inside a submitted thunk must re-raise at await — on the
   caller, not the worker — and must not wedge the pool: later tasks
   and the shutdown join still complete. *)
let test_pool_exception_propagation () =
  Pool.with_pool ~workers:2 (fun pool ->
      let bad = Pool.submit pool (fun () -> raise (Boom 42)) in
      let good = Pool.submit pool (fun () -> 17) in
      Alcotest.check_raises "thunk exception re-raised at await" (Boom 42)
        (fun () -> ignore (Pool.await bad));
      Alcotest.(check int) "pool still serves tasks" 17 (Pool.await good));
  (* with_pool returning at all is the no-deadlock assertion: shutdown
     joined both workers after a task raised. *)
  Alcotest.(check pass) "join after raise" () ()

let test_pool_map_exception_no_deadlock () =
  Alcotest.check_raises "map re-raises after joining all chunks" (Boom 3)
    (fun () ->
      ignore
        (Pool.map ~jobs:3 64 (fun i -> if i = 3 then raise (Boom 3) else i)))

let test_pool_inline_when_no_workers () =
  Pool.with_pool ~workers:0 (fun pool ->
      let t = Pool.submit pool (fun () -> 5) in
      Alcotest.(check int) "inline execution" 5 (Pool.await t))

let test_pool_submit_after_shutdown () =
  let pool = Pool.create ~workers:1 in
  Pool.shutdown pool;
  Alcotest.check_raises "submit refused"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

(* The daemon's signal handler and its normal exit path may both call
   shutdown; the second (and third) call must be a silent no-op, not a
   second Domain.join (which raises). *)
let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~workers:2 in
  let t = Pool.submit pool (fun () -> 7) in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown ~cancel_pending:true pool;
  Alcotest.(check int) "work done before first shutdown" 7 (Pool.await t);
  (* Also from another domain, racing a third call. *)
  let pool2 = Pool.create ~workers:1 in
  let closer = Domain.spawn (fun () -> Pool.shutdown pool2) in
  Pool.shutdown pool2;
  Domain.join closer;
  Alcotest.(check pass) "no raise on double shutdown" () ()

let test_pool_cancellation () =
  (* One worker held inside a task while more work queues up: shutdown
     with cancel_pending completes the queued task with Cancelled even
     though no worker ever picks it up. *)
  let started = Semaphore.Binary.make false in
  let gate = Semaphore.Binary.make false in
  let pool = Pool.create ~workers:1 in
  let blocker =
    Pool.submit pool (fun () ->
        Semaphore.Binary.release started;
        Semaphore.Binary.acquire gate)
  in
  (* Only submit the victim once the single worker is provably inside
     the blocker, so it must stay queued. *)
  Semaphore.Binary.acquire started;
  let queued = Pool.submit pool (fun () -> 1) in
  let closer =
    Domain.spawn (fun () -> Pool.shutdown ~cancel_pending:true pool)
  in
  (* shutdown drains the queue before joining workers, so this await
     wakes with Cancelled while the worker is still blocked. *)
  (match Pool.await queued with
  | _ -> Alcotest.fail "queued task should have been cancelled"
  | exception Pool.Cancelled -> ());
  Semaphore.Binary.release gate;
  Domain.join closer;
  Pool.await blocker;
  Alcotest.(check pass) "cancelled cleanly" () ()

let test_pool_reuse_across_rounds () =
  (* The persistent pool serves many submission rounds; results arrive
     in submission order per round. *)
  Pool.with_pool ~workers:2 (fun pool ->
      for round = 0 to 4 do
        let tasks =
          Array.init 8 (fun i -> Pool.submit pool (fun () -> (round * 8) + i))
        in
        Array.iteri
          (fun i t ->
            Alcotest.(check int) "round result" ((round * 8) + i)
              (Pool.await t))
          tasks
      done)

let prop_pool_map_jobs_invariant =
  QCheck.Test.make ~name:"map results independent of jobs" ~count:50
    QCheck.(pair (int_range 0 40) (int_range 1 6))
    (fun (n, jobs) ->
      let f i = (i * i) + 1 in
      Pool.map ~jobs n f = Array.init n f)

(* ---------- Matrix edge cases: 0x0 and 1x1 systems ---------- *)

(* A ground-only netlist produces a 0-unknown MNA system; the dense
   layer must treat it as trivially nonsingular rather than tripping the
   pivot test or indexing out of bounds. *)
let test_matrix_empty () =
  let m = Rmat.create 0 0 in
  let lu = Rmat.lu_factor m in
  Alcotest.(check int) "empty solve" 0 (Array.length (Rmat.lu_solve lu [||]));
  Alcotest.(check int) "empty matvec" 0 (Array.length (Rmat.mat_vec m [||]));
  Alcotest.(check int) "empty solve direct" 0
    (Array.length (Rmat.solve m [||]));
  Alcotest.check_raises "negative dim" (Invalid_argument "Matrix.create")
    (fun () -> ignore (Rmat.create (-1) 2));
  Alcotest.check_raises "lu_solve size" (Invalid_argument "Matrix.lu_solve")
    (fun () -> ignore (Rmat.lu_solve lu [| 1. |]))

let test_matrix_one () =
  let m = Rmat.of_arrays [| [| 4. |] |] in
  let x = Rmat.solve m [| 8. |] in
  checkf "1x1 solve" 2. x.(0);
  checkf "1x1 matvec" 4. (Rmat.mat_vec m [| 1. |]).(0);
  let z = Rmat.of_arrays [| [| 0. |] |] in
  Alcotest.check_raises "1x1 singular" Ape_oracle.Matrix.Singular (fun () ->
      ignore (Rmat.solve z [| 1. |]))

(* ---------- Poly root/eval round-trip ---------- *)

let prop_poly_roots_roundtrip =
  (* Distinct well-separated roots: of_real_roots -> real_roots recovers
     them (sorted), and the polynomial vanishes at each recovered root. *)
  QCheck.Test.make ~name:"of_real_roots -> real_roots round-trips"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 1 5) (int_range (-20) 20))
    (fun ints ->
      let roots =
        List.sort_uniq compare ints |> List.map float_of_int
      in
      let p = Poly.of_real_roots roots in
      let found = Ape_oracle.Poly_ref.real_roots p in
      List.length found = List.length roots
      && List.for_all2 (fun a b -> Float.abs (a -. b) < 1e-4) roots found
      && List.for_all (fun r -> Float.abs (Poly.eval p r) < 1e-6) found)

let prop_poly_eval_roundtrip =
  QCheck.Test.make ~name:"coeffs -> eval agrees with Horner by hand"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range (-3.) 3.))
    (fun coeffs ->
      let p = Poly.of_coeffs (Array.of_list coeffs) in
      let x = 0.7 in
      let by_hand =
        List.fold_right (fun c acc -> c +. (x *. acc)) coeffs 0.
      in
      Float.abs (Poly.eval p x -. by_hand) <= 1e-9 *. Float.max 1. (Float.abs by_hand))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ape_util"
    [
      ( "units",
        [
          Alcotest.test_case "eng format" `Quick test_eng_format;
          Alcotest.test_case "eng edge cases" `Quick test_eng_edge_cases;
          Alcotest.test_case "constants" `Quick test_constants;
        ] );
      ( "float_ext",
        [
          Alcotest.test_case "helpers" `Quick test_float_helpers;
          Alcotest.test_case "errors" `Quick test_float_errors;
          Alcotest.test_case "range errors" `Quick test_linspace_errors;
        ] );
      ( "interval",
        [ Alcotest.test_case "basics" `Quick test_interval_basic ] );
      qsuite "interval-properties" [ prop_interval_of_center ];
      ( "matrix",
        [
          Alcotest.test_case "solve 2x2" `Quick test_matrix_solve;
          Alcotest.test_case "identity" `Quick test_matrix_identity;
          Alcotest.test_case "singular" `Quick test_matrix_singular;
          Alcotest.test_case "complex" `Quick test_matrix_complex;
          Alcotest.test_case "empty system" `Quick test_matrix_empty;
          Alcotest.test_case "1x1 system" `Quick test_matrix_one;
        ] );
      qsuite "matrix-properties"
        [ prop_lu_random; prop_rmat_equals_functor ];
      ( "poly",
        [
          Alcotest.test_case "eval/derivative" `Quick test_poly_eval;
          Alcotest.test_case "real roots" `Quick test_poly_roots;
          Alcotest.test_case "complex roots" `Quick test_poly_complex_roots;
          Alcotest.test_case "butterworth" `Quick test_butterworth;
        ] );
      qsuite "poly-properties"
        [ prop_poly_mul_eval; prop_poly_of_roots_vanishes;
          prop_poly_roots_roundtrip; prop_poly_eval_roundtrip ];
      ( "rootfind",
        [
          Alcotest.test_case "brent" `Quick test_brent;
          Alcotest.test_case "newton" `Quick test_newton;
          Alcotest.test_case "no bracket" `Quick test_no_bracket;
          Alcotest.test_case "expand bracket" `Quick test_expand_bracket;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "gauss moments" `Quick test_rng_gauss_moments;
          Alcotest.test_case "split_n keyed by index" `Quick
            test_rng_split_n_keyed;
        ] );
      qsuite "rng-properties" [ prop_rng_split_n_independent ];
      ( "pool",
        [
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "map raise no deadlock" `Quick
            test_pool_map_exception_no_deadlock;
          Alcotest.test_case "inline with 0 workers" `Quick
            test_pool_inline_when_no_workers;
          Alcotest.test_case "submit after shutdown" `Quick
            test_pool_submit_after_shutdown;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "cancellation" `Quick test_pool_cancellation;
          Alcotest.test_case "reuse across rounds" `Quick
            test_pool_reuse_across_rounds;
        ] );
      qsuite "pool-properties" [ prop_pool_map_jobs_invariant ];
      ( "strings-table", [ Alcotest.test_case "table" `Quick test_table ] );
    ]
