type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
  mutable data : float array;  (* capacity >= n; retained for quantiles *)
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; lo = infinity; hi = neg_infinity;
    data = [||] }

let add t x =
  if t.n = Array.length t.data then begin
    let cap = Int.max 16 (2 * Array.length t.data) in
    let grown = Array.make cap 0. in
    Array.blit t.data 0 grown 0 t.n;
    t.data <- grown
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1;
  (* Welford's update: numerically stable single pass. *)
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let mean t = if t.n = 0 then nan else t.mean

let variance t =
  if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)

let std t = Float.sqrt (variance t)
let min_value t = if t.n = 0 then nan else t.lo
let max_value t = if t.n = 0 then nan else t.hi
let values t = Array.sub t.data 0 t.n

let sorted t =
  let v = values t in
  Array.sort Float.compare v;
  v

let quantile_of_sorted v q =
  let n = Array.length v in
  if n = 0 then nan
  else if q <= 0. then v.(0)
  else if q >= 1. then v.(n - 1)
  else begin
    (* Linear interpolation between order statistics (type-7, the R and
       NumPy default). *)
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let frac = pos -. Float.floor pos in
    if i + 1 >= n then v.(n - 1)
    else v.(i) +. (frac *. (v.(i + 1) -. v.(i)))
  end

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  quantile_of_sorted (sorted t) q

type bin = { b_lo : float; b_hi : float; b_count : int }

let histogram ~bins t =
  if bins <= 0 then invalid_arg "Stats.histogram: bins <= 0";
  if t.n = 0 then [||]
  else begin
    let lo = t.lo and hi = t.hi in
    let width = (hi -. lo) /. float_of_int bins in
    let counts = Array.make bins 0 in
    if width <= 0. then counts.(0) <- t.n  (* all samples identical *)
    else
      for i = 0 to t.n - 1 do
        let b = int_of_float ((t.data.(i) -. lo) /. width) in
        let b = Int.min (bins - 1) (Int.max 0 b) in
        counts.(b) <- counts.(b) + 1
      done;
    Array.init bins (fun b ->
        {
          b_lo = lo +. (float_of_int b *. width);
          b_hi = (if b = bins - 1 then hi else lo +. (float_of_int (b + 1) *. width));
          b_count = counts.(b);
        })
  end
