let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Float_ext.clamp: lo > hi";
  Float.min hi (Float.max lo x)

let lerp a b t = a +. (t *. (b -. a))

let linspace a b n =
  if n < 2 then invalid_arg "Float_ext.linspace: n < 2";
  List.init n (fun i -> lerp a b (float_of_int i /. float_of_int (n - 1)))

let logspace a b n =
  if a <= 0. || b <= 0. then invalid_arg "Float_ext.logspace: bounds <= 0";
  List.map (fun e -> 10. ** e) (linspace (Float.log10 a) (Float.log10 b) n)

let db_of_gain g = 20. *. Float.log10 (Float.abs g)
let gain_of_db db = 10. ** (db /. 20.)
let sq x = x *. x

let rel_error reference measured =
  if reference = 0. then Float.abs measured
  else Float.abs (measured -. reference) /. Float.abs reference

let mean = function
  | [] -> invalid_arg "Float_ext.mean: empty"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geometric_mean = function
  | [] -> invalid_arg "Float_ext.geometric_mean: empty"
  | xs ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0. then invalid_arg "Float_ext.geometric_mean: x <= 0"
          else acc +. Float.log x)
        0. xs
    in
    Float.exp (log_sum /. float_of_int (List.length xs))
