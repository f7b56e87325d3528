type t = float array

let trim c =
  let n = ref (Array.length c) in
  while !n > 1 && c.(!n - 1) = 0. do
    decr n
  done;
  Array.sub c 0 !n

let of_coeffs c =
  if Array.length c = 0 then [| 0. |] else trim (Array.copy c)

let coeffs t = Array.copy t
let degree t = Array.length t - 1
let zero = [| 0. |]
let one = [| 1. |]
let x = [| 0.; 1. |]

let eval t v =
  let acc = ref 0. in
  for i = Array.length t - 1 downto 0 do
    acc := (!acc *. v) +. t.(i)
  done;
  !acc

let derivative t =
  if Array.length t <= 1 then zero
  else trim (Array.init (Array.length t - 1) (fun i -> float_of_int (i + 1) *. t.(i + 1)))

let add a b =
  let n = max (Array.length a) (Array.length b) in
  let get c i = if i < Array.length c then c.(i) else 0. in
  trim (Array.init n (fun i -> get a i +. get b i))

let scale k t = trim (Array.map (fun c -> k *. c) t)
let sub a b = add a (scale (-1.) b)

let mul a b =
  let r = Array.make (Array.length a + Array.length b - 1) 0. in
  Array.iteri
    (fun i ai -> Array.iteri (fun j bj -> r.(i + j) <- r.(i + j) +. (ai *. bj)) b)
    a;
  trim r

let of_real_roots roots =
  List.fold_left (fun acc r -> mul acc [| -.r; 1. |]) one roots

let butterworth_poles n =
  if n < 1 then invalid_arg "Poly.butterworth_poles: n < 1";
  List.init n (fun k ->
      let theta =
        Float.pi *. (2. *. float_of_int (k + 1) +. float_of_int n -. 1.)
        /. (2. *. float_of_int n)
      in
      { Complex.re = Float.cos theta; im = Float.sin theta })

let pp fmt t =
  let started = ref false in
  Array.iteri
    (fun i c ->
      if c <> 0. || (degree t = 0 && i = 0) then begin
        if !started then Format.fprintf fmt " + ";
        if i = 0 then Format.fprintf fmt "%g" c
        else if i = 1 then Format.fprintf fmt "%g x" c
        else Format.fprintf fmt "%g x^%d" c i;
        started := true
      end)
    t
