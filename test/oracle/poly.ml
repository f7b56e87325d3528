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

let eval t v =
  let acc = ref 0. in
  for i = Array.length t - 1 downto 0 do
    acc := (!acc *. v) +. t.(i)
  done;
  !acc

let derivative t =
  if Array.length t <= 1 then [| 0. |]
  else trim (Array.init (Array.length t - 1) (fun i -> float_of_int (i + 1) *. t.(i + 1)))

let mul a b =
  let r = Array.make (Array.length a + Array.length b - 1) 0. in
  Array.iteri
    (fun i ai -> Array.iteri (fun j bj -> r.(i + j) <- r.(i + j) +. (ai *. bj)) b)
    a;
  trim r

let of_real_roots roots =
  List.fold_left (fun acc r -> mul acc [| -.r; 1. |]) [| 1. |] roots
