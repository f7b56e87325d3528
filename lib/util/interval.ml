type t = { lo : float; hi : float }

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN bound";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let of_center ?(pct = 0.2) x =
  let a = x *. (1. -. pct) and b = x *. (1. +. pct) in
  make (Float.min a b) (Float.max a b)

let lo t = t.lo
let hi t = t.hi
let width t = t.hi -. t.lo
