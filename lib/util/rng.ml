type t = Random.State.t

let create seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5deece66 |]

(* Children are seeded from several parent draws: two 30-bit words give
   only ~2^60 distinct child streams and leave sibling seeds sharing
   most of the parent's state trajectory; six words keep siblings
   statistically independent (test/test_util.ml checks correlation). *)
let split_words = 6

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative";
  let base = Array.init split_words (fun _ -> Random.State.bits t) in
  Array.init n (fun i ->
      Random.State.make (Array.append base [| i; i lxor 0x2545f491 |]))

let uniform t lo hi =
  if lo > hi then invalid_arg "Rng.uniform: lo > hi";
  lo +. (Random.State.float t 1.0 *. (hi -. lo))

let log_uniform t lo hi =
  if lo <= 0. || hi <= 0. then invalid_arg "Rng.log_uniform: bounds <= 0";
  Float.exp (uniform t (Float.log lo) (Float.log hi))

let gauss t ~mean ~sigma =
  let u1 = Float.max 1e-300 (Random.State.float t 1.0) in
  let u2 = Random.State.float t 1.0 in
  mean
  +. sigma
     *. Float.sqrt (-2. *. Float.log u1)
     *. Float.cos (2. *. Float.pi *. u2)

let int t n = Random.State.int t n
let bool t = Random.State.bool t

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty";
  arr.(Random.State.int t (Array.length arr))
