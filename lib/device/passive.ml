type resistor = { r : float; area : float }
type capacitor = { c : float; area : float }

let resistor process r =
  if r <= 0. then invalid_arg "Passive.resistor: non-positive";
  { r; area = Ape_process.Process.resistor_area process r }

let capacitor process c =
  if c <= 0. then invalid_arg "Passive.capacitor: non-positive";
  { c; area = Ape_process.Process.capacitor_area process c }

(* E96 series mantissas are 10^(k/96) rounded to 3 digits; generate them
   rather than tabulate. *)
let e96_mantissas =
  Array.init 96 (fun k ->
      Float.round (1000. *. (10. ** (float_of_int k /. 96.))) /. 1000.)

let e96_round x =
  if x <= 0. then invalid_arg "Passive.e96_round: non-positive";
  let decade = Float.floor (Float.log10 x) in
  let scale = 10. ** decade in
  let mant = x /. scale in
  let best = ref e96_mantissas.(0) and best_err = ref infinity in
  Array.iter
    (fun m ->
      let err = Float.abs (m -. mant) in
      if err < !best_err then begin
        best := m;
        best_err := err
      end)
    e96_mantissas;
  (* The next decade's first value (10.0) can be closer than 9.76. *)
  if Float.abs (10. -. mant) < !best_err then 10. *. scale
  else !best *. scale
