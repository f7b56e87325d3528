(* Closed-form reference for the generated RC ladders: vin drives
   [sections] series resistors [r], each followed by a shunt capacitor
   [c] to ground, the far end open.  Every node also carries the MNA
   engine's gmin (1e-12 S) to ground, which at the tolerance the check
   uses is not negligible on long ladders. *)

let gmin = 1e-12

(* V(out)/V(in) at [freq] Hz, by cascading the sections' ABCD matrices
   from the open end: with V(out) = 1 and no load current, walk back
   through each shunt admittance and series resistor to the input. *)
let transfer ~sections ~r ~c freq =
  let y = { Complex.re = gmin; im = 2. *. Float.pi *. freq *. c } in
  let rc = { Complex.re = r; im = 0. } in
  let v = ref Complex.one and i = ref Complex.zero in
  for _ = 1 to sections do
    i := Complex.add !i (Complex.mul y !v);
    v := Complex.add !v (Complex.mul rc !i)
  done;
  Complex.div Complex.one !v

let deck ~title ~sections ~r ~c =
  let b = Buffer.create (64 * sections) in
  Printf.bprintf b "* %s\nVIN n0 0 DC 1 AC 1\n" title;
  for k = 0 to sections - 1 do
    Printf.bprintf b "R%d n%d n%d %.17g\nC%d n%d 0 %.17g\n" k k (k + 1) r k (k + 1) c
  done;
  Buffer.add_string b ".END\n";
  Buffer.contents b

let out_node sections = Printf.sprintf "n%d" sections
