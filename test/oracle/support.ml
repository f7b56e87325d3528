(* Helpers that only the tests call: a raising deck reader, NMOS/PMOS
   builder shorthands, the current sources and VCVSs that no production
   code builds, SPICE-style stimulus waveforms, and the model's drain
   current. *)

module B = Ape_circuit.Builder
module N = Ape_circuit.Netlist
module Sp = Ape_circuit.Spice_parser
module Proc = Ape_process.Process

exception Parse_error of Sp.diagnostic

(* [Spice_parser.parse_result] that raises on the first error. *)
let parse ?process ?path ~title text =
  let r = Sp.parse_result ?process ?path ~title text in
  match Sp.errors r with [] -> r.Sp.netlist | d :: _ -> raise (Parse_error d)

let rel_error reference measured =
  if reference = 0. then Float.abs measured
  else Float.abs (measured -. reference) /. Float.abs reference

let drain_current card g ~vgs ~vds ~vsb =
  (Ape_device.Mos.evaluate card g ~vgs ~vds ~vsb).Ape_device.Mos.ids

(* NMOS with bulk on ground, PMOS with bulk on the supply node. *)
let nmos b (process : Proc.t) ~d ~g ~s ~w ~l =
  B.mosfet b process.Proc.nmos ~d ~g ~s ~b:N.ground ~w ~l

let pmos b (process : Proc.t) ~d ~g ~s ~vdd_node ~w ~l =
  B.mosfet b process.Proc.pmos ~d ~g ~s ~b:vdd_node ~w ~l

(* The builder makes no current source or VCVS, since only decks hold
   them: a test appends these with [finish].  Each is named after the
   node it drives. *)
let isource ~p ~n dc = N.Isource { name = "I" ^ n; p; n; dc; ac = 0. }
let vcvs ~p ~n ~cp ~cn gain = N.Vcvs { name = "E" ^ p; p; n; cp; cn; gain }

(* The builder's netlist with [extra] appended, validated. *)
let finish b extra =
  let netlist = N.append (B.finish_unvalidated b) extra in
  N.validate netlist;
  netlist

(* Periodic trapezoidal pulse (SPICE PULSE-like, fall time = rise
   time). *)
let pulse ?(delay = 0.) ?(rise = 1e-9) ~low ~high ~width ~period () t =
  if t < delay then low
  else begin
    let tau = Float.rem (t -. delay) period in
    if tau < rise then low +. ((high -. low) *. tau /. rise)
    else if tau < rise +. width then high
    else if tau < (2. *. rise) +. width then
      high -. ((high -. low) *. (tau -. rise -. width) /. rise)
    else low
  end

let sine ?(offset = 0.) ~ampl ~freq () t =
  offset +. (ampl *. Float.sin (2. *. Float.pi *. freq *. t))
