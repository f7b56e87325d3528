(** Engineering units: SI prefixes, engineering-notation formatting and the
    handful of physical constants the device models need.

    All quantities in the code base are SI (volts, amperes, farads, metres,
    hertz, watts, seconds).  Helpers such as {!micro} and {!mega} make the
    source read like the paper's tables ([5000. *. micro *. micro] is
    5000 square microns). *)

(** {1 SI prefixes} *)

val mega : float
val kilo : float
val micro : float

(** {1 Common derived helpers} *)

val um : float
(** One micrometre in metres (alias of {!micro}). *)

val um2 : float
(** One square micrometre in square metres. *)

val pf : float

(** {1 Physical constants} *)

val k_boltzmann : float
(** Boltzmann constant, J/K. *)

val eps_0 : float
(** Vacuum permittivity, F/m. *)

val eps_ox : float
(** Permittivity of SiO2, F/m. *)

val thermal_voltage : ?temp_k:float -> unit -> float
(** [thermal_voltage ()] is kT/q at [temp_k] (default 300.15 K). *)

(** {1 Reading} *)

val suffix_multiplier : string -> float option
(** The multiplier of a non-empty SPICE magnitude suffix ([meg],
    [mil], [t], [g], [k], [m], [u], [n], [p], [f], [a]),
    case-insensitive as in SPICE: [m] and [M] are both milli, mega is
    [meg]; trailing unit letters are ignored (["pF"] is 1e-12). *)

val parse_number : string -> float option
(** The number rule of every input: a decimal with an optional SPICE
    magnitude suffix, ["4.7k"], ["10u"], ["2MEG"], ["1e-3"].  It does
    not check finiteness ([1e400] reads as infinity);
    {!Sexpr.finite} adds that for files and flags. *)

(** {1 Formatting} *)

val to_eng : ?digits:int -> float -> string
(** [to_eng x] renders [x] in engineering notation with an SI prefix:
    [to_eng 4.67e6 = "4.67M"], [to_eng 1.3e-5 = "13u"].  [digits] is the
    number of significant digits (default 3).  It is for display: its
    SI [M] (mega) reads back through {!parse_number} as SPICE's milli,
    so machine-read output uses {!to_exact}. *)

val to_eng_unit : ?digits:int -> string -> float -> string
(** [to_eng_unit "Hz" 2.64e6 = "2.64MHz"]. *)

val to_exact : float -> string
(** Shortest decimal representation that parses back (with
    [float_of_string]) to the identical IEEE double — for machine-read
    output such as netlists and golden tables, where {!to_eng}'s 3-digit
    rounding would lose information. *)

val pp : Format.formatter -> float -> unit
(** Pretty-print with {!to_eng}. *)
