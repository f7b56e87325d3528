(** Engineering units: SPICE magnitude suffixes, engineering-notation
    formatting and the physical constants the device models need.

    All quantities in the code base are SI (volts, amperes, farads, metres,
    hertz, watts, seconds). *)

(** {1 Physical constants} *)

val k_boltzmann : float
(** Boltzmann constant, J/K. *)

val eps_ox : float
(** Permittivity of SiO2, F/m. *)

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

val to_eng : float -> string
(** [to_eng x] renders [x] in engineering notation with an SI prefix:
    [to_eng 4.67e6 = "4.67M"], [to_eng 1.3e-5 = "13u"], to three
    significant digits.  It is for display: its SI [M] (mega) reads back
    through {!parse_number} as SPICE's milli, so machine-read output
    uses {!to_exact}. *)

val to_exact : float -> string
(** Shortest decimal representation that parses back (with
    [float_of_string]) to the identical IEEE double — for machine-read
    output such as netlists and golden tables, where {!to_eng}'s 3-digit
    rounding would lose information. *)
