(** Real-coefficient polynomials.

    The filter designer needs Butterworth prototypes.  AWE's Padé
    denominators are quadratics solved in closed form
    ([Ape_spice.Awe.of_moments]); the general-degree Durand–Kerner root
    finder is the test suite's reference.  Coefficients are stored in
    ascending order: [c.(i)] multiplies [x^i]. *)

type t

val of_coeffs : float array -> t
(** Trailing zero coefficients are trimmed; the zero polynomial is
    represented as [[|0.|]]. *)

val coeffs : t -> float array
val degree : t -> int
val zero : t
val one : t
val x : t
(** The monomial x. *)

val eval : t -> float -> float
val derivative : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t

val of_real_roots : float list -> t
(** Monic polynomial with the given real roots. *)

val butterworth_poles : int -> Complex.t list
(** [butterworth_poles n] are the [n] left-half-plane poles of the
    normalised (ω = 1 rad/s) Butterworth low-pass prototype. *)

val pp : Format.formatter -> t -> unit
