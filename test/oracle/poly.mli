(** Real-coefficient polynomials: the coefficient form the Durand–Kerner
    reference ({!Ape_oracle.Poly_ref}) finds roots of.  Coefficients are
    stored in ascending order: [c.(i)] multiplies [x^i]. *)

type t

val of_coeffs : float array -> t
(** Trailing zero coefficients are trimmed; the zero polynomial is
    represented as [[|0.|]]. *)

val coeffs : t -> float array
val degree : t -> int
val eval : t -> float -> float
val derivative : t -> t
val mul : t -> t -> t

val of_real_roots : float list -> t
(** Monic polynomial with the given real roots. *)
