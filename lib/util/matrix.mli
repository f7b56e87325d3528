(** Dense matrices over an arbitrary field, with LU factorisation.

    The simulator's DC, AC, transient and noise analyses solve through
    {!Sparse}; dense matrices serve where no engine is involved: AWE's
    moment and Padé solves, the relaxed-KCL penalty, and the dense
    reference the differential tests check the sparse engine against.
    The functor is instantiated twice, over floats ({!Rmat}) and over
    [Complex.t] ({!Cmat}). *)

module type FIELD = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t

  val norm : t -> float
  (** Magnitude used for pivot selection and singularity tests. *)

  val pp : Format.formatter -> t -> unit
end

exception Singular
(** Raised by factorisation/solve when the matrix is numerically
    singular. *)

module Make (F : FIELD) : sig
  type elt = F.t
  type t

  val create : int -> int -> t
  (** [create rows cols], initialised to zero.  A dimension of 0 is
      valid (and arises from a ground-only netlist with no unknowns):
      the empty system is trivially nonsingular — {!lu_factor} succeeds,
      {!lu_solve} and {!mat_vec} return [[||]].  Negative dimensions
      raise [Invalid_argument]. *)

  val identity : int -> t
  val rows : t -> int
  val cols : t -> int
  val get : t -> int -> int -> elt
  val set : t -> int -> int -> elt -> unit

  val add_to : t -> int -> int -> elt -> unit
  (** [add_to m i j x] accumulates: [m.(i).(j) <- m.(i).(j) + x].  This is
      the MNA "stamp" primitive. *)

  val of_arrays : elt array array -> t
  val to_arrays : t -> elt array array
  val copy : t -> t
  val map : (elt -> elt) -> t -> t
  val transpose : t -> t
  val mat_mul : t -> t -> t
  val mat_vec : t -> elt array -> elt array

  type lu
  (** LU factorisation with partial pivoting. *)

  val lu_factor : t -> lu
  (** Raises {!Singular} on a singular matrix.  The input is not
      modified. *)

  val lu_solve : lu -> elt array -> elt array
  (** Solve [A x = b] given the factorisation of [A]. *)

  val solve : t -> elt array -> elt array
  (** [lu_factor] + [lu_solve] in one step. *)

  val residual_norm : t -> elt array -> elt array -> float
  (** [residual_norm a x b] is [max_i |(A x - b)_i|], for tests. *)

  val pp : Format.formatter -> t -> unit
end

module Rmat : module type of Make (struct
  type t = float

  let zero = 0.
  let one = 1.
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg x = -.x
  let norm = Float.abs
  let pp fmt x = Format.fprintf fmt "%.6g" x
end)

module Cmat : module type of Make (struct
  type t = Complex.t

  let zero = Complex.zero
  let one = Complex.one
  let add = Complex.add
  let sub = Complex.sub
  let mul = Complex.mul
  let div = Complex.div
  let neg = Complex.neg
  let norm = Complex.norm
  let pp fmt (c : Complex.t) = Format.fprintf fmt "%.6g%+.6gi" c.re c.im
end)
