(** Dense matrices with LU factorisation: the test suite's reference
    solver.

    No production path solves densely: the simulator's analyses solve
    through [Ape_util.Sparse], and the relaxed synthesis cost's moment
    LU ([Ape_spice.Awe.moments]) runs in place on pooled workspaces.
    These are the references both are checked against.

    {!Rmat} is written directly over [float]; the {!Make} functor serves
    {!Cmat} (the dense AC reference and the reference Padé residue
    solve).  Both follow one operation order, so {!Rmat} equals [Make]
    applied to floats bit for bit, and the moment LU keeps that order
    too. *)

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
end

exception Singular
(** Raised by factorisation/solve when the matrix is numerically
    singular. *)

module type S = sig
  type elt
  type t

  val create : int -> int -> t
  (** [create rows cols], initialised to zero.  A dimension of 0 is
      valid (and arises from a ground-only netlist with no unknowns):
      the empty system is trivially nonsingular — {!lu_factor} succeeds,
      {!lu_solve} and {!mat_vec} return [[||]].  Negative dimensions
      raise [Invalid_argument]. *)

  val rows : t -> int
  val get : t -> int -> int -> elt
  val set : t -> int -> int -> elt -> unit

  val add_to : t -> int -> int -> elt -> unit
  (** [add_to m i j x] accumulates: [m.(i).(j) <- m.(i).(j) + x].  This is
      the MNA "stamp" primitive. *)

  val of_arrays : elt array array -> t
  val to_arrays : t -> elt array array
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
end

module Make (F : FIELD) : S with type elt = F.t

module Rmat : S with type elt = float

module Cmat : S with type elt = Complex.t
