(** Symbolic expressions.

    APE's performance models are "symbolic equations which relate the
    performance of the components to the circuit topology" (paper §4).
    This module gives those equations a first-class representation so the
    estimator can evaluate them, differentiate them for sensitivities, and
    invert them during sizing. *)

type t =
  | Const of float
  | Var of string
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Pow of t * float  (** real exponent *)
  | Sqrt of t
  | Abs of t
  | Log of t  (** natural log *)
  | Exp of t

(** {1 Construction helpers} *)

val const : float -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ** ) : t -> float -> t
val neg : t -> t
val sqrt : t -> t
val log : t -> t
val exp : t -> t

(** {1 Environments} *)

module Env : sig
  type t

  val empty : t
  val of_list : (string * float) list -> t
  val add : string -> float -> t -> t
  val find_opt : string -> t -> float option
end

exception Unbound_variable of string
exception Domain_error of string
(** Raised on sqrt/log/div of values outside the function domain. *)

(** {1 Operations} *)

val eval : Env.t -> t -> float
(** Raises {!Unbound_variable} or {!Domain_error}. *)

val vars : t -> string list
(** Free variables, sorted, without duplicates. *)

val subst : string -> t -> t -> t
(** [subst name replacement e] substitutes every occurrence. *)

val diff : string -> t -> t
(** Symbolic partial derivative. *)

val simplify : t -> t
(** Constant folding and algebraic identity elimination.  Idempotent. *)

val equal : t -> t -> bool
(** Structural equality after simplification. *)

val pp : Format.formatter -> t -> unit
(** Infix rendering with minimal parentheses; re-parseable by
    {!Parser.parse}. *)

val to_string : t -> string
